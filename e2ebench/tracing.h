// Decorators the benchmark wraps around the program's public boundaries in
// a traced trial. Untraced trials use none of them, so the end-to-end
// numbers measure the program alone.
//
//   TimedDB      around ycsb::DB: per-op-type call spans (ns), and marks the
//                calling thread as "foreground" for the Env decorator.
//   CountingEnv  around Env: bytes, syncs and time of every file operation,
//                split into foreground (a thread inside a TimedDB call) and
//                background (flush, compaction, any other thread).
//
// Both pass every call through unchanged; e2ebench_test checks that.
#ifndef APMBENCH_E2EBENCH_TRACING_H_
#define APMBENCH_E2EBENCH_TRACING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "ycsb/db.h"

namespace apmbench::e2ebench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latencies of one operation class, in nanoseconds. Appends are guarded
/// by a mutex; a traced trial pays for it, an untraced one never sees it.
class SpanLog {
 public:
  void Add(uint64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    ns_.push_back(ns);
  }
  /// Copies out the samples recorded since the last Reset.
  std::vector<uint64_t> Samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ns_;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    ns_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<uint64_t> ns_;
};

/// Server-side read spans keyed by record key, so the client can pair its
/// own span of the same read with the part the store spent on it.
class SpanBoard {
 public:
  void Post(const std::string& key, uint64_t ns);
  /// Removes and returns the span posted for `key`; false when none.
  bool Take(const std::string& key, uint64_t* ns);

 private:
  std::mutex mu_;
  std::unordered_map<std::string, uint64_t> spans_;
};

/// True while the calling thread is inside a TimedDB call.
bool InForegroundCall();

class TimedDB final : public ycsb::DB {
 public:
  /// `board`, when set, receives every read's span under its key.
  explicit TimedDB(ycsb::DB* inner, SpanBoard* board = nullptr)
      : inner_(inner), board_(board) {}

  Status Init() override { return inner_->Init(); }
  Status Read(const std::string& table, const Slice& key,
              ycsb::Record* record) override;
  Status ScanKeyed(const std::string& table, const Slice& start_key,
                   int count,
                   std::vector<ycsb::KeyedRecord>* records) override;
  Status Insert(const std::string& table, const Slice& key,
                const ycsb::Record& record) override;
  Status Update(const std::string& table, const Slice& key,
                const ycsb::Record& record) override;
  Status Delete(const std::string& table, const Slice& key) override;
  Status DiskUsage(uint64_t* bytes) override {
    return inner_->DiskUsage(bytes);
  }

  SpanLog& reads() { return reads_; }
  SpanLog& inserts() { return inserts_; }
  SpanLog& scans() { return scans_; }
  /// Total ns spent inside store calls (all op types).
  uint64_t call_ns() const { return call_ns_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  ycsb::DB* const inner_;
  SpanBoard* const board_;
  SpanLog reads_, inserts_, scans_;
  std::atomic<uint64_t> call_ns_{0};
};

/// File-operation counters of a CountingEnv.
struct EnvCounters {
  uint64_t fg_write_bytes = 0;
  uint64_t bg_write_bytes = 0;
  uint64_t fg_read_bytes = 0;
  uint64_t bg_read_bytes = 0;
  uint64_t syncs = 0;
  uint64_t fg_ns = 0;  ///< time in file calls made by foreground threads
  uint64_t bg_ns = 0;

  EnvCounters operator-(const EnvCounters& base) const;
};

class CountingEnv final : public Env {
 public:
  explicit CountingEnv(Env* base) : base_(base) {}

  EnvCounters Snapshot() const;

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override;
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<WritableFile>* file) override;
  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override;
  Status NewRandomRWFile(const std::string& path,
                         std::unique_ptr<RandomRWFile>* file) override;
  Status ReadFileToString(const std::string& path,
                          std::string* data) override;
  Status WriteStringToFile(const std::string& path,
                           const Slice& data) override;
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status GetFileSize(const std::string& path, uint64_t* size) override {
    return base_->GetFileSize(path, size);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* names) override {
    return base_->GetChildren(dir, names);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status SyncDir(const std::string& dir) override;
  Status RemoveDirRecursively(const std::string& dir) override {
    return base_->RemoveDirRecursively(dir);
  }
  Status GetDirectorySize(const std::string& dir, uint64_t* bytes) override {
    return base_->GetDirectorySize(dir, bytes);
  }

  /// Called by the file wrappers: one finished file operation.
  void RecordWrite(uint64_t bytes, uint64_t ns);
  void RecordRead(uint64_t bytes, uint64_t ns);
  void RecordSync(uint64_t ns);

 private:
  void AddTime(uint64_t ns);

  Env* const base_;
  std::atomic<uint64_t> fg_write_bytes_{0}, bg_write_bytes_{0},
      fg_read_bytes_{0}, bg_read_bytes_{0}, syncs_{0}, fg_ns_{0}, bg_ns_{0};
};

}  // namespace apmbench::e2ebench

#endif  // APMBENCH_E2EBENCH_TRACING_H_
