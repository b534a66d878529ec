#ifndef APMBENCH_TESTS_TEST_UTIL_H_
#define APMBENCH_TESTS_TEST_UTIL_H_

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "ycsb/db.h"

namespace apmbench::testutil {

/// Creates a unique scratch directory under the system temp dir and
/// removes it (recursively) on destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    char buf[256];
    snprintf(buf, sizeof(buf), "/tmp/apmbench-%s-XXXXXX", tag.c_str());
    char* result = mkdtemp(buf);
    path_ = result != nullptr ? result : "/tmp/apmbench-fallback";
  }
  ~ScopedTempDir() { Env::Default()->RemoveDirRecursively(path_); }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A trivially correct reference DB (ordered map + mutex) used to test the
/// YCSB framework and as the model in property tests. Derivable so tests
/// can wrap operations with fault/stall injection.
class BasicDB : public ycsb::DB {
 public:
  Status Read(const std::string& table, const Slice& key,
              ycsb::Record* record) override {
    (void)table;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = data_.find(key.ToString());
    if (it == data_.end()) return Status::NotFound();
    *record = it->second;
    return Status::OK();
  }

  Status ScanKeyed(const std::string& table, const Slice& start_key,
                   int count,
                   std::vector<ycsb::KeyedRecord>* records) override {
    (void)table;
    records->clear();
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = data_.lower_bound(start_key.ToString());
         it != data_.end() && static_cast<int>(records->size()) < count;
         ++it) {
      records->push_back(ycsb::KeyedRecord{it->first, it->second});
    }
    return Status::OK();
  }

  Status Insert(const std::string& table, const Slice& key,
                const ycsb::Record& record) override {
    (void)table;
    std::lock_guard<std::mutex> lock(mu_);
    data_[key.ToString()] = record;
    return Status::OK();
  }

  Status Update(const std::string& table, const Slice& key,
                const ycsb::Record& record) override {
    return Insert(table, key, record);
  }

  Status Delete(const std::string& table, const Slice& key) override {
    (void)table;
    std::lock_guard<std::mutex> lock(mu_);
    return data_.erase(key.ToString()) > 0 ? Status::OK()
                                           : Status::NotFound();
  }

  size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return data_.size();
  }

 private:
  std::mutex mu_;
  std::map<std::string, ycsb::Record> data_;
};

/// Blocks callers while closed; counts how many threads are waiting.
class Gate {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    blocked_++;
    cv_.notify_all();  // wake blocked() watchers
    cv_.wait(lock, [&] { return !closed_; });
    blocked_--;
  }

  int blocked() {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int blocked_ = 0;
};

/// Env wrapper that gates .sst file writes by creation order: the i-th
/// SSTable created through this Env (flush or compaction output alike)
/// blocks in its first Append while its index is in the gated set and the
/// gate is closed. Creation order is deterministic when the test drives
/// flushes explicitly, so this pins down *which* background job stalls.
class TableGateEnv final : public Env {
 public:
  explicit TableGateEnv(Env* base) : base_(base) {}

  Gate* gate() { return &gate_; }

  /// Gates the SSTable whose creation index (0-based) is `index`.
  void GateCreation(int index) {
    std::lock_guard<std::mutex> lock(mu_);
    gated_.insert(index);
  }

  int sst_creations() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_index_;
  }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    APM_RETURN_IF_ERROR(base_->NewWritableFile(path, file));
    if (IsTable(path)) {
      bool gated;
      {
        std::lock_guard<std::mutex> lock(mu_);
        gated = gated_.count(next_index_) != 0;
        next_index_++;
      }
      if (gated) {
        *file = std::make_unique<GatedFile>(&gate_, std::move(*file));
      }
    }
    return Status::OK();
  }
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<WritableFile>* file) override {
    return base_->NewAppendableFile(path, file);
  }
  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    return base_->NewRandomAccessFile(path, file);
  }
  Status NewRandomRWFile(const std::string& path,
                         std::unique_ptr<RandomRWFile>* file) override {
    return base_->NewRandomRWFile(path, file);
  }
  Status ReadFileToString(const std::string& path,
                          std::string* data) override {
    return base_->ReadFileToString(path, data);
  }
  Status WriteStringToFile(const std::string& path,
                           const Slice& data) override {
    return base_->WriteStringToFile(path, data);
  }
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
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  Status RemoveDirRecursively(const std::string& dir) override {
    return base_->RemoveDirRecursively(dir);
  }
  Status GetDirectorySize(const std::string& dir, uint64_t* bytes) override {
    return base_->GetDirectorySize(dir, bytes);
  }

 private:
  class GatedFile final : public WritableFile {
   public:
    GatedFile(Gate* gate, std::unique_ptr<WritableFile> base)
        : gate_(gate), base_(std::move(base)) {}
    Status Append(const Slice& data) override {
      gate_->Pass();
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }
    uint64_t Size() const override { return base_->Size(); }

   private:
    Gate* gate_;
    std::unique_ptr<WritableFile> base_;
  };

  static bool IsTable(const std::string& path) {
    return path.size() > 4 && path.substr(path.size() - 4) == ".sst";
  }

  Env* base_;
  Gate gate_;
  std::mutex mu_;
  std::set<int> gated_;
  int next_index_ = 0;
};

}  // namespace apmbench::testutil

#endif  // APMBENCH_TESTS_TEST_UTIL_H_
