#include "tracing.h"

namespace apmbench::e2ebench {

namespace {

thread_local int tls_foreground_depth = 0;

/// Marks the current thread as foreground for the scope of one store call.
class ForegroundScope {
 public:
  ForegroundScope() { tls_foreground_depth++; }
  ~ForegroundScope() { tls_foreground_depth--; }
  ForegroundScope(const ForegroundScope&) = delete;
  ForegroundScope& operator=(const ForegroundScope&) = delete;
};

class CountingWritableFile final : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Append(const Slice& data) override {
    const uint64_t start = NowNanos();
    Status s = base_->Append(data);
    env_->RecordWrite(data.size(), NowNanos() - start);
    return s;
  }
  Status Flush() override {
    const uint64_t start = NowNanos();
    Status s = base_->Flush();
    env_->RecordWrite(0, NowNanos() - start);
    return s;
  }
  Status Sync() override {
    const uint64_t start = NowNanos();
    Status s = base_->Sync();
    env_->RecordSync(NowNanos() - start);
    return s;
  }
  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<WritableFile> base_;
  CountingEnv* const env_;
};

class CountingRandomAccessFile final : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                           CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const uint64_t start = NowNanos();
    Status s = base_->Read(offset, n, result, scratch);
    env_->RecordRead(s.ok() ? result->size() : 0, NowNanos() - start);
    return s;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  CountingEnv* const env_;
};

class CountingRandomRWFile final : public RandomRWFile {
 public:
  CountingRandomRWFile(std::unique_ptr<RandomRWFile> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const uint64_t start = NowNanos();
    Status s = base_->Read(offset, n, result, scratch);
    env_->RecordRead(s.ok() ? result->size() : 0, NowNanos() - start);
    return s;
  }
  Status Write(uint64_t offset, const Slice& data) override {
    const uint64_t start = NowNanos();
    Status s = base_->Write(offset, data);
    env_->RecordWrite(data.size(), NowNanos() - start);
    return s;
  }
  Status Sync() override {
    const uint64_t start = NowNanos();
    Status s = base_->Sync();
    env_->RecordSync(NowNanos() - start);
    return s;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  CountingEnv* const env_;
};

void Relaxed(std::atomic<uint64_t>* counter, uint64_t delta) {
  counter->fetch_add(delta, std::memory_order_relaxed);
}

}  // namespace

bool InForegroundCall() { return tls_foreground_depth > 0; }

void SpanBoard::Post(const std::string& key, uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[key] = ns;
}

bool SpanBoard::Take(const std::string& key, uint64_t* ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(key);
  if (it == spans_.end()) return false;
  *ns = it->second;
  spans_.erase(it);
  return true;
}

Status TimedDB::Read(const std::string& table, const Slice& key,
                     ycsb::Record* record) {
  ForegroundScope fg;
  const uint64_t start = NowNanos();
  Status s = inner_->Read(table, key, record);
  const uint64_t ns = NowNanos() - start;
  reads_.Add(ns);
  Relaxed(&call_ns_, ns);
  if (board_ != nullptr) board_->Post(key.ToString(), ns);
  return s;
}

Status TimedDB::ScanKeyed(const std::string& table, const Slice& start_key,
                          int count,
                          std::vector<ycsb::KeyedRecord>* records) {
  ForegroundScope fg;
  const uint64_t start = NowNanos();
  Status s = inner_->ScanKeyed(table, start_key, count, records);
  const uint64_t ns = NowNanos() - start;
  scans_.Add(ns);
  Relaxed(&call_ns_, ns);
  return s;
}

Status TimedDB::Insert(const std::string& table, const Slice& key,
                       const ycsb::Record& record) {
  ForegroundScope fg;
  const uint64_t start = NowNanos();
  Status s = inner_->Insert(table, key, record);
  const uint64_t ns = NowNanos() - start;
  inserts_.Add(ns);
  Relaxed(&call_ns_, ns);
  return s;
}

Status TimedDB::Update(const std::string& table, const Slice& key,
                       const ycsb::Record& record) {
  ForegroundScope fg;
  const uint64_t start = NowNanos();
  Status s = inner_->Update(table, key, record);
  Relaxed(&call_ns_, NowNanos() - start);
  return s;
}

Status TimedDB::Delete(const std::string& table, const Slice& key) {
  ForegroundScope fg;
  const uint64_t start = NowNanos();
  Status s = inner_->Delete(table, key);
  Relaxed(&call_ns_, NowNanos() - start);
  return s;
}

void TimedDB::Reset() {
  reads_.Reset();
  inserts_.Reset();
  scans_.Reset();
  call_ns_.store(0, std::memory_order_relaxed);
}

EnvCounters EnvCounters::operator-(const EnvCounters& base) const {
  EnvCounters d;
  d.fg_write_bytes = fg_write_bytes - base.fg_write_bytes;
  d.bg_write_bytes = bg_write_bytes - base.bg_write_bytes;
  d.fg_read_bytes = fg_read_bytes - base.fg_read_bytes;
  d.bg_read_bytes = bg_read_bytes - base.bg_read_bytes;
  d.syncs = syncs - base.syncs;
  d.fg_ns = fg_ns - base.fg_ns;
  d.bg_ns = bg_ns - base.bg_ns;
  return d;
}

EnvCounters CountingEnv::Snapshot() const {
  EnvCounters c;
  c.fg_write_bytes = fg_write_bytes_.load(std::memory_order_relaxed);
  c.bg_write_bytes = bg_write_bytes_.load(std::memory_order_relaxed);
  c.fg_read_bytes = fg_read_bytes_.load(std::memory_order_relaxed);
  c.bg_read_bytes = bg_read_bytes_.load(std::memory_order_relaxed);
  c.syncs = syncs_.load(std::memory_order_relaxed);
  c.fg_ns = fg_ns_.load(std::memory_order_relaxed);
  c.bg_ns = bg_ns_.load(std::memory_order_relaxed);
  return c;
}

void CountingEnv::AddTime(uint64_t ns) {
  Relaxed(InForegroundCall() ? &fg_ns_ : &bg_ns_, ns);
}

void CountingEnv::RecordWrite(uint64_t bytes, uint64_t ns) {
  Relaxed(InForegroundCall() ? &fg_write_bytes_ : &bg_write_bytes_, bytes);
  AddTime(ns);
}

void CountingEnv::RecordRead(uint64_t bytes, uint64_t ns) {
  Relaxed(InForegroundCall() ? &fg_read_bytes_ : &bg_read_bytes_, bytes);
  AddTime(ns);
}

void CountingEnv::RecordSync(uint64_t ns) {
  Relaxed(&syncs_, 1);
  AddTime(ns);
}

Status CountingEnv::NewWritableFile(const std::string& path,
                                    std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> base;
  Status s = base_->NewWritableFile(path, &base);
  if (s.ok()) file->reset(new CountingWritableFile(std::move(base), this));
  return s;
}

Status CountingEnv::NewAppendableFile(const std::string& path,
                                      std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> base;
  Status s = base_->NewAppendableFile(path, &base);
  if (s.ok()) file->reset(new CountingWritableFile(std::move(base), this));
  return s;
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& path, std::unique_ptr<RandomAccessFile>* file) {
  std::unique_ptr<RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(path, &base);
  if (s.ok()) {
    file->reset(new CountingRandomAccessFile(std::move(base), this));
  }
  return s;
}

Status CountingEnv::NewRandomRWFile(const std::string& path,
                                    std::unique_ptr<RandomRWFile>* file) {
  std::unique_ptr<RandomRWFile> base;
  Status s = base_->NewRandomRWFile(path, &base);
  if (s.ok()) file->reset(new CountingRandomRWFile(std::move(base), this));
  return s;
}

Status CountingEnv::ReadFileToString(const std::string& path,
                                     std::string* data) {
  const uint64_t start = NowNanos();
  Status s = base_->ReadFileToString(path, data);
  RecordRead(s.ok() ? data->size() : 0, NowNanos() - start);
  return s;
}

Status CountingEnv::WriteStringToFile(const std::string& path,
                                      const Slice& data) {
  const uint64_t start = NowNanos();
  Status s = base_->WriteStringToFile(path, data);
  RecordWrite(data.size(), NowNanos() - start);
  return s;
}

Status CountingEnv::SyncDir(const std::string& dir) {
  const uint64_t start = NowNanos();
  Status s = base_->SyncDir(dir);
  RecordSync(NowNanos() - start);
  return s;
}

}  // namespace apmbench::e2ebench
