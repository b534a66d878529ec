#include "lsm/db.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <thread>

#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "lsm/row.h"

namespace apmbench::lsm {

namespace {

constexpr uint8_t kWalPut = 1;
constexpr uint8_t kWalDelete = 2;
constexpr uint8_t kWalBatch = 3;

void EncodeWalRecord(std::string* dst, uint64_t seq, uint8_t type,
                     const Slice& key, const Slice& value) {
  PutFixed64(dst, seq);
  dst->push_back(static_cast<char>(type));
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, value);
}

bool DecodeWalRecord(Slice input, uint64_t* seq, uint8_t* type, Slice* key,
                     Slice* value) {
  if (!GetFixed64(&input, seq) || input.empty()) return false;
  *type = static_cast<uint8_t>(input[0]);
  input.RemovePrefix(1);
  return GetLengthPrefixedSlice(&input, key) &&
         GetLengthPrefixedSlice(&input, value);
}

}  // namespace

void WriteBatch::Put(const Slice& key, const Slice& value) {
  rep_.push_back(static_cast<char>(kWalPut));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
  count_++;
}

void WriteBatch::Delete(const Slice& key) {
  rep_.push_back(static_cast<char>(kWalDelete));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, Slice());
  count_++;
}

DB::DB(const Options& options) : options_(options) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  options_.env = env_;
  // The arena charges whole blocks up front, so a memtable must span
  // several blocks before the flush trigger can fire — otherwise a
  // memtable_bytes smaller than one block degenerates into a flush per
  // write. Capping the block at a quarter of the budget keeps the
  // overshoot bound (one block) proportional to memtable_bytes. Clamp
  // rather than reject the combination: tiny write buffers are a
  // legitimate way to force flush churn.
  options_.arena_block_bytes = std::min(
      options_.arena_block_bytes,
      std::max<size_t>(256, options_.memtable_bytes / 4));
  cache_ = std::make_unique<BlockCache>(options_.block_cache_bytes);
  versions_ = std::make_unique<VersionSet>(options_, env_);
  mem_ = std::make_shared<MemTable>(options_.arena_block_bytes);
}

Status DB::Open(const Options& options, std::unique_ptr<DB>* db) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("Options::dir must be set");
  }
  std::unique_ptr<DB> impl(new DB(options));
  APM_RETURN_IF_ERROR(impl->OpenImpl());
  *db = std::move(impl);
  return Status::OK();
}

std::string DB::TablePath(uint64_t number) const {
  return options_.dir + "/" + std::to_string(number) + ".sst";
}

std::string DB::WalPath(uint64_t number) const {
  return options_.dir + "/wal-" + std::to_string(number) + ".log";
}

Status DB::OpenTable(const FileMeta& meta) {
  std::unique_ptr<Table> table;
  APM_RETURN_IF_ERROR(Table::Open(options_, env_, TablePath(meta.number),
                                  meta.number, cache_.get(), &table));
  tables_[meta.number] = std::move(table);
  return Status::OK();
}

Status DB::OpenImpl() {
  APM_RETURN_IF_ERROR(env_->CreateDirIfMissing(options_.dir));
  bool manifest_found = false;
  APM_RETURN_IF_ERROR(versions_->Recover(&manifest_found));
  if (!manifest_found) {
    APM_RETURN_IF_ERROR(versions_->Persist());
  }
  for (int level = 0; level < versions_->NumLevels(); level++) {
    for (const auto& meta : versions_->files(level)) {
      APM_RETURN_IF_ERROR(OpenTable(meta));
    }
  }
  APM_RETURN_IF_ERROR(ReplayWals());

  // Remove orphaned SSTables: a crash between table creation and the
  // manifest apply (or between a compaction and its deferred zombie
  // unlink) leaves .sst files on disk that no manifest references. Any
  // data they held is either in the manifest's tables or still in a WAL
  // that was just replayed, so deleting them is safe. Must happen before
  // background threads start creating new tables.
  {
    std::vector<std::string> children;
    APM_RETURN_IF_ERROR(env_->GetChildren(options_.dir, &children));
    for (const auto& name : children) {
      if (name.size() <= 4 || name.substr(name.size() - 4) != ".sst") {
        continue;
      }
      uint64_t number =
          strtoull(name.substr(0, name.size() - 4).c_str(), nullptr, 10);
      if (tables_.count(number) == 0) {
        APM_LOG_INFO("lsm: removing orphaned table %s", name.c_str());
        env_->RemoveFile(options_.dir + "/" + name);
      }
    }
  }

  // Start the fresh WAL for the live memtable. ReplayWals allocated
  // wal_number_ above every WAL it found on disk.
  std::unique_ptr<WritableFile> wal_file;
  APM_RETURN_IF_ERROR(env_->NewWritableFile(WalPath(wal_number_), &wal_file));
  if (options_.sync_writes) {
    // The segment's directory entry must be durable before writes are
    // acknowledged into it.
    APM_RETURN_IF_ERROR(env_->SyncDir(options_.dir));
  }
  wal_ = std::make_unique<LogWriter>(std::move(wal_file));

  // Everything recovered so far is fully applied; publish the initial
  // reader view before any thread can race us.
  applied_seq_.store(versions_->last_seq(), std::memory_order_release);
  RefreshViewLocked();

  flush_thread_ = std::thread(&DB::FlushThreadMain, this);
  const int pool = std::max(1, options_.compaction_threads);
  compaction_threads_.reserve(pool);
  for (int i = 0; i < pool; i++) {
    compaction_threads_.emplace_back(&DB::CompactionThreadMain, this);
  }
  return Status::OK();
}

void DB::RefreshViewLocked() {
  auto view = std::make_shared<ReadView>();
  view->mem = mem_;
  view->imm = imm_;
  view->tables.reserve(tables_.size());
  for (int level = 0; level < versions_->NumLevels(); level++) {
    for (const FileMeta& meta : versions_->files(level)) {
      // Every file of the live version was opened before its edit was
      // applied, so the lookup always succeeds.
      auto it = tables_.find(meta.number);
      if (it == tables_.end()) continue;
      view->tables.push_back(
          ReadView::TableRef{it->second, meta.smallest, meta.largest});
    }
  }
  std::lock_guard<std::mutex> view_lock(view_mu_);
  view_ = std::move(view);
}

std::shared_ptr<const DB::ReadView> DB::CurrentView() const {
  std::lock_guard<std::mutex> view_lock(view_mu_);
  return view_;
}

Status DB::ReplayWals() {
  std::vector<std::string> children;
  APM_RETURN_IF_ERROR(env_->GetChildren(options_.dir, &children));
  std::vector<uint64_t> wal_numbers;
  for (const auto& name : children) {
    if (name.rfind("wal-", 0) == 0 && name.size() > 8 &&
        name.substr(name.size() - 4) == ".log") {
      uint64_t number =
          strtoull(name.substr(4, name.size() - 8).c_str(), nullptr, 10);
      wal_numbers.push_back(number);
    }
  }
  std::sort(wal_numbers.begin(), wal_numbers.end());
  for (uint64_t number : wal_numbers) {
    versions_->BumpFileNumber(number);
  }
  // The WAL that will be live after recovery; numbered above every WAL on
  // disk so the flush edit below can mark all of them as flushed.
  wal_number_ = versions_->NewFileNumber();

  uint64_t max_seq = versions_->last_seq();
  wal_dropped_bytes_ = 0;
  wal_replayed_records_ = 0;
  for (uint64_t number : wal_numbers) {
    if (number < versions_->log_number()) {
      // The manifest records every entry of this WAL as contained in
      // SSTables: it is a leftover of a crash between LogAndApply and
      // RemoveFile. Replaying it would re-apply flushed entries and could
      // resurrect keys whose tombstones a full compaction has dropped.
      APM_LOG_INFO("lsm: skipping stale WAL %s (log_number %" PRIu64 ")",
                   WalPath(number).c_str(), versions_->log_number());
      continue;
    }
    std::unique_ptr<LogReader> reader;
    APM_RETURN_IF_ERROR(LogReader::Open(env_, WalPath(number), &reader));
    std::string payload;
    while (reader->ReadRecord(&payload)) {
      uint64_t seq;
      uint8_t type;
      Slice key, value;
      if (!DecodeWalRecord(Slice(payload), &seq, &type, &key, &value)) {
        // The frame's checksum matched but the payload is not a WAL
        // record: this is damage, not an interrupted append.
        return Status::Corruption("undecodable WAL record in " +
                                  WalPath(number));
      }
      wal_replayed_records_++;
      if (type == kWalPut) {
        mem_->Put(key, value, seq);
      } else if (type == kWalDelete) {
        mem_->Delete(key, seq);
      } else if (type == kWalBatch) {
        // `value` holds the batch body; ops get seq, seq+1, ...
        Slice ops = value;
        uint64_t op_seq = seq;
        while (!ops.empty()) {
          uint8_t op_type = static_cast<uint8_t>(ops[0]);
          ops.RemovePrefix(1);
          Slice op_key, op_value;
          if (!GetLengthPrefixedSlice(&ops, &op_key) ||
              !GetLengthPrefixedSlice(&ops, &op_value)) {
            break;
          }
          if (op_type == kWalPut) {
            mem_->Put(op_key, op_value, op_seq);
          } else if (op_type == kWalDelete) {
            mem_->Delete(op_key, op_seq);
          }
          op_seq++;
        }
        seq = op_seq > seq ? op_seq - 1 : seq;
      }
      max_seq = std::max(max_seq, seq);
    }
    // Distinguish how the log ended: a torn tail from an interrupted
    // append is expected after power loss, but mid-log damage means
    // acknowledged records after the damage are unrecoverable.
    APM_RETURN_IF_ERROR(reader->status());
    if (reader->DroppedBytes() > 0) {
      APM_LOG_WARN("lsm: dropped %" PRIu64 " torn-tail bytes from %s",
                   reader->DroppedBytes(), WalPath(number).c_str());
      wal_dropped_bytes_ += reader->DroppedBytes();
    }
  }
  versions_->set_last_seq(max_seq);

  // Persist replayed data so the old WAL files can be removed. The
  // memtable is multi-version (one entry per write, not per key), while
  // SSTables must hold one entry per key — dedup keeps the newest version
  // and preserves tombstones so they still shadow older tables.
  if (mem_->EntryCount() > 0) {
    auto iter = NewDedupIterator(mem_->NewIterator(),
                                 /*skip_tombstones=*/false);
    iter->SeekToFirst();
    std::vector<FileMeta> outputs;
    std::vector<uint64_t> numbers;
    APM_RETURN_IF_ERROR(WriteTables(iter.get(), /*single_output=*/true,
                                    &outputs, &numbers));
    VersionEdit edit;
    for (const auto& meta : outputs) {
      edit.added.push_back({0, meta});
      APM_RETURN_IF_ERROR(OpenTable(meta));
    }
    // Every replayed WAL is numbered below the post-recovery live WAL;
    // marking them flushed keeps a crash before the removals below from
    // re-applying them on the next recovery.
    edit.has_log_number = true;
    edit.log_number = wal_number_;
    APM_RETURN_IF_ERROR(versions_->LogAndApply(edit));
    mem_ = std::make_shared<MemTable>(options_.arena_block_bytes);
    num_flushes_++;
  }
  for (uint64_t number : wal_numbers) {
    env_->RemoveFile(WalPath(number));
  }
  return Status::OK();
}

Status DB::Close() {
  {
    // Drain in-flight write groups: once this member leads the writer
    // queue, every group queued before it has appended to the WAL (a
    // leader appends outside mu_, and the WAL is synced/closed below);
    // the last of them may still be inserting, so wait for that too.
    // Every later leader finds closed_ and fails its group.
    CommitQueue::Member self;
    write_queue_.Join(&self);
    std::unique_lock<std::mutex> lock(mu_);
    WaitForApplied(versions_->last_seq());
    const bool already_closed = closed_;
    closed_ = true;
    write_queue_.Complete(&self, &self, Status::OK());
    if (already_closed) return close_status_;
    // Drain any pending flush first: the immutable memtable's WAL was
    // closed without a sync at rotation, so until the flush lands in a
    // synced SSTable those acknowledged writes are only in page cache.
    while (imm_ != nullptr && bg_error_.ok()) cv_.wait(lock);
    shutting_down_ = true;
    flush_cv_.notify_one();
    cv_.notify_all();
    compaction_cv_.notify_all();
  }
  // In-flight compaction jobs run to completion; the pool threads exit
  // once shutting_down_ is visible at the top of their loops.
  if (flush_thread_.joinable()) flush_thread_.join();
  for (auto& t : compaction_threads_) {
    if (t.joinable()) t.join();
  }
  Status s;
  if (wal_ != nullptr) {
    // Make acknowledged records durable before closing: with
    // sync_writes=false they are otherwise only in the OS page cache, and
    // a clean close must never lose acknowledged writes.
    s = wal_->Sync();
    Status close_status = wal_->Close();
    if (s.ok()) s = close_status;
    wal_.reset();
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Unlink whatever zombie files are now unreferenced. Tables still held
  // by a user's live snapshot iterator stay readable (the Table keeps its
  // file handle); their files become orphans that the next Open removes.
  CollectZombiesLocked();
  close_status_ = s;
  return s;
}

DB::~DB() {
  Status s = Close();
  if (!s.ok()) {
    APM_LOG_WARN("lsm: WAL sync/close failed at shutdown: %s",
                 s.ToString().c_str());
  }
}

Status DB::MakeRoomForWrite(std::unique_lock<std::mutex>* lock) {
  // One bounded delay per write group: at the slowdown trigger each
  // leader pays ~1ms once, smoothly shedding ingest rate instead of
  // letting L0 race from "fine" straight to a hard stop.
  bool allow_delay = options_.level0_slowdown_trigger > 0;
  bool counted_stop = false;
  for (;;) {
    // Once a WAL or flush failure is recorded the engine refuses writes:
    // continuing could acknowledge records that recovery cannot honor.
    if (!bg_error_.ok()) return bg_error_;
    const int l0_files = versions_->NumFiles(0);
    if (allow_delay && l0_files >= options_.level0_slowdown_trigger &&
        (options_.level0_stop_trigger == 0 ||
         l0_files < options_.level0_stop_trigger)) {
      allow_delay = false;
      compaction_cv_.notify_one();
      const uint64_t start = NowMicros();
      lock->unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      lock->lock();
      stall_slowdown_micros_ += NowMicros() - start;
      stall_slowdown_writes_++;
      continue;
    }
    if (mem_->ApproximateMemoryUsage() < options_.memtable_bytes) {
      return Status::OK();
    }
    if (imm_ != nullptr) {
      // Backpressure: the previous memtable is still being flushed.
      cv_.wait(*lock);
      continue;
    }
    if (options_.level0_stop_trigger > 0 &&
        l0_files >= options_.level0_stop_trigger) {
      // Rotating now would soon land another L0 file; hold the writer
      // until compaction brings the count back down (job completions
      // notify cv_).
      if (!counted_stop) {
        counted_stop = true;
        stall_stop_writes_++;
      }
      compaction_cv_.notify_one();
      const uint64_t start = NowMicros();
      cv_.wait(*lock);
      stall_stop_micros_ += NowMicros() - start;
      continue;
    }
    APM_RETURN_IF_ERROR(RotateMemTableLocked());
  }
  return Status::OK();
}

Status DB::RotateMemTableLocked() {
  // The group ahead of this leader may still be inserting into mem_: let
  // it finish before mem_ becomes the flush thread's input.
  WaitForApplied(versions_->last_seq());
  uint64_t new_wal_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> wal_file;
  Status s = env_->NewWritableFile(WalPath(new_wal_number), &wal_file);
  if (s.ok() && options_.sync_writes) {
    s = env_->SyncDir(options_.dir);
  }
  if (!s.ok()) {
    // A failed rotation leaves half-rotated state (a fresh file number,
    // possibly a created-but-unusable segment); letting the next writer
    // retry against it risks interleaving two generations of the log.
    // Fence exactly like the wal_->Close() failure below.
    if (bg_error_.ok()) bg_error_ = s;
    return s;
  }
  s = wal_->Close();
  if (!s.ok()) {
    // The rotating WAL holds acknowledged records; if its tail never
    // reached the OS, a crash before the memtable flush lands would
    // lose them. Fail the write and stop accepting new ones.
    if (bg_error_.ok()) bg_error_ = s;
    return s;
  }
  wal_ = std::make_unique<LogWriter>(std::move(wal_file));
  imm_ = std::move(mem_);
  imm_wal_number_ = wal_number_;
  wal_number_ = new_wal_number;
  mem_ = std::make_shared<MemTable>(options_.arena_block_bytes);
  RefreshViewLocked();
  flush_cv_.notify_one();
  return Status::OK();
}

Status DB::Put(const Slice& key, const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(batch);
}

Status DB::Delete(const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(batch);
}

Status DB::ValidateBatch(const WriteBatch& batch) {
  Slice ops(batch.rep_);
  size_t count = 0;
  while (!ops.empty()) {
    uint8_t op_type = static_cast<uint8_t>(ops[0]);
    ops.RemovePrefix(1);
    Slice key, value;
    if ((op_type != kWalPut && op_type != kWalDelete) ||
        !GetLengthPrefixedSlice(&ops, &key) ||
        !GetLengthPrefixedSlice(&ops, &value)) {
      return Status::Corruption("malformed write batch");
    }
    count++;
  }
  if (count != batch.Count()) {
    return Status::Corruption("write batch count disagrees with contents");
  }
  return Status::OK();
}

void DB::ApplyBatchRep(MemTable* mem, const Slice& rep, uint64_t base_seq) {
  Slice ops = rep;
  uint64_t seq = base_seq;
  while (!ops.empty()) {
    uint8_t op_type = static_cast<uint8_t>(ops[0]);
    ops.RemovePrefix(1);
    Slice key, value;
    if (!GetLengthPrefixedSlice(&ops, &key) ||
        !GetLengthPrefixedSlice(&ops, &value)) {
      // Unreachable: every rep was validated before entering the queue.
      break;
    }
    if (op_type == kWalPut) {
      mem->Put(key, value, seq);
    } else {
      mem->Delete(key, seq);
    }
    seq++;
  }
}

Status DB::Write(const WriteBatch& batch) {
  if (batch.Count() == 0) return Status::OK();
  // Reject malformed batches before a sequence number is consumed or a
  // WAL byte written: a bad rep_ used to be logged, partially applied,
  // and replayed on recovery.
  APM_RETURN_IF_ERROR(ValidateBatch(batch));

  CommitQueue::Member self(&batch);
  if (!write_queue_.Join(&self)) return self.status;  // a leader did it

  // This thread leads the writer queue: no other thread touches the WAL
  // until it promotes the next leader below. The group ahead of it may
  // still be inserting into the memtable.
  std::unique_lock<std::mutex> lock(mu_);
  Status s = closed_ ? Status::IOError("db closed") : MakeRoomForWrite(&lock);
  if (!s.ok()) {
    // No sequence number taken, nothing to insert.
    lock.unlock();
    write_queue_.Complete(&self, &self, s);
    return s;
  }
  // Merge the queued batches (bounded, to keep follower latency sane)
  // into one rep covering contiguous sequence numbers. A Flush or Close
  // member carries no batch and leads on its own.
  constexpr size_t kMaxGroupBytes = 1 << 20;
  std::string group_rep = batch.rep_;
  size_t group_count = batch.Count();
  size_t group_writers = 1;
  CommitQueue::Member* last =
      write_queue_.Gather(&self, [&](CommitQueue::Member* m) {
        const auto* queued = static_cast<const WriteBatch*>(m->arg);
        if (queued == nullptr ||
            group_rep.size() + queued->rep_.size() > kMaxGroupBytes) {
          return false;
        }
        group_rep.append(queued->rep_);
        group_count += queued->Count();
        group_writers++;
        return true;
      });
  const uint64_t base_seq = versions_->last_seq() + 1;
  const uint64_t last_seq = base_seq + group_count - 1;
  versions_->set_last_seq(last_seq);
  write_groups_++;
  grouped_writes_ += group_writers;
  std::string record;
  EncodeWalRecord(&record, base_seq, kWalBatch, Slice(), Slice(group_rep));
  // Rotation waits for this group's inserts (RotateMemTableLocked), so
  // `mem` stays the live memtable until they are done.
  MemTable* mem = mem_.get();
  LogWriter* wal = wal_.get();
  lock.unlock();

  // A depth-2 pipeline: the WAL append (and at most one fsync) for the
  // whole group runs outside mu_, overlapping the previous group's
  // memtable inserts.
  s = wal->AddRecord(record, options_.sync_writes);
  if (!s.ok()) {
    // The WAL may now end in a partial frame; further appends would
    // write beyond it and turn the next recovery into mid-log
    // corruption. Fence before the next leader starts, so it fails
    // fast.
    std::lock_guard<std::mutex> guard(mu_);
    if (bg_error_.ok()) bg_error_ = s;
  }
  // The skip list takes one writer at a time, in sequence order: this
  // group inserts only once the previous one has published. Only then
  // may the next leader start its WAL append.
  WaitForApplied(base_seq - 1);
  write_queue_.Promote(&self, last);
  // The memtable never runs ahead of the log: nothing is inserted before
  // the group's WAL record is written.
  if (s.ok()) ApplyBatchRep(mem, Slice(group_rep), base_seq);
  // Publish the group to readers only once every entry is in: readers
  // cap their memtable visibility at applied_seq_, which keeps both
  // batches and whole groups atomic under concurrent Get/Scan. A failed
  // group publishes too (it inserted nothing), or the next waiter on
  // applied_seq_ would never return.
  PublishApplied(last_seq);
  CommitQueue::Finish(&self, last, s);
  return s;
}

void DB::WaitForApplied(uint64_t seq) {
  auto applied = [&] {
    return applied_seq_.load(std::memory_order_acquire) >= seq;
  };
  if (write_queue_.SpinUntil(applied)) return;
  std::unique_lock<std::mutex> lock(apply_mu_);
  // Paired with PublishApplied: the publisher stores applied_seq_ before
  // it reads apply_sleepers_, and this thread counts itself before it
  // reads applied_seq_ (all seq_cst), so either the publisher sees the
  // sleeper or this thread sees the new applied_seq_.
  apply_sleepers_.fetch_add(1);
  bool blocked = false;
  while (applied_seq_.load() < seq) {
    blocked = true;
    apply_cv_.wait(lock);
  }
  apply_sleepers_.fetch_sub(1);
  if (blocked) apply_waits_.fetch_add(1, std::memory_order_relaxed);
}

void DB::PublishApplied(uint64_t seq) {
  applied_seq_.store(seq);
  if (apply_sleepers_.load() > 0) {
    // Only the writer queue's current leader waits, but waking every
    // sleeper keeps a second one from being stranded.
    std::lock_guard<std::mutex> lock(apply_mu_);
    apply_cv_.notify_all();
  }
}

Status DB::Get(const ReadOptions& read_options, const Slice& key,
               std::string* value) {
  // Never touches mu_: the view pins every structure the read needs, and
  // applied_seq_ (loaded after the view, so it covers everything the view
  // contains) hides half-applied write groups in the live memtable.
  std::shared_ptr<const ReadView> view = CurrentView();
  const uint64_t seq_limit = applied_seq_.load(std::memory_order_acquire);

  // The live and immutable memtables hold the newest entries; a hit
  // there is authoritative.
  MemTable::GetResult r = view->mem->Get(key, value, nullptr, seq_limit);
  if (r == MemTable::GetResult::kFound) return Status::OK();
  if (r == MemTable::GetResult::kDeleted) return Status::NotFound();
  if (view->imm != nullptr) {
    // The immutable memtable is fully applied by construction (rotation
    // waits for the last group's inserts), so no seq cap is needed.
    r = view->imm->Get(key, value);
    if (r == MemTable::GetResult::kFound) return Status::OK();
    if (r == MemTable::GetResult::kDeleted) return Status::NotFound();
  }

  // Search every table that may contain the key and keep the entry with
  // the highest sequence number: with size-tiered compaction, no total
  // order exists between tables (see Iterator::seq()).
  uint64_t best_seq = 0;
  bool found = false;
  bool deleted = false;
  std::string candidate_value;
  for (const auto& ref : view->tables) {
    Table::GetResult result;
    uint64_t seq = 0;
    std::string v;
    APM_RETURN_IF_ERROR(
        ref.table->Get(read_options, key, &result, &v, &seq));
    if (result == Table::GetResult::kAbsent) continue;
    if (!found || seq > best_seq) {
      found = true;
      best_seq = seq;
      deleted = (result == Table::GetResult::kDeleted);
      candidate_value = std::move(v);
    }
  }
  if (!found || deleted) return Status::NotFound();
  *value = std::move(candidate_value);
  return Status::OK();
}

Status DB::Scan(
    const ReadOptions& read_options, const Slice& start, const Slice& limit,
    const std::function<bool(const Slice& key, const Slice& value)>& visit) {
  // No mu_: the skip list supports concurrent traversal while the
  // group-commit leader inserts, and the seq cap gives the whole scan one
  // consistent point-in-time view — so scans no longer block writers.
  std::shared_ptr<const ReadView> view = CurrentView();
  const uint64_t seq_limit = applied_seq_.load(std::memory_order_acquire);

  // A range inside one row (an HBase Get) skips every table whose row
  // filter rules that row out.
  Slice row;
  const bool one_row = RangeWithinOneRow(start, limit, &row);
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(view->mem->NewIterator(seq_limit));
  if (view->imm != nullptr) children.push_back(view->imm->NewIterator());
  for (const auto& ref : view->tables) {
    // A table wholly below start or at/above limit holds nothing in range;
    // seeking it would still load a data block.
    if (Slice(ref.largest).Compare(start) < 0) continue;
    if (!limit.empty() && Slice(ref.smallest).Compare(limit) >= 0) continue;
    if (one_row && !ref.table->MayContainRow(row)) continue;
    children.push_back(ref.table->NewIterator(read_options));
  }
  auto iter = NewDedupIterator(NewMergingIterator(std::move(children)),
                               /*skip_tombstones=*/true, limit);
  for (iter->Seek(start); iter->Valid(); iter->Next()) {
    if (!visit(iter->key(), iter->value())) break;
  }
  return iter->status();
}

namespace {

/// Ordered in-memory entries, used for the frozen copy of the live
/// memtable inside snapshot iterators.
class VectorIterator final : public Iterator {
 public:
  struct Entry {
    std::string key;
    std::string value;
    uint64_t seq;
    bool tombstone;
  };

  explicit VectorIterator(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}

  bool Valid() const override {
    return index_ >= 0 && index_ < static_cast<int>(entries_.size());
  }
  void SeekToFirst() override { index_ = entries_.empty() ? -1 : 0; }
  void Seek(const Slice& target) override {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), target,
        [](const Entry& e, const Slice& t) { return Slice(e.key) < t; });
    index_ = it == entries_.end() ? static_cast<int>(entries_.size())
                                  : static_cast<int>(it - entries_.begin());
  }
  void Next() override { index_++; }
  Slice key() const override { return Slice(entries_[index_].key); }
  Slice value() const override { return Slice(entries_[index_].value); }
  bool IsTombstone() const override { return entries_[index_].tombstone; }
  uint64_t seq() const override { return entries_[index_].seq; }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<Entry> entries_;
  int index_ = -1;
};

/// Owns the pinned resources of a snapshot and forwards to the merged
/// view over them.
class SnapshotIterator final : public Iterator {
 public:
  SnapshotIterator(std::unique_ptr<Iterator> merged,
                   std::shared_ptr<MemTable> imm,
                   std::vector<std::shared_ptr<Table>> tables)
      : merged_(std::move(merged)),
        imm_(std::move(imm)),
        tables_(std::move(tables)) {}

  bool Valid() const override { return merged_->Valid(); }
  void SeekToFirst() override { merged_->SeekToFirst(); }
  void Seek(const Slice& target) override { merged_->Seek(target); }
  void Next() override { merged_->Next(); }
  Slice key() const override { return merged_->key(); }
  Slice value() const override { return merged_->value(); }
  bool IsTombstone() const override { return merged_->IsTombstone(); }
  uint64_t seq() const override { return merged_->seq(); }
  Status status() const override { return merged_->status(); }

 private:
  std::unique_ptr<Iterator> merged_;
  std::shared_ptr<MemTable> imm_;
  std::vector<std::shared_ptr<Table>> tables_;
};

}  // namespace

std::unique_ptr<Iterator> DB::NewSnapshotIterator(
    const ReadOptions& read_options) {
  std::vector<std::unique_ptr<Iterator>> children;
  std::shared_ptr<MemTable> imm;
  std::vector<std::shared_ptr<Table>> tables;
  {
    // Like Get/Scan: the view pins the structures and the seq cap fixes
    // the point in time, without mu_.
    std::shared_ptr<const ReadView> view = CurrentView();
    const uint64_t seq_limit = applied_seq_.load(std::memory_order_acquire);
    // Freeze the live memtable by copying it (bounded by memtable_bytes).
    // Entries arrive (key asc, seq desc), so keeping only the first
    // version of each key collapses the multi-version history.
    std::vector<VectorIterator::Entry> frozen;
    frozen.reserve(view->mem->EntryCount());
    auto mem_iter = view->mem->NewIterator(seq_limit);
    for (mem_iter->SeekToFirst(); mem_iter->Valid(); mem_iter->Next()) {
      if (!frozen.empty() && Slice(frozen.back().key) == mem_iter->key()) {
        continue;  // older version of the key just captured
      }
      frozen.push_back(VectorIterator::Entry{
          mem_iter->key().ToString(), mem_iter->value().ToString(),
          mem_iter->seq(), mem_iter->IsTombstone()});
    }
    children.push_back(std::make_unique<VectorIterator>(std::move(frozen)));
    if (view->imm != nullptr) {
      imm = view->imm;
      children.push_back(imm->NewIterator());
    }
    for (const auto& ref : view->tables) {
      tables.push_back(ref.table);
      children.push_back(ref.table->NewIterator(read_options));
    }
  }
  auto merged = NewDedupIterator(NewMergingIterator(std::move(children)),
                                 /*skip_tombstones=*/true);
  return std::make_unique<SnapshotIterator>(std::move(merged), std::move(imm),
                                            std::move(tables));
}

Status DB::WriteTables(Iterator* iter, bool single_output,
                       std::vector<FileMeta>* outputs,
                       std::vector<uint64_t>* numbers) {
  std::unique_ptr<TableBuilder> builder;
  uint64_t current_number = 0;
  auto open_builder = [&]() -> Status {
    current_number = versions_->NewFileNumber();
    builder = std::make_unique<TableBuilder>(options_, env_,
                                             TablePath(current_number));
    return builder->Open();
  };
  auto finish_builder = [&]() -> Status {
    if (builder == nullptr || builder->NumEntries() == 0) {
      if (builder != nullptr) builder->Abandon();
      builder.reset();
      return Status::OK();
    }
    APM_RETURN_IF_ERROR(builder->Finish());
    FileMeta meta;
    meta.number = current_number;
    meta.file_size = builder->FileSize();
    meta.num_entries = builder->NumEntries();
    meta.format_version = kTableFormatV2;
    meta.smallest = builder->smallest_key();
    meta.largest = builder->largest_key();
    outputs->push_back(std::move(meta));
    numbers->push_back(current_number);
    compaction_bytes_written_.fetch_add(builder->FileSize(),
                                        std::memory_order_relaxed);
    builder.reset();
    return Status::OK();
  };

  const uint64_t max_output = options_.memtable_bytes * 2;
  for (; iter->Valid(); iter->Next()) {
    if (builder == nullptr) {
      APM_RETURN_IF_ERROR(open_builder());
    }
    APM_RETURN_IF_ERROR(builder->Add(iter->key(), iter->value(), iter->seq(),
                                     iter->IsTombstone()));
    if (!single_output && builder->CurrentSizeEstimate() >= max_output) {
      APM_RETURN_IF_ERROR(finish_builder());
    }
  }
  APM_RETURN_IF_ERROR(iter->status());
  return finish_builder();
}

void DB::FlushThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutting_down_) {
    if (imm_ != nullptr && bg_error_.ok()) {
      lock.unlock();
      BackgroundFlush();
      lock.lock();
      // Writers waiting on imm_, Flush/Close drains, and the compaction
      // pool (a flush may have pushed L0 over a trigger) all need waking.
      cv_.notify_all();
      compaction_cv_.notify_all();
      continue;
    }
    flush_cv_.wait(lock);
  }
}

void DB::CompactionThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutting_down_) {
    CompactionJob job;
    if (bg_error_.ok() && PickCompaction(&job)) {
      running_compactions_++;
      lock.unlock();
      RunCompaction(job);
      lock.lock();
      running_compactions_--;
      versions_->ReleaseFiles(job.inputs);
      if (job.manual) manual_compaction_running_ = false;
      // Stalled writers watch the L0 count on cv_; peers retry picks on
      // compaction_cv_ (released claims may unblock them, and one
      // compaction often makes the next one eligible).
      cv_.notify_all();
      compaction_cv_.notify_all();
      continue;
    }
    compaction_cv_.wait(lock);
  }
}

void DB::BackgroundFlush() {
  // imm_ is immutable; safe to read without the mutex. Dedup collapses
  // the multi-version memtable into one entry per key (tombstones kept)
  // so the SSTable invariant of unique, ordered keys holds.
  auto iter = NewDedupIterator(imm_->NewIterator(),
                               /*skip_tombstones=*/false);
  iter->SeekToFirst();
  std::vector<FileMeta> outputs;
  std::vector<uint64_t> numbers;
  // File numbers come from an atomic counter, so the flush I/O can run
  // without blocking foreground operations.
  Status s = WriteTables(iter.get(), /*single_output=*/true, &outputs,
                         &numbers);
  std::lock_guard<std::mutex> lock(mu_);
  if (!s.ok()) {
    bg_error_ = s;
    return;
  }
  VersionEdit edit;
  for (const auto& meta : outputs) {
    edit.added.push_back({0, meta});
    Status open_status = OpenTable(meta);
    if (!open_status.ok()) {
      bg_error_ = open_status;
      return;
    }
  }
  edit.has_log_number = true;
  edit.log_number = wal_number_;
  s = versions_->LogAndApply(edit);
  if (!s.ok()) {
    bg_error_ = s;
    return;
  }
  env_->RemoveFile(WalPath(imm_wal_number_));
  imm_.reset();
  num_flushes_++;
  RefreshViewLocked();
  CollectZombiesLocked();
}

uint64_t DB::MaxBytesForLevel(int level) const {
  uint64_t bytes = options_.level1_max_bytes;
  for (int i = 1; i < level; i++) bytes *= 10;
  return bytes;
}

bool DB::PickCompaction(CompactionJob* job) {
  // Called with mu_ held. A successful pick claims job->inputs in the
  // VersionSet; concurrent picks skip claimed files, so two in-flight
  // jobs can never share (or range-overlap through the overlap scans
  // below) an input table. The caller releases the claims when the job
  // finishes.
  if (manual_compaction_requested_ || manual_compaction_running_) {
    if (manual_compaction_running_) return false;
    // A manual compaction wants *every* table; wait for in-flight jobs
    // to drain (their completions re-signal compaction_cv_) and suppress
    // new auto picks meanwhile so the claim set empties.
    if (versions_->NumClaimed() > 0) return false;
    job->inputs.clear();
    for (int level = 0; level < versions_->NumLevels(); level++) {
      for (const auto& f : versions_->files(level)) {
        job->inputs.push_back(f);
      }
    }
    if (job->inputs.empty()) {
      // Nothing to do; release the waiter in CompactAll.
      manual_compaction_requested_ = false;
      cv_.notify_all();
      return false;
    }
    job->output_level =
        options_.compaction_style == CompactionStyle::kLeveled
            ? versions_->NumLevels() - 1
            : 0;
    job->drop_tombstones = true;
    job->single_output = true;
    job->manual = true;
    manual_compaction_requested_ = false;
    manual_compaction_running_ = true;
    versions_->ClaimFiles(job->inputs);
    return true;
  }

  if (options_.compaction_style == CompactionStyle::kSizeTiered) {
    // Bucket level-0 files by similar size (Cassandra STCS). Files
    // claimed by an in-flight job are invisible to this pick, so a
    // second thread buckets only the remainder — disjoint by
    // construction.
    std::vector<FileMeta> files;
    for (const auto& f : versions_->files(0)) {
      if (!versions_->IsClaimed(f.number)) files.push_back(f);
    }
    if (static_cast<int>(files.size()) < options_.size_tiered_min_files) {
      return false;
    }
    std::sort(files.begin(), files.end(),
              [](const FileMeta& a, const FileMeta& b) {
                return a.file_size < b.file_size;
              });
    std::vector<FileMeta> bucket;
    double bucket_avg = 0;
    for (const auto& f : files) {
      double size = static_cast<double>(f.file_size);
      if (bucket.empty() ||
          (size >= bucket_avg * 0.5 && size <= bucket_avg * 1.5)) {
        double total = bucket_avg * static_cast<double>(bucket.size()) + size;
        bucket.push_back(f);
        bucket_avg = total / static_cast<double>(bucket.size());
      } else {
        if (static_cast<int>(bucket.size()) >= options_.size_tiered_min_files) {
          break;  // compact the smallest eligible bucket first
        }
        bucket.clear();
        bucket.push_back(f);
        bucket_avg = size;
      }
      if (bucket.size() >= 32) break;  // cap one compaction's width
    }
    if (static_cast<int>(bucket.size()) < options_.size_tiered_min_files) {
      // Forward-progress escape valve. At the stop trigger writers are
      // hard-blocked, so the flushes that could complete a similarity
      // bucket can never arrive; if no bucket qualifies either (e.g. the
      // trigger count splits into bands of min_files-1 lookalikes), the
      // stall would be permanent. Merge the smallest files regardless of
      // similarity: the L0 count drops below the trigger and writers
      // resume. Needs >= 2 inputs or the merge wouldn't shrink anything.
      const int escape_width = std::min(options_.size_tiered_min_files,
                                        static_cast<int>(files.size()));
      if (options_.level0_stop_trigger <= 0 ||
          static_cast<int>(files.size()) < options_.level0_stop_trigger ||
          escape_width < 2) {
        return false;
      }
      bucket.assign(files.begin(), files.begin() + escape_width);
      stall_escape_compactions_++;
    }
    job->inputs = std::move(bucket);
    job->output_level = 0;
    job->drop_tombstones = job->inputs.size() == versions_->TotalFiles();
    job->single_output = true;
    versions_->ClaimFiles(job->inputs);
    return true;
  }

  // Leveled compaction.
  if (versions_->NumFiles(0) >= options_.level0_compaction_trigger &&
      !versions_->AnyClaimed(versions_->files(0))) {
    // L0→L1 jobs are serialized by the claim check above: level-0 files
    // overlap each other, and two concurrent L0 jobs could emit
    // overlapping level-1 outputs even from disjoint inputs.
    job->inputs = versions_->files(0);
    // Level-0 files overlap; take all of level 1 that intersects any of
    // them. Level-1 ranges are disjoint, so a linear filter suffices.
    std::string smallest, largest;
    for (const auto& f : job->inputs) {
      if (smallest.empty() || Slice(f.smallest).Compare(smallest) < 0) {
        smallest = f.smallest;
      }
      if (largest.empty() || Slice(f.largest).Compare(largest) > 0) {
        largest = f.largest;
      }
    }
    bool overlap_claimed = false;
    for (const auto& f : versions_->files(1)) {
      if (Slice(f.largest).Compare(smallest) >= 0 &&
          Slice(f.smallest).Compare(largest) <= 0) {
        if (versions_->IsClaimed(f.number)) {
          overlap_claimed = true;
          break;
        }
        job->inputs.push_back(f);
      }
    }
    if (!overlap_claimed) {
      job->output_level = 1;
      job->drop_tombstones = job->inputs.size() == versions_->TotalFiles();
      job->single_output = false;
      versions_->ClaimFiles(job->inputs);
      return true;
    }
    job->inputs.clear();
  }
  for (int level = 1; level < versions_->NumLevels() - 1; level++) {
    if (versions_->LevelBytes(level) <= MaxBytesForLevel(level)) continue;
    const auto& files = versions_->files(level);
    if (files.empty()) continue;
    // Round-robin through the level, LevelDB-style: resume after the
    // largest key of the last file compacted out of it, skipping files
    // another job has claimed.
    const std::string& ptr = versions_->CompactPointer(level);
    const FileMeta* pick = nullptr;
    for (const auto& f : files) {
      if (versions_->IsClaimed(f.number)) continue;
      if (!ptr.empty() && Slice(f.largest).Compare(ptr) <= 0) continue;
      pick = &f;
      break;
    }
    if (pick == nullptr) {  // wrap around
      for (const auto& f : files) {
        if (!versions_->IsClaimed(f.number)) {
          pick = &f;
          break;
        }
      }
    }
    if (pick == nullptr) continue;  // whole level in flight
    job->inputs.clear();
    job->inputs.push_back(*pick);
    bool overlap_claimed = false;
    for (const auto& f : versions_->files(level + 1)) {
      if (Slice(f.largest).Compare(pick->smallest) >= 0 &&
          Slice(f.smallest).Compare(pick->largest) <= 0) {
        if (versions_->IsClaimed(f.number)) {
          overlap_claimed = true;
          break;
        }
        job->inputs.push_back(f);
      }
    }
    if (overlap_claimed) continue;
    job->output_level = level + 1;
    job->drop_tombstones = job->inputs.size() == versions_->TotalFiles();
    job->single_output = false;
    versions_->SetCompactPointer(level, pick->largest);
    versions_->ClaimFiles(job->inputs);
    return true;
  }
  return false;
}

void DB::RunCompaction(const CompactionJob& job) {
  // Snapshot the input tables (immutable; no mutex needed to read them,
  // but fetching the shared_ptrs requires it).
  std::vector<std::shared_ptr<Table>> inputs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& meta : job.inputs) {
      auto it = tables_.find(meta.number);
      if (it == tables_.end()) {
        bg_error_ = Status::Corruption("compaction input table missing");
        return;
      }
      inputs.push_back(it->second);
    }
  }

  // One merge over every input, so dedup sees every version of a key.
  ReadOptions read_options;
  read_options.fill_cache = false;
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(inputs.size());
  for (const auto& table : inputs) {
    children.push_back(table->NewIterator(read_options));
  }
  auto merged = NewDedupIterator(NewMergingIterator(std::move(children)),
                                 /*skip_tombstones=*/job.drop_tombstones);
  merged->SeekToFirst();
  std::vector<FileMeta> outputs;
  std::vector<uint64_t> numbers;
  Status s = WriteTables(merged.get(), job.single_output, &outputs, &numbers);

  std::lock_guard<std::mutex> lock(mu_);
  if (!s.ok()) {
    // Drop whatever outputs finished before the failure; a partially
    // built table was already abandoned by its builder, and anything left
    // behind is swept as an orphan at the next Open.
    for (uint64_t number : numbers) env_->RemoveFile(TablePath(number));
    bg_error_ = s;
    return;
  }
  VersionEdit edit;
  for (const auto& meta : job.inputs) edit.removed.push_back(meta.number);
  for (const auto& meta : outputs) {
    edit.added.push_back({job.output_level, meta});
    Status open_status = OpenTable(meta);
    if (!open_status.ok()) {
      bg_error_ = open_status;
      return;
    }
  }
  s = versions_->LogAndApply(edit);
  if (!s.ok()) {
    bg_error_ = s;
    return;
  }
  for (const auto& meta : job.inputs) {
    // The input tables leave the live version but their files are not
    // unlinked yet: an open snapshot iterator, an older ReadView, or a
    // concurrent job's merge may still be reading them. They park on the
    // zombie list until the last reference drops (CollectZombiesLocked).
    auto it = tables_.find(meta.number);
    if (it != tables_.end()) {
      zombies_.emplace(meta.number, std::move(it->second));
      tables_.erase(it);
    }
    cache_->EvictFile(meta.number);
  }
  num_compactions_++;
  // Readers holding the old view keep the dropped tables alive through
  // their shared_ptrs; new readers pick up the compacted set here.
  RefreshViewLocked();
  CollectZombiesLocked();
}

void DB::CollectZombiesLocked() {
  for (auto it = zombies_.begin(); it != zombies_.end();) {
    // One reference = the zombie map's own. The table left tables_ and
    // every republished view, so no new reference can be minted; the
    // count only falls. Destroying the Table closes its file handle
    // before the unlink.
    if (it->second.use_count() == 1) {
      const uint64_t number = it->first;
      it = zombies_.erase(it);
      env_->RemoveFile(TablePath(number));
    } else {
      ++it;
    }
  }
}

Status DB::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  for (bool rotated = false; !rotated;) {
    // Let a pending flush land first; writers keep going meanwhile.
    while (imm_ != nullptr && bg_error_.ok()) cv_.wait(lock);
    if (!bg_error_.ok()) return bg_error_;
    if (closed_) return Status::IOError("db closed");
    lock.unlock();
    // Rotate as the writer queue's leader, once the last group ahead of
    // this member has inserted: none starts until it completes, so no
    // insert can land in a memtable already being flushed.
    CommitQueue::Member self;
    write_queue_.Join(&self);
    lock.lock();
    WaitForApplied(versions_->last_seq());
    Status s;
    if (closed_) {
      s = Status::IOError("db closed");
    } else if (imm_ == nullptr) {  // else a writer rotated meanwhile
      rotated = true;
      // Rotate even a partially full memtable.
      if (mem_->EntryCount() > 0) s = RotateMemTableLocked();
    }
    write_queue_.Complete(&self, &self, s);
    APM_RETURN_IF_ERROR(s);
  }
  while (imm_ != nullptr && bg_error_.ok()) {
    cv_.wait(lock);
  }
  // Deterministic GC point for callers that just released iterators.
  CollectZombiesLocked();
  return bg_error_;
}

Status DB::CompactAll() {
  APM_RETURN_IF_ERROR(Flush());
  std::unique_lock<std::mutex> lock(mu_);
  manual_compaction_requested_ = true;
  compaction_cv_.notify_all();
  // The request drains in-flight jobs first (auto picks are suppressed
  // while it is pending), then one thread claims every table. Completion
  // of each job re-signals both condition variables.
  while ((manual_compaction_requested_ || manual_compaction_running_) &&
         bg_error_.ok()) {
    cv_.wait(lock);
  }
  if (!bg_error_.ok()) {
    // Don't leave a poisoned request suppressing future picks.
    manual_compaction_requested_ = false;
  }
  return bg_error_;
}

Status DB::DiskUsage(uint64_t* bytes) {
  return env_->GetDirectorySize(options_.dir, bytes);
}

Status DB::VerifyIntegrity() {
  // Snapshot the file set and table handles.
  std::vector<std::pair<FileMeta, std::shared_ptr<Table>>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int level = 0; level < versions_->NumLevels(); level++) {
      for (const FileMeta& meta : versions_->files(level)) {
        auto it = tables_.find(meta.number);
        if (it == tables_.end()) {
          return Status::Corruption("manifest lists unopened table " +
                                    std::to_string(meta.number));
        }
        snapshot.emplace_back(meta, it->second);
      }
    }
  }
  for (const auto& [meta, table] : snapshot) {
    // Size-tiered bucketing and LevelBytes trust the manifest's size.
    uint64_t file_size = 0;
    APM_RETURN_IF_ERROR(env_->GetFileSize(TablePath(meta.number), &file_size));
    if (file_size != meta.file_size) {
      return Status::Corruption(
          "table " + std::to_string(meta.number) + " is " +
          std::to_string(file_size) + " bytes, manifest says " +
          std::to_string(meta.file_size));
    }
    ReadOptions read_options;
    read_options.fill_cache = false;
    auto iter = table->NewIterator(read_options);
    uint64_t entries = 0;
    std::string prev_key;
    std::string first_key, last_key;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      std::string key = iter->key().ToString();
      if (entries == 0) {
        first_key = key;
      } else if (key <= prev_key) {
        return Status::Corruption("table " + std::to_string(meta.number) +
                                  " keys out of order");
      }
      prev_key = key;
      last_key = key;
      entries++;
    }
    APM_RETURN_IF_ERROR(iter->status());
    if (entries != meta.num_entries) {
      return Status::Corruption(
          "table " + std::to_string(meta.number) + " has " +
          std::to_string(entries) + " entries, manifest says " +
          std::to_string(meta.num_entries));
    }
    if (entries > 0 &&
        (first_key != meta.smallest || last_key != meta.largest)) {
      return Status::Corruption("table " + std::to_string(meta.number) +
                                " key range disagrees with manifest");
    }
  }
  return Status::OK();
}

DB::Stats DB::GetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.num_flushes = num_flushes_;
  stats.num_compactions = num_compactions_;
  stats.compaction_bytes_written =
      compaction_bytes_written_.load(std::memory_order_relaxed);
  stats.stall_slowdown_micros = stall_slowdown_micros_;
  stats.stall_slowdown_writes = stall_slowdown_writes_;
  stats.stall_stop_micros = stall_stop_micros_;
  stats.stall_stop_writes = stall_stop_writes_;
  stats.stall_escape_compactions = stall_escape_compactions_;
  stats.running_compactions = static_cast<uint64_t>(running_compactions_);
  stats.claimed_files = versions_->NumClaimed();
  stats.zombie_tables = zombies_.size();
  stats.cache_hits = cache_->hits();
  stats.cache_misses = cache_->misses();
  stats.cache_evictions = cache_->evictions();
  stats.memtable_bytes = mem_->ApproximateMemoryUsage();
  for (const auto& [number, table] : tables_) {
    (void)number;
    stats.index_bytes += table->index_block_bytes();
  }
  stats.wal_dropped_bytes = wal_dropped_bytes_;
  stats.wal_replayed_records = wal_replayed_records_;
  stats.write_groups = write_groups_;
  stats.grouped_writes = grouped_writes_;
  stats.pending_writers = write_queue_.size();
  stats.writer_blocks = write_queue_.blocked_waits();
  stats.apply_waits = apply_waits_.load(std::memory_order_relaxed);
  for (int level = 0; level < versions_->NumLevels(); level++) {
    stats.files_per_level.push_back(versions_->NumFiles(level));
  }
  return stats;
}

}  // namespace apmbench::lsm
