#ifndef APMBENCH_LSM_DB_H_
#define APMBENCH_LSM_DB_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/group_commit.h"
#include "common/slice.h"
#include "common/status.h"
#include "lsm/block_cache.h"
#include "lsm/iterator.h"
#include "lsm/memtable.h"
#include "lsm/options.h"
#include "lsm/sstable.h"
#include "lsm/version.h"
#include "lsm/wal.h"

namespace apmbench::lsm {

/// A batch of writes applied atomically: one WAL record covers the whole
/// batch, so after a crash either every operation in the batch is
/// recovered or none is. Used by the HBase-like store to keep a row's
/// cells consistent.
class WriteBatch {
 public:
  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  size_t Count() const { return count_; }
  void Clear() {
    rep_.clear();
    count_ = 0;
  }

 private:
  friend class DB;
  std::string rep_;  // sequence of (type, key, value) triples
  size_t count_ = 0;
};

/// A log-structured merge-tree storage engine: writes go to a write-ahead
/// log and an in-memory memtable; full memtables are flushed to immutable
/// SSTables by a dedicated flush thread, while a pool of compaction
/// threads merges tables according to the configured compaction style
/// (size-tiered as in Cassandra, or leveled as in LevelDB/HBase major
/// compactions). Writers are admission-controlled against L0 growth
/// (slowdown/stop triggers) so ingest cannot outrun compaction
/// unboundedly; see docs/concurrency.md, "Write path".
///
/// Thread-safety: all public methods are safe to call concurrently.
/// Writers go through the shared group-commit queue (`CommitQueue`):
/// concurrent Put/Delete/Write callers join it, and its leader merges the
/// queued batches into a single WAL record and performs the single append
/// + fsync *outside* the mutex. Write groups run as a depth-2 pipeline:
/// once the previous group has published, the leader promotes the next
/// leader, whose WAL append then overlaps this group's inserts into the
/// memtable's single skip list; the group is published to readers with
/// one store of its last sequence number. WAL order, sequence order,
/// memtable-insert order and publication order are one order.
/// Readers never take the writer mutex: Get/Scan/NewSnapshotIterator copy
/// a published {mem, imm, tables} view (a pointer copy under a dedicated
/// latch, never held across I/O) and filter the live memtable by the last
/// fully applied sequence number, so scans no longer block writers and
/// writes never block reads. See docs/concurrency.md.
class DB {
 public:
  /// Counters exposed for tests, benchmarks, and calibration.
  struct Stats {
    uint64_t num_flushes = 0;
    uint64_t num_compactions = 0;
    uint64_t compaction_bytes_written = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    /// Block-cache entries evicted so far.
    uint64_t cache_evictions = 0;
    uint64_t memtable_bytes = 0;
    /// Total on-disk index-block bytes across live tables (the
    /// restart-point shrink is visible here).
    uint64_t index_bytes = 0;
    /// Bytes discarded as torn WAL tails during the last recovery (benign
    /// interrupted appends; mid-log damage fails Open instead).
    uint64_t wal_dropped_bytes = 0;
    /// Records replayed from WALs during the last recovery.
    uint64_t wal_replayed_records = 0;
    /// Writer-queue group commits: `write_groups` counts leader rounds
    /// (== WAL appends), `grouped_writes` counts the Put/Delete/Write
    /// calls those rounds covered. grouped_writes > write_groups means
    /// batching happened.
    uint64_t write_groups = 0;
    uint64_t grouped_writes = 0;
    /// Members of the writer queue right now (including any in-flight
    /// leader, and a Flush or Close waiting for its turn).
    uint64_t pending_writers = 0;
    /// Queued writers that blocked, after spinning for
    /// CommitQueue::kSpinMicros or at once when they joined a queue deeper
    /// than the host's hardware threads: the hand-offs that cost a sleep
    /// and a wake-up.
    uint64_t writer_blocks = 0;
    /// Waits for the previous write group's memtable inserts (by a
    /// leader, or by a rotation, Flush or Close) that blocked after the
    /// same bounded spin: the pipeline stalls that cost a sleep and a
    /// wake-up.
    uint64_t apply_waits = 0;
    /// Write admission control (see MakeRoomForWrite): time and write
    /// groups delayed by the level0_slowdown_trigger (bounded one-time
    /// delay) and blocked at the level0_stop_trigger.
    uint64_t stall_slowdown_micros = 0;
    uint64_t stall_slowdown_writes = 0;
    uint64_t stall_stop_micros = 0;
    uint64_t stall_stop_writes = 0;
    /// Size-tiered compactions picked by the forward-progress escape
    /// valve: L0 at the stop trigger but no similarity bucket reached
    /// size_tiered_min_files, so the smallest files were merged anyway
    /// (otherwise the stall would never clear — writers are blocked, so
    /// no flush can complete a bucket).
    uint64_t stall_escape_compactions = 0;
    /// Compaction jobs executing right now and input files claimed by
    /// them (the scheduler's queue depth).
    uint64_t running_compactions = 0;
    uint64_t claimed_files = 0;
    /// Tables removed from the live version but kept alive (file not yet
    /// unlinked) because an iterator or in-flight job still reads them.
    uint64_t zombie_tables = 0;
    /// Live tables on each level (index = level; size-tiered keeps every
    /// table on level 0).
    std::vector<int> files_per_level;
  };

  /// Opens (creating or recovering) the database in `options.dir`.
  static Status Open(const Options& options, std::unique_ptr<DB>* db);

  /// Stops background work, syncs the live WAL (so a clean close never
  /// loses acknowledged writes, even with sync_writes=false), and closes
  /// it. Idempotent; returns the first shutdown error. The destructor
  /// calls this and logs any failure it cannot report.
  Status Close();

  ~DB();

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);

  /// Applies every operation in `batch` atomically (single WAL record,
  /// contiguous sequence numbers).
  Status Write(const WriteBatch& batch);

  /// Reads the newest value of `key`; NotFound for absent or deleted keys.
  Status Get(const ReadOptions& read_options, const Slice& key,
             std::string* value);

  /// Streams the live records with start <= key < limit to `visit`, in
  /// key order, until `visit` returns false. An empty `limit` means no
  /// upper bound. The merge stops at the first key >= limit, and tables
  /// whose key range lies outside [start, limit) are never opened, so a
  /// caller that knows where its range ends (a row read: the row's end)
  /// needs no count guess. The slices passed to `visit` are valid only
  /// during that call; copy them to keep them. `visit` runs on the
  /// calling thread with no DB lock held.
  Status Scan(const ReadOptions& read_options, const Slice& start,
              const Slice& limit,
              const std::function<bool(const Slice& key, const Slice& value)>&
                  visit);

  /// Collects up to `count` live records with start <= key < limit, in
  /// key order.
  Status Scan(const ReadOptions& read_options, const Slice& start,
              const Slice& limit, int count,
              std::vector<std::pair<std::string, std::string>>* out) {
    out->clear();
    if (count <= 0) return Status::OK();
    return Scan(read_options, start, limit,
                [count, out](const Slice& key, const Slice& value) {
                  out->emplace_back(key.ToString(), value.ToString());
                  return static_cast<int>(out->size()) < count;
                });
  }

  /// Collects up to `count` live records with key >= start, in key order.
  Status Scan(const ReadOptions& read_options, const Slice& start, int count,
              std::vector<std::pair<std::string, std::string>>* out) {
    return Scan(read_options, start, Slice(), count, out);
  }

  /// A point-in-time iterator over the whole database. The live memtable
  /// is copied at creation and the immutable memtable / SSTables are
  /// pinned, so the iterator is safe under concurrent writes and sees
  /// exactly the data present when it was created. Tombstones are hidden.
  /// Creation cost is O(live memtable); iteration streams from disk.
  std::unique_ptr<Iterator> NewSnapshotIterator(
      const ReadOptions& read_options);

  /// Flushes the memtable to an SSTable and waits for completion.
  Status Flush();

  /// Merges every table into one run, dropping tombstones (major
  /// compaction). Waits for completion.
  Status CompactAll();

  /// Total bytes currently on disk under the database directory
  /// (SSTables + WAL + MANIFEST).
  Status DiskUsage(uint64_t* bytes);

  /// Walks every SSTable end to end: block checksums, key ordering
  /// within tables, and agreement between the manifest's key ranges /
  /// entry counts and the table contents. Returns Corruption with a
  /// description on the first violation. An operational scrub — the kind
  /// of tooling Section 6's debugging stories call for.
  Status VerifyIntegrity();

  /// Copies the counters above.
  Stats GetStats();

  const Options& options() const { return options_; }

 private:
  struct CompactionJob {
    std::vector<FileMeta> inputs;
    int output_level = 0;
    bool drop_tombstones = false;
    bool single_output = false;  // size-tiered merges a bucket into 1 table
    bool manual = false;         // a CompactAll request
  };

  /// A consistent, atomically published snapshot of the structures a read
  /// needs. Readers load it without mu_; any rotation/flush/compaction
  /// republishes it. shared_ptrs keep rotated memtables and compacted
  /// tables alive for readers still holding an old view.
  struct ReadView {
    /// A live table with the key range the manifest records for it, so
    /// a scan can skip tables that hold nothing in its range.
    struct TableRef {
      std::shared_ptr<Table> table;
      std::string smallest;
      std::string largest;
    };
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<MemTable> imm;  // null when none
    std::vector<TableRef> tables;
  };

  explicit DB(const Options& options);

  Status OpenImpl();
  Status ReplayWals();
  Status OpenTable(const FileMeta& meta);
  std::string TablePath(uint64_t number) const;
  std::string WalPath(uint64_t number) const;

  /// Write admission control + memtable rotation (RocksDB semantics).
  /// Requires `lock` held. In order: injects a bounded one-time delay
  /// when L0 reaches level0_slowdown_trigger, waits for the pending flush
  /// when both memtables are full, blocks at level0_stop_trigger until
  /// compaction catches up, and rotates the memtable/WAL when the live
  /// memtable is full.
  Status MakeRoomForWrite(std::unique_lock<std::mutex>* lock);

  /// Moves mem_ to imm_ behind a fresh WAL and wakes the flush thread.
  /// Requires mu_, imm_ == nullptr, and that this thread leads the writer
  /// queue (so no later group can start); waits for the previous group's
  /// memtable inserts first. A failure fences writes through bg_error_.
  Status RotateMemTableLocked();

  /// Checks that `batch.rep_` decodes cleanly and matches its count, so a
  /// malformed batch is rejected before any sequence number is consumed or
  /// WAL byte written.
  static Status ValidateBatch(const WriteBatch& batch);

  /// Decodes `rep` (a validated concatenation of batch ops) into `mem`
  /// starting at `base_seq`. Called by the group leader without mu_; the
  /// leader is the memtable's only writer.
  static void ApplyBatchRep(MemTable* mem, const Slice& rep,
                            uint64_t base_seq);

  /// Waits until applied_seq_ >= `seq`: spins as the writer queue allows
  /// (CommitQueue::SpinUntil), then blocks on apply_cv_. Called only by
  /// the writer queue's current leader, with or without mu_.
  void WaitForApplied(uint64_t seq);

  /// Stores `seq` into applied_seq_ and wakes a blocked WaitForApplied.
  /// Never takes mu_, so a leader waiting under mu_ cannot deadlock it.
  void PublishApplied(uint64_t seq);

  /// Republishes the reader view from mem_/imm_ and the live version's
  /// tables (with their manifest key ranges). Requires mu_.
  void RefreshViewLocked();

  /// Copies the current reader view under the view latch. Readers call
  /// this instead of touching mu_; the latch is held only for the
  /// shared_ptr copy, never across I/O or traversal.
  std::shared_ptr<const ReadView> CurrentView() const;

  /// The dedicated flush thread: turns imm_ into a level-0 table as soon
  /// as one exists. Never runs compactions, so a long merge cannot delay
  /// the flush that unblocks writers.
  void FlushThreadMain();
  /// One compaction-pool thread: picks (and claims) a job under mu_,
  /// merges it outside, applies the edit, releases the claims.
  void CompactionThreadMain();
  /// Flushes imm_ to a level-0 table. Called on the flush thread without
  /// the mutex held (imm_ is immutable); re-acquires it to apply.
  void BackgroundFlush();
  /// Picks the next compaction and claims its inputs so no concurrent
  /// pick can select an overlapping set. Requires mu_; the caller must
  /// ReleaseFiles(job->inputs) when the job finishes.
  bool PickCompaction(CompactionJob* job);
  /// Runs one claimed job end to end (requires mu_ NOT held): merges all
  /// inputs in one pass, applies the version edit, and moves the inputs
  /// to the zombie list.
  void RunCompaction(const CompactionJob& job);
  uint64_t MaxBytesForLevel(int level) const;

  /// Unlinks zombie tables nothing references anymore. A table moves to
  /// zombies_ when a compaction drops it from the live version; its file
  /// may only be deleted once no snapshot iterator or older ReadView
  /// still holds the Table (use_count drops to the map's own reference —
  /// no new references can be minted once it left the view). Requires
  /// mu_.
  void CollectZombiesLocked();

  /// Writes the contents of `iter` into one or more new tables (placement
  /// happens in the caller's VersionEdit). Requires the mutex NOT held;
  /// safe to run from several threads at once.
  Status WriteTables(Iterator* iter, bool single_output,
                     std::vector<FileMeta>* outputs,
                     std::vector<uint64_t>* numbers);

  Options options_;
  Env* env_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<VersionSet> versions_;

  std::mutex mu_;
  /// Signalled when background work changes what a waiter under mu_ is
  /// waiting for: a flush landed (imm_ cleared) or a compaction finished.
  /// Stalled leaders, Flush, Close and CompactAll wait on it.
  std::condition_variable cv_;

  /// Writers, plus Flush and Close while they rotate or fence, take turns
  /// leading this queue. A leader promotes the next one only after its
  /// WAL append and the previous group's inserts, so at most one thread
  /// ever appends to the WAL and at most one inserts into mem_ — that
  /// single writer is what the skip list's reader-safety contract
  /// requires.
  CommitQueue write_queue_;

  /// Published reader snapshot; see ReadView. Guarded by its own latch
  /// (not mu_) so readers copy the pointer without ever waiting on
  /// writer I/O. A plain mutex rather than std::atomic<shared_ptr>:
  /// libstdc++'s _Sp_atomic unlocks its internal spinlock with a relaxed
  /// RMW, which is a formal data race (and a TSan report) between a
  /// reader's pointer load and the next store.
  mutable std::mutex view_mu_;
  std::shared_ptr<const ReadView> view_;

  /// Highest sequence number whose write group is fully applied to the
  /// memtable. Readers filter the live memtable by it so half-applied
  /// groups stay invisible and batches remain atomic.
  std::atomic<uint64_t> applied_seq_{0};
  /// A leader blocked in WaitForApplied sleeps on apply_cv_; the
  /// publisher wakes it only if apply_sleepers_ is nonzero.
  std::mutex apply_mu_;
  std::condition_variable apply_cv_;
  std::atomic<int> apply_sleepers_{0};
  std::atomic<uint64_t> apply_waits_{0};

  std::shared_ptr<MemTable> mem_;
  std::shared_ptr<MemTable> imm_;  // being flushed; null when none
  std::unique_ptr<LogWriter> wal_;
  uint64_t wal_number_ = 0;
  uint64_t imm_wal_number_ = 0;

  std::unordered_map<uint64_t, std::shared_ptr<Table>> tables_;

  /// Tables compacted out of the live version whose files cannot be
  /// unlinked yet; see CollectZombiesLocked. Guarded by mu_.
  std::unordered_map<uint64_t, std::shared_ptr<Table>> zombies_;

  std::thread flush_thread_;
  /// Wakes the flush thread: signalled only when a rotation sets imm_ and
  /// at shutdown, so writes never wake it.
  std::condition_variable flush_cv_;
  std::vector<std::thread> compaction_threads_;
  /// Wakes the compaction pool: signaled when a flush lands a new L0
  /// file, a job finishes (cascading work, claim releases), a manual
  /// compaction is requested, or at shutdown.
  std::condition_variable compaction_cv_;

  bool shutting_down_ = false;
  bool closed_ = false;
  int running_compactions_ = 0;
  bool manual_compaction_requested_ = false;
  bool manual_compaction_running_ = false;
  Status bg_error_;
  Status close_status_;

  uint64_t wal_dropped_bytes_ = 0;
  uint64_t wal_replayed_records_ = 0;
  uint64_t write_groups_ = 0;
  uint64_t grouped_writes_ = 0;
  uint64_t num_flushes_ = 0;
  uint64_t num_compactions_ = 0;
  uint64_t stall_slowdown_micros_ = 0;
  uint64_t stall_slowdown_writes_ = 0;
  uint64_t stall_stop_micros_ = 0;
  uint64_t stall_stop_writes_ = 0;
  uint64_t stall_escape_compactions_ = 0;
  /// Accumulated in WriteTables, which runs outside mu_ and concurrently
  /// across flush + compaction threads — hence atomic, unlike the
  /// counters above (all mutated under mu_).
  std::atomic<uint64_t> compaction_bytes_written_{0};
};

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_DB_H_
