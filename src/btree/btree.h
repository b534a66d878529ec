#ifndef APMBENCH_BTREE_BTREE_H_
#define APMBENCH_BTREE_BTREE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "btree/pager.h"
#include "common/group_commit.h"
#include "common/slice.h"
#include "common/status.h"

namespace apmbench::btree {

/// B+tree engine configuration.
struct Options {
  /// Page file path. Must be set.
  std::string path;
  Env* env = nullptr;
  size_t page_size = 4096;
  /// Buffer pool capacity (InnoDB's innodb_buffer_pool_size analogue).
  size_t buffer_pool_bytes = 32 * 1024 * 1024;
  /// When set, every mutation is appended to a binary log at this path,
  /// reproducing MySQL's binlog (the paper notes it doubles disk usage).
  std::string binlog_path;
  /// fsync the binlog on every mutation.
  bool sync_binlog = false;
};

/// Durable write-ahead statement log used by the MySQL-like store.
/// Backed by a GroupCommitLog: records enqueued by concurrent mutators
/// are written (and fsynced, with sync_binlog) by one leader per round,
/// MySQL's binlog group commit. Enqueue/Commit are split so the tree can
/// reserve log order while holding its write lock and pay the I/O after
/// releasing it.
class Binlog {
 public:
  static Status Open(Env* env, const std::string& path,
                     std::unique_ptr<Binlog>* binlog);

  Status AppendPut(const Slice& key, const Slice& value, bool sync);
  Status AppendDelete(const Slice& key, bool sync);

  /// Queues a framed record without doing I/O; cheap enough to call under
  /// the tree's write lock so binlog order matches apply order.
  GroupCommitLog::Ticket EnqueuePut(const Slice& key, const Slice& value,
                                    bool sync);
  GroupCommitLog::Ticket EnqueueDelete(const Slice& key, bool sync);
  /// Waits until the record behind `ticket` is on disk (joining or leading
  /// a group commit). Call without the tree lock held.
  Status Commit(GroupCommitLog::Ticket ticket);

  uint64_t Size() const;
  GroupCommitLog::Stats GetStats() const;

 private:
  explicit Binlog(std::unique_ptr<WritableFile> file)
      : log_(std::make_unique<GroupCommitLog>(std::move(file))) {}

  GroupCommitLog::Ticket Enqueue(uint8_t op, const Slice& key,
                                 const Slice& value, bool sync);

  std::unique_ptr<GroupCommitLog> log_;
};

/// An on-disk B+tree with a buffer pool: the storage architecture of
/// InnoDB (MySQL) and BerkeleyDB (Project Voldemort's storage engine).
/// Point reads and writes are O(height); range scans walk the leaf chain.
///
/// Durability model: pages are flushed on Checkpoint() and on close; the
/// optional binlog provides a durable mutation record as in MySQL.
/// Deletions do not rebalance (underfull pages are permitted, as in many
/// production trees that defer merging); the ordering invariants are
/// preserved.
///
/// Thread-safety: all public methods are safe to call concurrently.
/// Readers (Get/Scan/GetStats/DiskUsage) hold a shared lock and run in
/// parallel — the buffer pool has its own internal latch — while mutators
/// (Put/Delete/Checkpoint) hold the lock exclusively. Binlog I/O happens
/// after the write lock is released, with concurrent mutators' records
/// merged into one append (+ one fsync under sync_binlog) by group
/// commit. See docs/concurrency.md.
class BTree {
 public:
  struct Stats {
    uint64_t pool_hits = 0;
    uint64_t pool_misses = 0;
    uint32_t page_count = 0;
    int height = 0;
    uint64_t num_keys = 0;
    uint64_t binlog_bytes = 0;
    /// Binlog group commit: appends is records written, groups is leader
    /// rounds (== write+fsync batches). appends > groups means batching.
    uint64_t binlog_appends = 0;
    uint64_t binlog_groups = 0;
    uint64_t binlog_synced_groups = 0;
  };

  static Status Open(const Options& options, std::unique_ptr<BTree>* tree);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts or replaces `key`.
  Status Put(const Slice& key, const Slice& value);

  /// NotFound when absent.
  Status Get(const Slice& key, std::string* value);

  Status Delete(const Slice& key);

  /// Collects up to `count` records with key >= start in key order.
  Status Scan(const Slice& start, int count,
              std::vector<std::pair<std::string, std::string>>* out);

  /// Flushes all dirty pages and the metadata page.
  Status Checkpoint();

  Stats GetStats();

  /// Bytes on disk: page file plus binlog.
  Status DiskUsage(uint64_t* bytes);

 private:
  struct SplitResult {
    bool happened = false;
    std::string promoted_key;
    uint32_t right_page = 0;
  };

  explicit BTree(const Options& options);

  Status PutLocked(const Slice& key, const Slice& value);
  Status InsertRec(uint32_t page_id, const Slice& key, const Slice& value,
                   SplitResult* split);
  Status SplitLeafAndInsert(Pager::PageHandle* node_handle, const Slice& key,
                            const Slice& value, SplitResult* split);
  /// Descends to the leaf that may contain `key`.
  Status FindLeaf(const Slice& key, Pager::PageHandle* leaf);
  size_t MaxCellBytes() const;

  Options options_;
  Env* env_;
  /// Reader/writer lock over tree structure and page contents; see the
  /// class comment. PutLocked/InsertRec/FindLeaf require it held.
  std::shared_mutex mu_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<Binlog> binlog_;
  uint64_t num_keys_ = 0;
};

}  // namespace apmbench::btree

#endif  // APMBENCH_BTREE_BTREE_H_
