#ifndef APMBENCH_COMMON_GROUP_COMMIT_H_
#define APMBENCH_COMMON_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/env.h"
#include "common/slice.h"
#include "common/status.h"

namespace apmbench {

/// Group-committed append log: many threads append framed records, one
/// leader drains everything queued and issues a single WritableFile::Append
/// plus a single Flush/Sync for the whole group. This is the classic
/// group-commit optimization (InnoDB binlog, Cassandra's batched commit
/// log): under concurrency the fsync cost is amortized across every writer
/// that queued while the previous sync was in flight.
///
/// Two usage shapes:
///  - `Append(record, sync)` — enqueue and wait until the record is
///    durable per `sync` (Flush when false, fsync when true).
///  - `Enqueue(record, sync)` then `Commit(ticket)` — engines that must
///    order log records consistently with an in-memory structure call
///    Enqueue while still holding their write lock (cheap: one buffer
///    append under this class's short internal mutex), drop the lock, and
///    Commit outside it so the I/O never blocks readers or other writers'
///    in-memory work.
///
/// Errors are sticky: once an Append/Flush/Sync fails, every subsequent
/// commit fails with the same status (the caller's engine is expected to
/// fence itself, as a torn log tail must not keep growing).
class GroupCommitLog {
 public:
  /// A ticket identifies a log prefix; committing it makes every record
  /// enqueued up to and including the ticket durable.
  using Ticket = uint64_t;

  explicit GroupCommitLog(std::unique_ptr<WritableFile> file);
  ~GroupCommitLog();

  GroupCommitLog(const GroupCommitLog&) = delete;
  GroupCommitLog& operator=(const GroupCommitLog&) = delete;

  /// Stages `record` for the next group; returns a ticket to pass to
  /// Commit. Never blocks on I/O.
  Ticket Enqueue(const Slice& record, bool sync);

  /// Blocks until every record up to `ticket` is written and flushed (or
  /// fsynced if any member of its group requested sync). One caller acts
  /// as leader and performs the I/O for the whole group.
  Status Commit(Ticket ticket);

  /// Enqueue + Commit in one call.
  Status Append(const Slice& record, bool sync);

  /// Forces an fsync of everything enqueued so far.
  Status Sync();

  /// Flushes, syncs, and closes the underlying file.
  Status Close();

  /// Bytes accepted into the log (enqueued, not necessarily durable yet).
  uint64_t Size() const;

  struct Stats {
    uint64_t appends = 0;        // records enqueued
    uint64_t groups = 0;         // leader I/O rounds
    uint64_t synced_groups = 0;  // rounds that ended in an fsync
  };
  Stats GetStats() const;

 private:
  // Requires mu_ held; drains pending_ as leader until `ticket` durable.
  Status CommitLocked(Ticket ticket, std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unique_ptr<WritableFile> file_;
  const uint64_t initial_size_;  // file size when the log was opened
  std::string pending_;        // staged records not yet written
  bool pending_sync_ = false;  // someone in pending_ wants fsync
  uint64_t enqueued_ = 0;      // total bytes ever enqueued
  uint64_t committed_ = 0;     // total bytes durable per their sync flag
  bool leader_active_ = false;
  bool closed_ = false;
  Status error_;  // sticky
  Stats stats_;
};

}  // namespace apmbench

#endif  // APMBENCH_COMMON_GROUP_COMMIT_H_
