#ifndef APMBENCH_COMMON_GROUP_COMMIT_H_
#define APMBENCH_COMMON_GROUP_COMMIT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/env.h"
#include "common/slice.h"
#include "common/status.h"

namespace apmbench {

/// The group-commit queue shared by the LSM writer path and
/// GroupCommitLog. Threads join as members of a FIFO; the front member is
/// the leader. The leader picks its group, a prefix of the members queued
/// at that moment (Gather), does the group's work, and completes it in two
/// steps: Promote detaches the group and makes the next member the
/// leader, and Finish hands every member of the group the leader's status.
/// A leader that calls Promote before its group's work is done lets the
/// next group start while this one finishes (the LSM writer pipeline);
/// Complete does both at once, so only one group is in flight.
///
/// A waiting member spins on its own slot for up to kSpinMicros, since a
/// leader's hold is often a few µs, and only then blocks on its own
/// condition variable. It spins only if it joined a queue of at most as
/// many members (itself included) as the host has hardware threads;
/// deeper in the queue it blocks at once, so the leader and the
/// spinners never outnumber the cores. Promote wakes only the next
/// leader and Finish only the members it completes; nobody else is woken.
class CommitQueue {
 public:
  /// How long a queued member spins before it blocks.
  static constexpr int64_t kSpinMicros = 50;

  class Member {
   public:
    explicit Member(const void* arg = nullptr) : arg(arg) {}
    Member(const Member&) = delete;
    Member& operator=(const Member&) = delete;

    /// The caller's payload: what the leader needs to commit this member.
    const void* const arg;
    /// Set by the leader that completes this member.
    Status status;

   private:
    friend class CommitQueue;
    std::atomic<uint32_t> state_{0};  // kWaiting/kBlocked/kLeader/kDone
    Member* next_ = nullptr;          // guarded by CommitQueue::mu_
    std::mutex mu_;
    std::condition_variable cv_;
  };

  CommitQueue();
  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  /// Appends `m` and waits until it leads (returns true; the caller must
  /// Gather and Complete a group) or a leader completed it (returns false;
  /// `m->status` holds the group's status). A member joining an empty
  /// queue leads at once, without waiting.
  bool Join(Member* m);

  /// Leader only. Offers `take` each member queued behind `leader` right
  /// now, in order, and stops at the first one it refuses. Returns the
  /// last member of the group (`leader` itself if none was taken).
  template <typename Take>
  Member* Gather(Member* leader, Take&& take) {
    Member* back;
    {
      std::lock_guard<std::mutex> lock(mu_);
      back = tail_;
    }
    // Every link up to `back` was written before `back` was read under
    // mu_, and none changes until this group completes.
    Member* last = leader;
    while (last != back && take(last->next_)) last = last->next_;
    return last;
  }

  /// Leader only. Detaches the group `leader`..`last` from the queue and
  /// makes the next member the leader. The group's members keep waiting
  /// until Finish.
  void Promote(Member* leader, Member* last);

  /// Completes the group `leader`..`last`, already promoted past, with
  /// `status`: each member other than `leader` gets it and is woken.
  static void Finish(Member* leader, Member* last, const Status& status);

  /// Promote, then Finish.
  void Complete(Member* leader, Member* last, const Status& status) {
    Promote(leader, last);
    Finish(leader, last, status);
  }

  /// Spins until `done()` holds, for at most kSpinMicros, and only while
  /// the queue is no deeper than the host's hardware threads (the rule a
  /// joining member follows). Returns whether `done()` held. For a leader
  /// that waits on the group ahead of it before it blocks.
  template <typename Done>
  bool SpinUntil(Done&& done) const {
    if (done()) return true;  // without taking mu_ for size()
    return size() <= spin_limit_ && Spin(done);
  }

  /// Members queued now, the leader included; a promoted group's members
  /// waiting for Finish are not.
  uint64_t size() const;

  /// Members that blocked: they used up their spin, or joined too deep
  /// in the queue to spin at all.
  uint64_t blocked_waits() const {
    return blocked_waits_.load(std::memory_order_relaxed);
  }

 private:
  /// Spins (if `spin`), then blocks, until a leader completes or
  /// promotes `m`; returns the state it set.
  uint32_t Wait(Member* m, bool spin);
  static void Wake(Member* m, uint32_t state);

  /// Polls `done` with a CPU pause between tries until it holds or
  /// kSpinMicros pass; returns whether it held.
  template <typename Done>
  static bool Spin(Done&& done) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::microseconds(kSpinMicros);
    for (uint32_t i = 1;; i++) {
      if (done()) return true;
      CpuRelax();
      if (i % 64 == 0 && Clock::now() >= deadline) return done();
    }
  }
  static void CpuRelax();

  const uint64_t spin_limit_;  // hardware threads: deepest spinning member
  mutable std::mutex mu_;
  Member* tail_ = nullptr;  // newest member; null when the queue is empty
  uint64_t size_ = 0;
  std::atomic<uint64_t> blocked_waits_{0};
};

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
/// Commit and Sync join a CommitQueue. Its leader drains every staged
/// record once and completes every member queued at that moment: each of
/// them staged its record before joining, so the drain covers them all.
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
    uint64_t blocked_waits = 0;  // commits that blocked (CommitQueue)
  };
  Stats GetStats() const;

 private:
  /// What a queue member asks of the leader's round.
  struct Request {
    Ticket ticket;
    bool force_sync;  // Sync/Close: fsync even if nothing is staged
    bool close;       // Close: close the file after the round
  };

  /// Joins the queue with `request` and returns its group's status.
  Status Submit(const Request& request);

  /// The leader's I/O round: writes every staged record once, then
  /// flushes or fsyncs (fsync if `force_sync` or any record asked for
  /// it). Skipped when nothing up to `need` is outstanding and no fsync
  /// is forced.
  Status LeadRound(Ticket need, bool force_sync, bool close);

  CommitQueue queue_;
  std::unique_ptr<WritableFile> file_;  // touched only by the leader
  const uint64_t initial_size_;  // file size when the log was opened
  mutable std::mutex mu_;  // guards everything below, never held over I/O
  std::string pending_;        // staged records not yet written
  bool pending_sync_ = false;  // someone in pending_ wants fsync
  uint64_t enqueued_ = 0;      // total bytes ever enqueued
  uint64_t committed_ = 0;     // total bytes durable per their sync flag
  bool closed_ = false;
  Status error_;  // sticky
  Stats stats_;
};

}  // namespace apmbench

#endif  // APMBENCH_COMMON_GROUP_COMMIT_H_
