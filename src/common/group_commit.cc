#include "common/group_commit.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace apmbench {

namespace {

// A member's slot. kBlocked is set only by the member itself, under its
// own mutex, after the spin runs out; a leader that finds it there wakes
// the member through that mutex and condition variable.
constexpr uint32_t kWaiting = 0;
constexpr uint32_t kBlocked = 1;
constexpr uint32_t kLeader = 2;
constexpr uint32_t kDone = 3;

}  // namespace

void CommitQueue::CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

CommitQueue::CommitQueue()
    : spin_limit_(std::max(1u, std::thread::hardware_concurrency())) {}

bool CommitQueue::Join(Member* m) {
  bool spin;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_++;
    if (tail_ == nullptr) {
      tail_ = m;
      return true;
    }
    tail_->next_ = m;
    tail_ = m;
    // With more members queued than the host has hardware threads, a
    // spinning member would take a core from the leader it waits for.
    spin = size_ <= spin_limit_;
  }
  return Wait(m, spin) == kLeader;
}

uint32_t CommitQueue::Wait(Member* m, bool spin) {
  uint32_t state = kWaiting;
  if (spin && Spin([&] {
        state = m->state_.load(std::memory_order_acquire);
        return state != kWaiting;
      })) {
    return state;
  }
  std::unique_lock<std::mutex> lock(m->mu_);
  state = kWaiting;
  if (!m->state_.compare_exchange_strong(state, kBlocked,
                                         std::memory_order_acq_rel)) {
    return state;  // the leader got here first
  }
  blocked_waits_.fetch_add(1, std::memory_order_relaxed);
  while ((state = m->state_.load(std::memory_order_acquire)) == kBlocked) {
    m->cv_.wait(lock);
  }
  return state;
}

void CommitQueue::Wake(Member* m, uint32_t state) {
  // A member still spinning sees the new state and may return (and
  // destroy `m`) at once, so nothing touches `m` after a successful CAS.
  uint32_t expected = kWaiting;
  if (m->state_.compare_exchange_strong(expected, state,
                                        std::memory_order_acq_rel)) {
    return;
  }
  // Blocked: it reads the state only under its mutex, so it cannot
  // return before this unlock.
  std::lock_guard<std::mutex> lock(m->mu_);
  m->state_.store(state, std::memory_order_release);
  m->cv_.notify_one();
}

void CommitQueue::Promote(Member* leader, Member* last) {
  uint64_t members = 1;
  for (Member* m = leader; m != last; m = m->next_) members++;
  Member* next_leader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_leader = last->next_;
    if (next_leader == nullptr) tail_ = nullptr;
    size_ -= members;
  }
  if (next_leader != nullptr) Wake(next_leader, kLeader);
}

void CommitQueue::Finish(Member* leader, Member* last, const Status& status) {
  // The group's links were written before it was gathered, and Promote
  // detached it, so they no longer change; never read `last->next_`,
  // which belongs to the next group.
  if (leader == last) return;
  Member* m = leader->next_;
  for (;;) {
    // Read the link first: a woken member may be gone right away.
    Member* after = m == last ? nullptr : m->next_;
    m->status = status;
    Wake(m, kDone);
    if (after == nullptr) break;
    m = after;
  }
}

uint64_t CommitQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

GroupCommitLog::GroupCommitLog(std::unique_ptr<WritableFile> file)
    : file_(std::move(file)), initial_size_(file_->Size()) {}

GroupCommitLog::~GroupCommitLog() {
  if (!closed_) {
    Status s = Close();  // best effort; errors already sticky in error_
    (void)s;
  }
}

GroupCommitLog::Ticket GroupCommitLog::Enqueue(const Slice& record,
                                               bool sync) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.append(record.data(), record.size());
  enqueued_ += record.size();
  pending_sync_ |= sync;
  stats_.appends++;
  return enqueued_;
}

Status GroupCommitLog::Commit(Ticket ticket) {
  return Submit(Request{ticket, /*force_sync=*/false, /*close=*/false});
}

Status GroupCommitLog::Append(const Slice& record, bool sync) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::IOError("group-commit log closed");
    if (!error_.ok()) return error_;
  }
  return Commit(Enqueue(record, sync));
}

Status GroupCommitLog::Sync() {
  // Earlier non-sync appends may only have reached the OS page cache, so
  // this fsyncs even when nothing is staged.
  return Submit(Request{0, /*force_sync=*/true, /*close=*/false});
}

Status GroupCommitLog::Close() {
  return Submit(Request{0, /*force_sync=*/true, /*close=*/true});
}

Status GroupCommitLog::Submit(const Request& request) {
  CommitQueue::Member self(&request);
  if (!queue_.Join(&self)) return self.status;
  // Leader. A Close leads a group of its own, so every member completed
  // with it is committed before the file closes.
  Ticket need = request.ticket;
  bool force_sync = request.force_sync;
  CommitQueue::Member* last = &self;
  if (!request.close) {
    last = queue_.Gather(&self, [&](CommitQueue::Member* m) {
      const auto* r = static_cast<const Request*>(m->arg);
      if (r->close) return false;
      need = std::max(need, r->ticket);
      force_sync |= r->force_sync;
      return true;
    });
  }
  Status s = LeadRound(need, force_sync, request.close);
  queue_.Complete(&self, last, s);
  return s;
}

Status GroupCommitLog::LeadRound(Ticket need, bool force_sync, bool close) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!force_sync && committed_ >= need) return Status::OK();
  if (closed_) return Status::IOError("group-commit log closed");
  // Every member of the group staged its record before it joined the
  // queue, and the group was gathered before this drain, so the drain
  // covers every ticket in it.
  Status s = error_;
  const bool write = s.ok();
  std::string batch;
  bool sync = false;
  uint64_t batch_end = 0;
  if (write) {
    batch = std::move(pending_);
    pending_.clear();
    sync = pending_sync_ || force_sync;
    pending_sync_ = false;
    batch_end = enqueued_;
  }
  lock.unlock();

  if (write) {
    if (!batch.empty()) s = file_->Append(Slice(batch));
    if (s.ok()) s = sync ? file_->Sync() : file_->Flush();
  }
  if (close) {
    Status close_status = file_->Close();
    if (s.ok()) s = close_status;
  }

  lock.lock();
  if (write) {
    stats_.groups++;
    if (sync) stats_.synced_groups++;
  }
  if (s.ok()) {
    committed_ = batch_end;
  } else if (error_.ok()) {
    error_ = s;
  }
  if (close) closed_ = true;
  return s;
}

uint64_t GroupCommitLog::Size() const {
  // Never touches file_: the group leader appends to it with mu_ released,
  // and a batch in flight is neither in pending_ nor in the file's size.
  std::lock_guard<std::mutex> lock(mu_);
  return initial_size_ + enqueued_;
}

GroupCommitLog::Stats GroupCommitLog::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.blocked_waits = queue_.blocked_waits();
  return stats;
}

}  // namespace apmbench
