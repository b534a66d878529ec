#include "common/group_commit.h"

#include <utility>

namespace apmbench {

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
  std::unique_lock<std::mutex> lock(mu_);
  return CommitLocked(ticket, lock);
}

Status GroupCommitLog::CommitLocked(Ticket ticket,
                                    std::unique_lock<std::mutex>& lock) {
  for (;;) {
    if (committed_ >= ticket) return Status::OK();
    if (!error_.ok()) return error_;
    if (closed_) return Status::IOError("group-commit log closed");
    if (leader_active_) {
      // Another thread is doing I/O; by the time it finishes it will have
      // drained everything enqueued before it dropped the mutex — possibly
      // including this ticket. Re-check on wakeup.
      cv_.wait(lock);
      continue;
    }
    // Leader: drain everything staged so far (our record plus whatever
    // piled up behind the previous group) into one write + one flush/sync.
    leader_active_ = true;
    std::string batch = std::move(pending_);
    pending_.clear();
    const bool sync = pending_sync_;
    pending_sync_ = false;
    const uint64_t batch_end = enqueued_;
    lock.unlock();

    Status s;
    if (!batch.empty()) s = file_->Append(Slice(batch));
    if (s.ok()) s = sync ? file_->Sync() : file_->Flush();

    lock.lock();
    leader_active_ = false;
    stats_.groups++;
    if (sync) stats_.synced_groups++;
    if (s.ok()) {
      committed_ = batch_end;
    } else if (error_.ok()) {
      error_ = s;
    }
    cv_.notify_all();
  }
}

Status GroupCommitLog::Append(const Slice& record, bool sync) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return Status::IOError("group-commit log closed");
  if (!error_.ok()) return error_;
  pending_.append(record.data(), record.size());
  enqueued_ += record.size();
  pending_sync_ |= sync;
  stats_.appends++;
  return CommitLocked(enqueued_, lock);
}

Status GroupCommitLog::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (closed_) return Status::IOError("group-commit log closed");
    if (!error_.ok()) return error_;
    if (leader_active_) {
      cv_.wait(lock);
      continue;
    }
    // Lead a forced sync round: drain whatever is staged and fsync even if
    // nothing was pending (earlier non-sync appends may only have reached
    // the OS page cache).
    leader_active_ = true;
    std::string batch = std::move(pending_);
    pending_.clear();
    pending_sync_ = false;
    const uint64_t batch_end = enqueued_;
    lock.unlock();

    Status s;
    if (!batch.empty()) s = file_->Append(Slice(batch));
    if (s.ok()) s = file_->Sync();

    lock.lock();
    leader_active_ = false;
    stats_.groups++;
    stats_.synced_groups++;
    if (s.ok()) {
      committed_ = batch_end;
    } else if (error_.ok()) {
      error_ = s;
    }
    cv_.notify_all();
    return s;
  }
}

Status GroupCommitLog::Close() {
  Status s = Sync();
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return s;
  closed_ = true;
  Status close_status = file_->Close();
  if (s.ok()) s = close_status;
  if (!s.ok() && error_.ok()) error_ = s;
  cv_.notify_all();
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
  return stats_;
}

}  // namespace apmbench
