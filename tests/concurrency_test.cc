// Concurrency tests for the four engines and the shared group-commit
// machinery: model-checked N-writers + M-readers/scanners workloads per
// engine, plus deterministic group-commit batching tests (queued writers
// must share one WAL/log sync). Run under TSan/ASan via
// -DAPMBENCH_SANITIZE=thread|address (see docs/concurrency.md).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/env.h"
#include "common/fanout.h"
#include "common/fault_env.h"
#include "common/group_commit.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "hashkv/hashkv.h"
#include "lsm/db.h"
#include "stores/factory.h"
#include "stores/store_options.h"
#include "tests/test_util.h"
#include "volt/volt.h"

namespace apmbench {
namespace {

// --- Gated-sync fixtures -------------------------------------------------
//
// A WritableFile / Env pair whose Sync blocks while a gate is closed.
// Holding one writer's fsync open while more writers enqueue makes
// group-commit batching deterministic even on a single-core host.

class SyncGate {
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

  /// Blocks the caller while the gate is closed.
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    blocked_++;
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

/// In-memory WritableFile that counts syncs and blocks them on `gate`.
class GatedMemFile final : public WritableFile {
 public:
  explicit GatedMemFile(SyncGate* gate) : gate_(gate) {}

  Status Append(const Slice& data) override {
    if (fail_appends_.load()) return Status::IOError("injected append fault");
    std::lock_guard<std::mutex> lock(mu_);
    contents_ += data.ToString();
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override {
    gate_->Pass();
    syncs_.fetch_add(1);
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  uint64_t Size() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return contents_.size();
  }

  std::string contents() const {
    std::lock_guard<std::mutex> lock(mu_);
    return contents_;
  }
  uint64_t syncs() const { return syncs_.load(); }
  void set_fail_appends(bool fail) { fail_appends_.store(fail); }

 private:
  SyncGate* gate_;
  mutable std::mutex mu_;
  std::string contents_;
  std::atomic<uint64_t> syncs_{0};
  std::atomic<bool> fail_appends_{false};
};

/// Env wrapper that routes WritableFile syncs through a gate. Composes
/// with FaultInjectionEnv (which is final) rather than inheriting from
/// it, so tests can stack gating on top of the fault env's op counters.
class GatedSyncEnv final : public Env {
 public:
  explicit GatedSyncEnv(Env* base) : base_(base) {}

  SyncGate* gate() { return &gate_; }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    APM_RETURN_IF_ERROR(base_->NewWritableFile(path, file));
    *file = std::make_unique<GatedFile>(&gate_, std::move(*file));
    return Status::OK();
  }
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<WritableFile>* file) override {
    APM_RETURN_IF_ERROR(base_->NewAppendableFile(path, file));
    *file = std::make_unique<GatedFile>(&gate_, std::move(*file));
    return Status::OK();
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
    GatedFile(SyncGate* gate, std::unique_ptr<WritableFile> base)
        : gate_(gate), base_(std::move(base)) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      gate_->Pass();
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }
    uint64_t Size() const override { return base_->Size(); }

   private:
    SyncGate* gate_;
    std::unique_ptr<WritableFile> base_;
  };

  Env* base_;
  SyncGate gate_;
};

/// Polls `cond` (with a yield) until it holds or ~5s pass.
void WaitFor(const std::function<bool()>& cond) {
  for (int i = 0; i < 50000 && !cond(); i++) {
    std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(cond());
}

// --- CommitQueue ---------------------------------------------------------

// Model check of the shared queue: 8 threads join 2000 times each, and
// every leader takes a group of random size. Every member must complete
// exactly once, each thread's members in the order it joined them, with
// the status its group's leader chose.
TEST(CommitQueueTest, MembersCompleteOnceInFifoOrderWithGroupStatus) {
  constexpr int kThreads = 8;
  constexpr int kJoinsPerThread = 2000;
  struct Entry {
    int thread;
    int index;
    std::atomic<int> completions{0};
    uint64_t group = 0;  // written by the leader that gathers it
  };
  auto group_status = [](uint64_t group) {
    return group % 3 == 0 ? Status::IOError("group " + std::to_string(group))
                          : Status::OK();
  };

  CommitQueue queue;
  std::vector<std::vector<std::unique_ptr<Entry>>> entries(kThreads);
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kJoinsPerThread; i++) {
      entries[t].push_back(std::make_unique<Entry>());
      entries[t].back()->thread = t;
      entries[t].back()->index = i;
    }
  }
  // Only the leader of the moment touches these: one group at a time.
  std::vector<const Entry*> order;
  uint64_t groups = 0;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(t + 1);
      for (int i = 0; i < kJoinsPerThread; i++) {
        Entry* entry = entries[t][i].get();
        CommitQueue::Member self(entry);
        if (!queue.Join(&self)) {
          if (self.status.ToString() !=
              group_status(entry->group).ToString()) {
            failed.store(true);
          }
          continue;
        }
        const uint64_t group = ++groups;
        entry->group = group;
        entry->completions.fetch_add(1);
        order.push_back(entry);
        uint64_t room = rng.Uniform(6);  // 0..5 more members
        CommitQueue::Member* last =
            queue.Gather(&self, [&](CommitQueue::Member* m) {
              if (room == 0) return false;
              room--;
              auto* member = static_cast<Entry*>(const_cast<void*>(m->arg));
              member->group = group;
              member->completions.fetch_add(1);
              order.push_back(member);
              return true;
            });
        if (rng.Uniform(4) == 0) std::this_thread::yield();
        queue.Complete(&self, last, group_status(group));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(failed.load()) << "a member got another group's status";
  EXPECT_EQ(queue.size(), 0u);
  ASSERT_EQ(order.size(), size_t{kThreads} * kJoinsPerThread);
  std::vector<int> next_index(kThreads, 0);
  for (const Entry* entry : order) {
    ASSERT_EQ(entry->completions.load(), 1)
        << "thread " << entry->thread << " member " << entry->index;
    ASSERT_EQ(entry->index, next_index[entry->thread])
        << "thread " << entry->thread << " completed out of order";
    next_index[entry->thread]++;
  }
}

// Promote hands the queue to the next member while the promoted-past
// group still waits: that member leads (and here even completes its own
// group) before the earlier group's members return, and they return
// only from Finish, with Finish's status.
TEST(CommitQueueTest, PromotedMemberLeadsWhileGroupAwaitsFinish) {
  CommitQueue queue;
  CommitQueue::Member a, b, c;
  ASSERT_TRUE(queue.Join(&a));  // an empty queue: leads at once
  std::atomic<int> b_returns{0};
  bool b_led = true;
  std::thread tb([&] {
    b_led = queue.Join(&b);
    b_returns.fetch_add(1);
  });
  WaitFor([&] { return queue.size() == 2; });
  std::atomic<bool> c_done{false};
  bool c_led = false;
  std::thread tc([&] {
    c_led = queue.Join(&c);
    if (c_led) queue.Complete(&c, &c, Status::OK());
    c_done.store(true);
  });
  WaitFor([&] { return queue.size() == 3; });

  CommitQueue::Member* last =
      queue.Gather(&a, [&](CommitQueue::Member* m) { return m == &b; });
  ASSERT_EQ(last, &b);
  queue.Promote(&a, last);
  WaitFor([&] { return c_done.load(); });
  tc.join();
  EXPECT_TRUE(c_led);
  EXPECT_EQ(queue.size(), 0u);
  // Past the spin, so b is blocked, not merely not yet scheduled.
  std::this_thread::sleep_for(
      std::chrono::microseconds(20 * CommitQueue::kSpinMicros));
  EXPECT_EQ(b_returns.load(), 0) << "a promoted-past member returned";

  CommitQueue::Finish(&a, last, Status::IOError("group a"));
  tb.join();
  EXPECT_EQ(b_returns.load(), 1);
  EXPECT_FALSE(b_led);
  EXPECT_TRUE(b.status.IsIOError());
  EXPECT_EQ(b.status.message(), "group a");
}

// The model check above with Promote and Finish apart: each leader
// promotes the next one, then (sometimes after a yield) finishes its
// group with a status chosen only after the promotion. Every member
// completes exactly once, after its leader marked it finished, with that
// status.
TEST(CommitQueueTest, PipelinedGroupsCompleteOnceWithFinishStatus) {
  constexpr int kThreads = 8;
  constexpr int kJoinsPerThread = 2000;
  struct Entry {
    std::atomic<int> completions{0};
    std::atomic<bool> finished{false};  // set by its leader before Finish
    uint64_t group = 0;                 // written by the leader
  };
  auto finish_status = [](uint64_t group) {
    return group % 3 == 0 ? Status::IOError("group " + std::to_string(group))
                          : Status::OK();
  };

  CommitQueue queue;
  std::vector<std::vector<std::unique_ptr<Entry>>> entries(kThreads);
  for (auto& thread_entries : entries) {
    for (int i = 0; i < kJoinsPerThread; i++) {
      thread_entries.push_back(std::make_unique<Entry>());
    }
  }
  uint64_t groups = 0;  // touched only by the leader, before Promote
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(t + 1);
      std::vector<Entry*> group_members;
      for (int i = 0; i < kJoinsPerThread; i++) {
        Entry* entry = entries[t][i].get();
        CommitQueue::Member self(entry);
        if (!queue.Join(&self)) {
          if (!entry->finished.load() ||
              self.status.ToString() !=
                  finish_status(entry->group).ToString()) {
            failed.store(true);
          }
          continue;
        }
        const uint64_t group = ++groups;
        entry->group = group;
        entry->completions.fetch_add(1);
        group_members.clear();
        uint64_t room = rng.Uniform(6);  // 0..5 more members
        CommitQueue::Member* last =
            queue.Gather(&self, [&](CommitQueue::Member* m) {
              if (room == 0) return false;
              room--;
              auto* member = static_cast<Entry*>(const_cast<void*>(m->arg));
              member->group = group;
              member->completions.fetch_add(1);
              group_members.push_back(member);
              return true;
            });
        queue.Promote(&self, last);
        if (rng.Uniform(4) == 0) std::this_thread::yield();
        for (Entry* member : group_members) member->finished.store(true);
        CommitQueue::Finish(&self, last, finish_status(group));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(failed.load())
      << "a member returned before Finish or with another status";
  EXPECT_EQ(queue.size(), 0u);
  for (const auto& thread_entries : entries) {
    for (const auto& entry : thread_entries) {
      ASSERT_EQ(entry->completions.load(), 1);
    }
  }
}

// --- GroupCommitLog ------------------------------------------------------

TEST(GroupCommitLogTest, AppendsRecordsInOrder) {
  SyncGate gate;
  auto owned = std::make_unique<GatedMemFile>(&gate);
  GatedMemFile* file = owned.get();
  GroupCommitLog log(std::move(owned));

  ASSERT_TRUE(log.Append("aaa", false).ok());
  ASSERT_TRUE(log.Append("bb", true).ok());
  EXPECT_EQ(file->contents(), "aaabb");
  EXPECT_EQ(log.Size(), 5u);
  GroupCommitLog::Stats stats = log.GetStats();
  EXPECT_EQ(stats.appends, 2u);
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.synced_groups, 1u);
  EXPECT_TRUE(log.Close().ok());
}

// The core group-commit guarantee: writers that enqueue while the leader
// is stuck in an fsync are all written — and synced — by the next
// leader's single I/O round.
TEST(GroupCommitLogTest, QueuedAppendsShareOneSync) {
  SyncGate gate;
  auto owned = std::make_unique<GatedMemFile>(&gate);
  GatedMemFile* file = owned.get();
  GroupCommitLog log(std::move(owned));

  gate.Close();
  std::thread leader([&] { ASSERT_TRUE(log.Append("a", true).ok()); });
  // The leader has appended and is blocked in Sync.
  WaitFor([&] { return gate.blocked() == 1; });

  // Both followers stage their records in turn (appends counts enqueues;
  // the log's mutex is free while the leader syncs), so the shared round
  // writes them in a known order.
  std::thread follower_b([&] { ASSERT_TRUE(log.Append("b", true).ok()); });
  WaitFor([&] { return log.GetStats().appends == 2; });
  std::thread follower_c([&] { ASSERT_TRUE(log.Append("c", true).ok()); });
  WaitFor([&] { return log.GetStats().appends == 3; });

  gate.Open();
  leader.join();
  follower_b.join();
  follower_c.join();

  GroupCommitLog::Stats stats = log.GetStats();
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_EQ(stats.groups, 2u);         // leader's round + one shared round
  EXPECT_EQ(stats.synced_groups, 2u);  // three sync appends, two fsyncs
  EXPECT_EQ(file->syncs(), 2u);
  EXPECT_EQ(file->contents(), "abc");
  EXPECT_TRUE(log.Close().ok());
}

// A failed round fails every member of its group, and the error sticks:
// later appends, commits and syncs fail too. The two followers queue
// and block behind a leader held in its fsync, so they share the next
// round — the one that fails.
TEST(GroupCommitLogTest, FailedRoundFailsItsWholeGroupAndLaterCommits) {
  SyncGate gate;
  auto owned = std::make_unique<GatedMemFile>(&gate);
  GatedMemFile* file = owned.get();
  GroupCommitLog log(std::move(owned));

  gate.Close();
  std::thread leader([&] { EXPECT_TRUE(log.Append("a", true).ok()); });
  WaitFor([&] { return gate.blocked() == 1; });
  Status status_b, status_c;
  std::thread follower_b([&] { status_b = log.Append("b", true); });
  std::thread follower_c([&] { status_c = log.Append("c", true); });
  WaitFor([&] { return log.GetStats().blocked_waits == 2; });

  file->set_fail_appends(true);
  gate.Open();
  leader.join();
  follower_b.join();
  follower_c.join();
  EXPECT_TRUE(status_b.IsIOError()) << status_b.ToString();
  EXPECT_EQ(status_c.ToString(), status_b.ToString());
  GroupCommitLog::Stats stats = log.GetStats();
  EXPECT_EQ(stats.groups, 2u);  // the leader's round + the failed one

  file->set_fail_appends(false);
  EXPECT_EQ(log.Append("d", false).ToString(), status_b.ToString());
  EXPECT_EQ(log.Commit(log.Enqueue("e", false)).ToString(),
            status_b.ToString());
  EXPECT_EQ(log.Sync().ToString(), status_b.ToString());
  EXPECT_EQ(file->contents(), "a");
}

TEST(GroupCommitLogTest, AppendFailureIsSticky) {
  SyncGate gate;
  auto owned = std::make_unique<GatedMemFile>(&gate);
  GatedMemFile* file = owned.get();
  GroupCommitLog log(std::move(owned));

  file->set_fail_appends(true);
  EXPECT_FALSE(log.Append("a", false).ok());
  file->set_fail_appends(false);
  // A failed group poisons the log: later appends must not silently
  // succeed past a hole in the record stream.
  EXPECT_FALSE(log.Append("b", false).ok());
  EXPECT_EQ(file->contents(), "");
}

// Engines poll Size() while writers run (GetStats, DiskUsage). It must not
// read the file the group leader appends to with the mutex released, and
// it must count a batch that is in flight: the reported size never moves
// backwards and ends at exactly the bytes appended.
TEST(GroupCommitLogTest, SizeIsSafeToPollDuringAppends) {
  testutil::ScopedTempDir dir("conc-gc-size");
  const std::string path = dir.path() + "/log";
  const std::string header = "header";
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, header).ok());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(Env::Default()->NewAppendableFile(path, &file).ok());
  GroupCommitLog log(std::move(file));

  constexpr int kWriters = 4;
  constexpr int kAppendsPerWriter = 500;
  const std::string record(37, 'r');
  std::atomic<bool> done{false};
  std::atomic<bool> went_backwards{false};
  std::thread poller([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t size = log.Size();
      if (size < last) went_backwards.store(true);
      last = size;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&] {
      for (int i = 0; i < kAppendsPerWriter; i++) {
        ASSERT_TRUE(log.Append(record, false).ok());
      }
    });
  }
  for (auto& writer : writers) writer.join();
  done.store(true, std::memory_order_release);
  poller.join();

  const uint64_t expected =
      header.size() + uint64_t{kWriters} * kAppendsPerWriter * record.size();
  EXPECT_FALSE(went_backwards.load());
  EXPECT_EQ(log.Size(), expected);
  ASSERT_TRUE(log.Close().ok());
  uint64_t on_disk = 0;
  ASSERT_TRUE(Env::Default()->GetFileSize(path, &on_disk).ok());
  EXPECT_EQ(on_disk, expected);
}

// --- LSM writer queue ----------------------------------------------------

// Writers queued behind a leader blocked in the WAL fsync must be merged
// into one group: one WAL append, one fsync, counted by both the DB's
// writer-queue stats and the fault env's sync counter.
TEST(LsmConcurrencyTest, QueuedWritersShareOneWalSync) {
  testutil::ScopedTempDir dir("conc-lsm-gc");
  FaultInjectionEnv fault(Env::Default());
  GatedSyncEnv env(&fault);

  lsm::Options options;
  options.dir = dir.path();
  options.env = &env;
  options.sync_writes = true;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  const uint64_t syncs_before = fault.OpCount(FaultOp::kSync);
  env.gate()->Close();
  std::thread leader([&] { ASSERT_TRUE(db->Put("k1", "v1").ok()); });
  WaitFor([&] { return env.gate()->blocked() == 1; });

  std::thread follower_b([&] { ASSERT_TRUE(db->Put("k2", "v2").ok()); });
  std::thread follower_c([&] { ASSERT_TRUE(db->Put("k3", "v3").ok()); });
  // pending_writers includes the in-flight leader; wait for both
  // followers to be queued behind it.
  WaitFor([&] { return db->GetStats().pending_writers >= 3; });
  // Held behind the gated fsync, both block.
  WaitFor([&] { return db->GetStats().writer_blocks == 2; });

  env.gate()->Open();
  leader.join();
  follower_b.join();
  follower_c.join();

  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.grouped_writes, 3u);
  EXPECT_EQ(stats.write_groups, 2u);
  EXPECT_EQ(stats.writer_blocks, 2u);
  EXPECT_EQ(fault.OpCount(FaultOp::kSync) - syncs_before, 2u);

  for (const char* key : {"k1", "k2", "k3"}) {
    std::string value;
    EXPECT_TRUE(db->Get(lsm::ReadOptions(), key, &value).ok()) << key;
  }
}

// A lone writer always finds the queue empty: it leads every write and
// never waits for a hand-off.
TEST(LsmConcurrencyTest, SingleWriterNeverBlocks) {
  testutil::ScopedTempDir dir("conc-lsm-single");
  lsm::Options options;
  options.dir = dir.path();
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), "value").ok());
  }
  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.write_groups, 1000u);
  EXPECT_EQ(stats.writer_blocks, 0u);
  EXPECT_EQ(stats.pending_writers, 0u);
}

/// Runs `writers` threads that each put up to `max_puts` distinct keys,
/// stopping at the first failed put. Each acknowledged key lands in
/// `acked`, each writer's first failure (OK if none) in `failures`.
void RunAckedWriters(lsm::DB* db, int writers, int max_puts,
                     std::atomic<int>* puts,
                     std::vector<std::vector<std::string>>* acked,
                     std::vector<Status>* failures) {
  acked->assign(writers, {});
  failures->assign(writers, Status::OK());
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < max_puts; i++) {
        char key_buf[32];
        snprintf(key_buf, sizeof(key_buf), "acked%02d.%08d", w, i);
        const std::string key = key_buf;
        Status s = db->Put(key, "v:" + key);
        if (!s.ok()) {
          (*failures)[w] = s;
          return;
        }
        (*acked)[w].push_back(key);
        puts->fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

// Close races writers in the queue: each Put either is acknowledged or
// fails with "db closed", and every acknowledged key survives the clean
// shutdown (docs/durability.md).
TEST(LsmConcurrencyTest, CloseWhileWritersQueue) {
  testutil::ScopedTempDir dir("conc-lsm-close");
  lsm::Options options;
  options.dir = dir.path();
  options.memtable_bytes = 64 * 1024;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  std::atomic<int> puts{0};
  std::vector<std::vector<std::string>> acked;
  std::vector<Status> failures;
  std::thread closer([&] {
    WaitFor([&] { return puts.load() >= 2000; });
    EXPECT_TRUE(db->Close().ok());
  });
  // No writer can reach its last put before the close: each fails first.
  RunAckedWriters(db.get(), 4, 1 << 30, &puts, &acked, &failures);
  closer.join();
  for (const Status& s : failures) {
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_EQ(s.message(), "db closed");
  }

  db.reset();
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());
  for (const auto& keys : acked) {
    for (const std::string& key : keys) {
      std::string value;
      ASSERT_TRUE(db->Get(lsm::ReadOptions(), key, &value).ok()) << key;
      ASSERT_EQ(value, "v:" + key);
    }
  }
}

// Flush leads the writer queue to rotate, racing writers that rotate the
// tiny memtable themselves: no acknowledged key may be lost and the
// tables must stay well formed.
TEST(LsmConcurrencyTest, FlushWhileWritersQueue) {
  testutil::ScopedTempDir dir("conc-lsm-flush");
  lsm::Options options;
  options.dir = dir.path();
  options.memtable_bytes = 4 * 1024;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  std::atomic<int> puts{0};
  std::vector<std::vector<std::string>> acked;
  std::vector<Status> failures;
  std::atomic<bool> writers_done{false};
  int flushes = 0;
  std::thread flusher([&] {
    while (!writers_done.load()) {
      EXPECT_TRUE(db->Flush().ok());
      flushes++;
    }
  });
  RunAckedWriters(db.get(), 4, 1500, &puts, &acked, &failures);
  writers_done.store(true);
  flusher.join();
  for (const Status& s : failures) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(flushes, 0);
  EXPECT_EQ(puts.load(), 4 * 1500);
  ASSERT_TRUE(db->VerifyIntegrity().ok());

  db.reset();
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());
  for (const auto& keys : acked) {
    for (const std::string& key : keys) {
      std::string value;
      ASSERT_TRUE(db->Get(lsm::ReadOptions(), key, &value).ok()) << key;
      ASSERT_EQ(value, "v:" + key);
    }
  }
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

// Pipelined write groups under 2, 4 and 8 writers, with a 64 KiB
// memtable so that rotations and Flush race a group still inserting into
// the memtable. A writer's puts are acknowledged in order, so any reader
// must see a prefix of them: never write k+1 without write k. Every
// acknowledged key survives Close and reopen.
TEST(LsmConcurrencyTest, PipelinedGroupsKeepEachWritersPrefixVisible) {
  constexpr int kTotalPuts = 12000;
  auto key_of = [](int writer, int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "pipe%02d.%08d", writer, i);
    return std::string(buf);
  };
  auto writer_limit = [](int writer) {
    char buf[32];
    snprintf(buf, sizeof(buf), "pipe%02d/", writer);  // '/' follows '.'
    return std::string(buf);
  };
  for (int writers : {2, 4, 8}) {
    SCOPED_TRACE(std::to_string(writers) + " writers");
    testutil::ScopedTempDir dir("conc-lsm-pipe");
    lsm::Options options;
    options.dir = dir.path();
    options.memtable_bytes = 64 * 1024;
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

    const int puts_per_writer = kTotalPuts / writers;
    std::atomic<int> writers_left{writers};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; w++) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < puts_per_writer && !failed.load(); i++) {
          const std::string key = key_of(w, i);
          Status s = db->Put(key, "v:" + key);
          if (!s.ok()) {
            ADD_FAILURE() << "put " << key << ": " << s.ToString();
            failed.store(true);
          }
        }
        writers_left.fetch_sub(1);
      });
    }
    int flushes = 0;
    threads.emplace_back([&] {
      while (writers_left.load() > 0 && !failed.load()) {
        Status s = db->Flush();
        if (!s.ok()) {
          ADD_FAILURE() << "flush: " << s.ToString();
          failed.store(true);
        }
        flushes++;
      }
    });
    for (int r = 0; r < 2; r++) {
      threads.emplace_back([&, r] {
        Random rng(300 + r);
        while (writers_left.load() > 0 && !failed.load()) {
          const int w = static_cast<int>(rng.Uniform(writers));
          const int k =
              static_cast<int>(rng.Uniform(puts_per_writer - 1));
          std::string value;
          // Point reads: k+1 first, then k, which must be visible too.
          if (db->Get(lsm::ReadOptions(), key_of(w, k + 1), &value).ok() &&
              !db->Get(lsm::ReadOptions(), key_of(w, k), &value).ok()) {
            ADD_FAILURE() << "saw " << key_of(w, k + 1) << " without "
                          << key_of(w, k);
            failed.store(true);
          }
          // A scan is one snapshot: its rows from k on are contiguous.
          std::vector<std::pair<std::string, std::string>> rows;
          Status s = db->Scan(lsm::ReadOptions(), key_of(w, k),
                              writer_limit(w), 32, &rows);
          if (!s.ok()) {
            ADD_FAILURE() << "scan: " << s.ToString();
            failed.store(true);
          }
          for (size_t i = 0; i < rows.size(); i++) {
            const std::string expected = key_of(w, k + static_cast<int>(i));
            if (rows[i].first != expected ||
                rows[i].second != "v:" + expected) {
              ADD_FAILURE() << "scan from " << key_of(w, k) << " row " << i
                            << " is " << rows[i].first;
              failed.store(true);
              break;
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    ASSERT_FALSE(failed.load());
    EXPECT_GT(flushes, 0);
    lsm::DB::Stats stats = db->GetStats();
    EXPECT_EQ(stats.grouped_writes,
              static_cast<uint64_t>(writers) * puts_per_writer);
    EXPECT_GT(stats.num_flushes, 1u);

    ASSERT_TRUE(db->Close().ok());
    db.reset();
    ASSERT_TRUE(lsm::DB::Open(options, &db).ok());
    for (int w = 0; w < writers; w++) {
      for (int i = 0; i < puts_per_writer; i++) {
        const std::string key = key_of(w, i);
        std::string value;
        ASSERT_TRUE(db->Get(lsm::ReadOptions(), key, &value).ok()) << key;
        ASSERT_EQ(value, "v:" + key);
      }
    }
    EXPECT_TRUE(db->VerifyIntegrity().ok());
  }
}

// A WAL append fails while write groups pipeline: the failed group's
// members get the error and the engine fences itself, so every later
// write fails with the same status even once the device recovers.
// Nothing of a failed write becomes readable, no waiter on the previous
// group hangs, and Flush and Close return.
TEST(LsmConcurrencyTest, WalAppendFailureFencesPipelinedWriters) {
  testutil::ScopedTempDir dir("conc-lsm-walfail");
  FaultInjectionEnv fault(Env::Default());
  lsm::Options options;
  options.dir = dir.path();
  options.env = &fault;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  // Two appends per WAL record (frame header, payload): an odd count
  // fails a payload after its header landed, leaving a torn tail.
  fault.FailAfter(FaultOp::kAppend, 401);
  std::atomic<int> puts{0};
  std::vector<std::vector<std::string>> acked;
  std::vector<Status> failures;
  RunAckedWriters(db.get(), 4, 1 << 30, &puts, &acked, &failures);
  EXPECT_GT(puts.load(), 0);
  for (const Status& s : failures) {
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_EQ(s.message(), "fault_env: injected fault");
  }

  // The device works again; the fence (bg_error_) must still hold.
  fault.ClearAllFaults();
  Status s = db->Put("after", "v");
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(s.message(), "fault_env: injected fault");
  EXPECT_FALSE(db->Flush().ok());

  auto check_contents = [&] {
    std::string value;
    for (int w = 0; w < 4; w++) {
      for (const std::string& key : acked[w]) {
        ASSERT_TRUE(db->Get(lsm::ReadOptions(), key, &value).ok()) << key;
        ASSERT_EQ(value, "v:" + key);
      }
      // The write each writer saw fail.
      char key[32];
      snprintf(key, sizeof(key), "acked%02d.%08d", w,
               static_cast<int>(acked[w].size()));
      EXPECT_TRUE(db->Get(lsm::ReadOptions(), key, &value).IsNotFound())
          << key;
    }
    EXPECT_TRUE(db->Get(lsm::ReadOptions(), "after", &value).IsNotFound());
  };
  check_contents();
  // Close waits for no group that never published; the device works, so
  // its WAL sync and close succeed.
  EXPECT_TRUE(db->Close().ok());

  db.reset();
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());
  check_contents();
}

// --- Cross-engine model checks -------------------------------------------
//
// Each engine runs kWriters writer threads over disjoint key ranges while
// readers and scanners run concurrently. Values are a pure function of
// the key, so every read or scan result is checkable mid-flight: a key is
// either absent or carries exactly its expected value, and scans must
// return sorted, well-formed records. After the writers join, the full
// key set is verified against the model.

constexpr int kWriters = 4;
constexpr int kReaders = 2;
constexpr int kScanners = 1;
constexpr int kKeysPerWriter = 300;

std::string ModelKey(int writer, int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%02d.%06d", writer, i);
  return buf;
}

std::string ModelValue(const std::string& key) { return "v:" + key; }

struct EngineOps {
  std::function<Status(const std::string&, const std::string&)> put;
  std::function<Status(const std::string&, std::string*)> get;
  std::function<Status(const std::string&, int,
                       std::vector<std::pair<std::string, std::string>>*)>
      scan;
};

void RunModelCheck(const EngineOps& ops) {
  std::atomic<int> writers_left{kWriters};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; i++) {
        std::string key = ModelKey(w, i);
        Status s = ops.put(key, ModelValue(key));
        if (!s.ok()) {
          ADD_FAILURE() << "put " << key << ": " << s.ToString();
          failed.store(true);
          break;
        }
      }
      writers_left.fetch_sub(1);
    });
  }

  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      Random rng(100 + r);
      while (writers_left.load() > 0 && !failed.load()) {
        std::string key =
            ModelKey(static_cast<int>(rng.Uniform(kWriters)),
                     static_cast<int>(rng.Uniform(kKeysPerWriter)));
        std::string value;
        Status s = ops.get(key, &value);
        if (s.ok() && value != ModelValue(key)) {
          ADD_FAILURE() << "get " << key << " returned '" << value << "'";
          failed.store(true);
        } else if (!s.ok() && !s.IsNotFound()) {
          ADD_FAILURE() << "get " << key << ": " << s.ToString();
          failed.store(true);
        }
      }
    });
  }

  for (int sc = 0; sc < kScanners; sc++) {
    threads.emplace_back([&, sc] {
      Random rng(200 + sc);
      while (writers_left.load() > 0 && !failed.load()) {
        std::string start =
            ModelKey(static_cast<int>(rng.Uniform(kWriters)),
                     static_cast<int>(rng.Uniform(kKeysPerWriter)));
        std::vector<std::pair<std::string, std::string>> out;
        Status s = ops.scan(start, 20, &out);
        if (!s.ok()) {
          if (s.IsNotSupported()) return;
          ADD_FAILURE() << "scan " << start << ": " << s.ToString();
          failed.store(true);
          break;
        }
        for (size_t i = 0; i < out.size(); i++) {
          if (i > 0 && out[i - 1].first >= out[i].first) {
            ADD_FAILURE() << "scan out of order at " << out[i].first;
            failed.store(true);
          }
          if (out[i].second != ModelValue(out[i].first)) {
            ADD_FAILURE() << "scan saw torn value for " << out[i].first;
            failed.store(true);
          }
        }
      }
    });
  }

  for (auto& thread : threads) thread.join();

  // Final state must match the model exactly.
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kKeysPerWriter; i++) {
      std::string key = ModelKey(w, i);
      std::string value;
      Status s = ops.get(key, &value);
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      ASSERT_EQ(value, ModelValue(key));
    }
  }
}

TEST(LsmConcurrencyTest, WritersReadersScannersModelCheck) {
  testutil::ScopedTempDir dir("conc-lsm");
  lsm::Options options;
  options.dir = dir.path();
  options.memtable_bytes = 16 * 1024;  // force flushes mid-run
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  EngineOps ops;
  ops.put = [&](const std::string& k, const std::string& v) {
    return db->Put(k, v);
  };
  ops.get = [&](const std::string& k, std::string* v) {
    return db->Get(lsm::ReadOptions(), k, v);
  };
  ops.scan = [&](const std::string& start, int count, auto* out) {
    return db->Scan(lsm::ReadOptions(), start, count, out);
  };
  RunModelCheck(ops);

  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.grouped_writes, uint64_t{kWriters} * kKeysPerWriter);
  EXPECT_GE(stats.write_groups, 1u);
}

// Group atomicity model check: each writer repeatedly commits an 8-row
// batch, all rows carrying the batch's version number. Because a group's
// sequence is published only after the leader has applied every row, no
// reader — point Get or snapshot scan — may ever observe rows from the
// same batch at different versions, even while group commits and
// memtable rotation race underneath.
TEST(LsmConcurrencyTest, BatchAtomicityUnderSnapshots) {
  testutil::ScopedTempDir dir("conc-lsm-atomic");
  lsm::Options options;
  options.dir = dir.path();
  options.memtable_bytes = 32 * 1024;  // rotate memtables mid-run
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  constexpr int kBatchWriters = 4;
  constexpr int kRowsPerBatch = 8;
  constexpr int kVersions = 150;
  auto row_key = [](int writer, int row) {
    return "batch" + std::to_string(writer) + ".row" + std::to_string(row);
  };

  std::atomic<int> writers_left{kBatchWriters};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kBatchWriters; w++) {
    threads.emplace_back([&, w] {
      for (int v = 1; v <= kVersions && !failed.load(); v++) {
        lsm::WriteBatch batch;
        for (int r = 0; r < kRowsPerBatch; r++) {
          batch.Put(row_key(w, r), std::to_string(v));
        }
        Status s = db->Write(batch);
        if (!s.ok()) {
          ADD_FAILURE() << "write: " << s.ToString();
          failed.store(true);
        }
      }
      writers_left.fetch_sub(1);
    });
  }

  // Snapshot scanners: one frozen view must show every row of a writer's
  // batch at one single version.
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint32_t>(7 + t));
      while (writers_left.load() > 0 && !failed.load()) {
        const int w = static_cast<int>(rng.Uniform(kBatchWriters));
        const std::string prefix = "batch" + std::to_string(w) + ".";
        auto iter = db->NewSnapshotIterator(lsm::ReadOptions());
        iter->Seek(prefix);
        std::string version;
        int rows = 0;
        while (iter->Valid() && iter->key().StartsWith(prefix)) {
          if (rows == 0) {
            version = iter->value().ToString();
          } else if (iter->value().ToString() != version) {
            ADD_FAILURE() << "torn batch for writer " << w << ": row "
                          << iter->key().ToString() << " at version "
                          << iter->value().ToString() << " vs " << version;
            failed.store(true);
            break;
          }
          rows++;
          iter->Next();
        }
        if (rows != 0 && rows != kRowsPerBatch && !failed.load()) {
          ADD_FAILURE() << "snapshot saw " << rows << " of " << kRowsPerBatch
                        << " rows for writer " << w;
          failed.store(true);
        }
      }
    });
  }

  // Point readers race the apply path on individual rows.
  threads.emplace_back([&] {
    Random rng(99);
    while (writers_left.load() > 0 && !failed.load()) {
      const int w = static_cast<int>(rng.Uniform(kBatchWriters));
      const int r = static_cast<int>(rng.Uniform(kRowsPerBatch));
      std::string value;
      Status s = db->Get(lsm::ReadOptions(), row_key(w, r), &value);
      if (!s.ok() && !s.IsNotFound()) {
        ADD_FAILURE() << "get: " << s.ToString();
        failed.store(true);
      }
    }
  });

  for (auto& thread : threads) thread.join();

  for (int w = 0; w < kBatchWriters; w++) {
    for (int r = 0; r < kRowsPerBatch; r++) {
      std::string value;
      ASSERT_TRUE(db->Get(lsm::ReadOptions(), row_key(w, r), &value).ok());
      EXPECT_EQ(value, std::to_string(kVersions));
    }
  }
}

TEST(BtreeConcurrencyTest, WritersReadersScannersModelCheck) {
  testutil::ScopedTempDir dir("conc-btree");
  btree::Options options;
  options.path = dir.path() + "/tree.db";
  options.binlog_path = dir.path() + "/binlog";
  options.buffer_pool_bytes = 256 * 1024;  // force pool eviction mid-run
  std::unique_ptr<btree::BTree> tree;
  ASSERT_TRUE(btree::BTree::Open(options, &tree).ok());

  EngineOps ops;
  ops.put = [&](const std::string& k, const std::string& v) {
    return tree->Put(k, v);
  };
  ops.get = [&](const std::string& k, std::string* v) {
    return tree->Get(k, v);
  };
  ops.scan = [&](const std::string& start, int count, auto* out) {
    return tree->Scan(start, count, out);
  };
  RunModelCheck(ops);

  btree::BTree::Stats stats = tree->GetStats();
  EXPECT_EQ(stats.binlog_appends, uint64_t{kWriters} * kKeysPerWriter);
  EXPECT_GE(stats.binlog_groups, 1u);
  EXPECT_LE(stats.binlog_groups, stats.binlog_appends);
}

TEST(HashKvConcurrencyTest, WritersReadersScannersModelCheck) {
  testutil::ScopedTempDir dir("conc-hashkv");
  hashkv::Options options;
  options.aof_path = dir.path() + "/kv.aof";
  options.initial_buckets = 4;  // force incremental rehash mid-run
  std::unique_ptr<hashkv::HashKV> kv;
  ASSERT_TRUE(hashkv::HashKV::Open(options, &kv).ok());

  EngineOps ops;
  ops.put = [&](const std::string& k, const std::string& v) {
    return kv->Set(k, v);
  };
  ops.get = [&](const std::string& k, std::string* v) {
    return kv->Get(k, v);
  };
  ops.scan = [&](const std::string& start, int count, auto* out) {
    return kv->Scan(start, count, out);
  };
  RunModelCheck(ops);

  hashkv::HashKV::Stats stats = kv->GetStats();
  EXPECT_EQ(stats.aof_appends, uint64_t{kWriters} * kKeysPerWriter);
  EXPECT_GE(stats.aof_groups, 1u);
  EXPECT_LE(stats.aof_groups, stats.aof_appends);
}

TEST(VoltConcurrencyTest, WritersReadersScannersModelCheck) {
  testutil::ScopedTempDir dir("conc-volt");
  volt::Options options;
  options.sites_per_host = 4;
  options.command_log_path = dir.path() + "/command.log";
  volt::VoltEngine engine(options);

  EngineOps ops;
  ops.put = [&](const std::string& k, const std::string& v) {
    return engine.Put(k, v);
  };
  ops.get = [&](const std::string& k, std::string* v) {
    return engine.Get(k, v);
  };
  ops.scan = [&](const std::string& start, int count, auto* out) {
    return engine.Scan(start, count, out);
  };
  RunModelCheck(ops);
}

// --- Fan-out executor ----------------------------------------------------

TEST(FanoutExecutorTest, RunsEveryTaskEvenWithNoWorkers) {
  FanoutExecutor fanout(0);  // caller-only execution
  std::atomic<int> ran{0};
  std::vector<FanoutExecutor::Task> tasks;
  for (int i = 0; i < 8; i++) {
    tasks.push_back([&ran]() {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(fanout.RunAll(std::move(tasks)).ok());
  EXPECT_EQ(ran.load(), 8);
}

TEST(FanoutExecutorTest, ReturnsFirstFailureInTaskOrder) {
  FanoutExecutor fanout(3);
  std::vector<FanoutExecutor::Task> tasks;
  tasks.push_back([]() { return Status::OK(); });
  tasks.push_back([]() { return Status::Corruption("task 1 failed"); });
  tasks.push_back([]() { return Status::IOError("task 2 failed"); });
  Status s = fanout.RunAll(std::move(tasks));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(FanoutExecutorTest, ConcurrentBatchesFromManyCallers) {
  FanoutExecutor fanout(2);
  constexpr int kCallers = 6;
  constexpr int kRounds = 50;
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; c++) {
    callers.emplace_back([&]() {
      for (int r = 0; r < kRounds; r++) {
        std::vector<FanoutExecutor::Task> tasks;
        for (int i = 0; i < 4; i++) {
          tasks.push_back([&total]() {
            total.fetch_add(1);
            return Status::OK();
          });
        }
        ASSERT_TRUE(fanout.RunAll(std::move(tasks)).ok());
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kRounds * 4);
}

// --- Concurrent cross-shard scans ---------------------------------------
//
// Every store whose ScanKeyed fans out to multiple nodes (Redis client
// sharding, Cassandra random partitioning, HBase region waves) runs the
// same check: over a static preloaded key set, concurrent scanners from
// many threads must each see the exact globally-ordered window, while
// the k-way merge and the fan-out executor are hammered in parallel.
class StoreFanoutScanTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StoreFanoutScanTest, ConcurrentScansSeeOrderedWindows) {
  testutil::ScopedTempDir dir("fanout-" + GetParam());
  stores::StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 4;
  options.memtable_bytes = 64 * 1024;
  options.buffer_pool_bytes = 1 * 1024 * 1024;
  std::unique_ptr<ycsb::DB> db;
  ASSERT_TRUE(stores::CreateStore(GetParam(), options, &db).ok());

  constexpr int kKeys = 300;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "user%06d", i * 7);
    keys.push_back(buf);
    ycsb::Record record;
    record.emplace_back("field0", "value-" + std::to_string(i));
    ASSERT_TRUE(db->Insert("usertable", keys.back(), record).ok());
  }

  constexpr int kScanners = 4;
  constexpr int kScansPerThread = 40;
  std::vector<std::thread> scanners;
  for (int t = 0; t < kScanners; t++) {
    scanners.emplace_back([&, t]() {
      Random rng(static_cast<uint32_t>(100 + t));
      for (int i = 0; i < kScansPerThread; i++) {
        size_t from = rng.Uniform(kKeys);
        int count = 1 + static_cast<int>(rng.Uniform(40));
        std::vector<ycsb::KeyedRecord> got;
        Status s = db->ScanKeyed("usertable", keys[from], count, &got);
        ASSERT_TRUE(s.ok()) << s.ToString();
        size_t expect =
            std::min(static_cast<size_t>(count), keys.size() - from);
        ASSERT_EQ(got.size(), expect) << "start=" << keys[from];
        for (size_t j = 0; j < got.size(); j++) {
          EXPECT_EQ(got[j].key, keys[from + j]);
        }
      }
    });
  }
  for (auto& t : scanners) t.join();
}

INSTANTIATE_TEST_SUITE_P(Stores, StoreFanoutScanTest,
                         ::testing::Values("redis", "cassandra", "hbase"));

}  // namespace
}  // namespace apmbench
