// Deterministic tests for the parallel compaction pipeline: the
// flush/compaction thread split, input-claim disjointness, write
// admission control (slowdown/stop triggers), and the zombie-table GC
// that keeps compacted files on disk while snapshot iterators still read
// them.
//
// Scheduling is made deterministic with a gating Env that blocks the
// first Append of selected SSTable creations (counted in creation
// order): the test decides exactly which flush or compaction output
// stalls, then observes the scheduler state through DB::Stats.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "lsm/db.h"
#include "lsm/version.h"
#include "tests/test_util.h"

namespace apmbench {
namespace {

using lsm::CompactionStyle;
using testutil::ScopedTempDir;
using testutil::TableGateEnv;

// ---------------------------------------------------------------------------
// Test scaffolding

/// Polls `cond` until it holds or ~10s pass (generous for sanitizers).
bool WaitFor(const std::function<bool()>& cond) {
  for (int i = 0; i < 100000; i++) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return cond();
}

std::string Key(const std::string& prefix, int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%s%06d", prefix.c_str(), i);
  return buf;
}

std::string Value(int i, int width = 50) {
  char buf[16];
  snprintf(buf, sizeof(buf), "v%06d-", i);
  std::string v = buf;
  v.append(width > static_cast<int>(v.size())
               ? static_cast<size_t>(width) - v.size()
               : 0,
           'x');
  return v;
}

lsm::Options BaseOptions(const std::string& dir, Env* env) {
  lsm::Options options;
  options.dir = dir;
  options.env = env;
  // Individual tests drive flushes and compactions explicitly; disable
  // admission control by default so only the test under scrutiny stalls.
  options.level0_slowdown_trigger = 0;
  options.level0_stop_trigger = 0;
  return options;
}

void PutRange(lsm::DB* db, const std::string& prefix, int begin, int end,
              int value_width = 50) {
  for (int i = begin; i < end; i++) {
    ASSERT_TRUE(db->Put(Key(prefix, i), Value(i, value_width)).ok());
  }
}

void ExpectRange(lsm::DB* db, const std::string& prefix, int begin, int end,
                 int value_width = 50) {
  for (int i = begin; i < end; i++) {
    std::string value;
    Status s = db->Get(lsm::ReadOptions(), Key(prefix, i), &value);
    ASSERT_TRUE(s.ok()) << "missing " << Key(prefix, i) << ": "
                        << s.ToString();
    EXPECT_EQ(value, Value(i, value_width));
  }
}

// ---------------------------------------------------------------------------
// Claim bookkeeping (VersionSet unit level)

lsm::FileMeta MakeFile(uint64_t number, const std::string& smallest,
                       const std::string& largest) {
  lsm::FileMeta meta;
  meta.number = number;
  meta.file_size = 1024;
  meta.smallest = smallest;
  meta.largest = largest;
  return meta;
}

TEST(CompactionClaimTest, ClaimReleaseLifecycle) {
  ScopedTempDir dir("claims");
  lsm::Options options;
  options.dir = dir.path();
  lsm::VersionSet versions(options, Env::Default());

  std::vector<lsm::FileMeta> a = {MakeFile(1, "a", "c"), MakeFile(2, "d", "f")};
  std::vector<lsm::FileMeta> b = {MakeFile(3, "g", "i")};
  EXPECT_FALSE(versions.AnyClaimed(a));
  EXPECT_EQ(versions.NumClaimed(), 0u);

  versions.ClaimFiles(a);
  EXPECT_TRUE(versions.IsClaimed(1));
  EXPECT_TRUE(versions.IsClaimed(2));
  EXPECT_FALSE(versions.IsClaimed(3));
  EXPECT_TRUE(versions.AnyClaimed(a));
  EXPECT_FALSE(versions.AnyClaimed(b));
  EXPECT_EQ(versions.NumClaimed(), 2u);

  versions.ClaimFiles(b);
  EXPECT_EQ(versions.NumClaimed(), 3u);

  versions.ReleaseFiles(a);
  EXPECT_FALSE(versions.IsClaimed(1));
  EXPECT_TRUE(versions.IsClaimed(3));
  EXPECT_EQ(versions.NumClaimed(), 1u);
  versions.ReleaseFiles(b);
  EXPECT_EQ(versions.NumClaimed(), 0u);
}

TEST(CompactionClaimTest, CompactPointerRoundRobin) {
  ScopedTempDir dir("pointer");
  lsm::Options options;
  options.dir = dir.path();
  lsm::VersionSet versions(options, Env::Default());
  EXPECT_TRUE(versions.CompactPointer(1).empty());
  versions.SetCompactPointer(1, "m");
  EXPECT_EQ(versions.CompactPointer(1), "m");
  EXPECT_TRUE(versions.CompactPointer(2).empty());
}

// ---------------------------------------------------------------------------
// Scheduler: flush independence and disjoint concurrent jobs

TEST(CompactionSchedulerTest, SlowCompactionDoesNotBlockFlush) {
  ScopedTempDir dir("flushfree");
  TableGateEnv env(Env::Default());
  lsm::Options options = BaseOptions(dir.path(), &env);
  options.compaction_style = CompactionStyle::kLeveled;
  options.level0_compaction_trigger = 4;
  options.compaction_threads = 1;

  // Four explicit flushes create SSTables 0..3; the L0 compaction they
  // trigger writes table 4 — gate exactly that one.
  env.GateCreation(4);
  env.gate()->Close();

  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());
  for (int t = 0; t < 4; t++) {
    PutRange(db.get(), "k", t * 10, (t + 1) * 10);
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(WaitFor([&] { return env.gate()->blocked() == 1; }))
      << "compaction output never reached the gate";

  // The compaction thread is stuck mid-merge; a flush must still finish
  // because it runs on its own dedicated thread.
  PutRange(db.get(), "k", 40, 50);
  ASSERT_TRUE(db->Flush().ok());
  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.num_flushes, 5u);
  EXPECT_EQ(stats.running_compactions, 1u);
  EXPECT_GT(stats.claimed_files, 0u);

  env.gate()->Open();
  ASSERT_TRUE(WaitFor([&] {
    lsm::DB::Stats s = db->GetStats();
    return s.num_compactions >= 1 && s.running_compactions == 0;
  }));
  ExpectRange(db.get(), "k", 0, 50);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  ASSERT_TRUE(db->Close().ok());
}

TEST(CompactionSchedulerTest, ConcurrentJobsClaimDisjointInputs) {
  ScopedTempDir dir("twojobs");
  TableGateEnv env(Env::Default());
  lsm::Options options = BaseOptions(dir.path(), &env);
  options.compaction_style = CompactionStyle::kSizeTiered;
  options.size_tiered_min_files = 4;
  options.compaction_threads = 2;

  // Build two size classes: three small tables (creations 0..2), then
  // four large ones (creations 3..6). The large bucket becomes eligible
  // first and its merge output is creation 7; a fourth small table
  // (creation 8) then makes the small bucket eligible while the first
  // job is still running, so its output is creation 9. Gate both
  // outputs to hold the two jobs in flight simultaneously.
  env.GateCreation(7);
  env.GateCreation(9);
  env.gate()->Close();

  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());
  for (int t = 0; t < 3; t++) {
    PutRange(db.get(), "s", t * 5, (t + 1) * 5, /*value_width=*/30);
    ASSERT_TRUE(db->Flush().ok());
  }
  for (int t = 0; t < 4; t++) {
    PutRange(db.get(), "l", t * 300, (t + 1) * 300, /*value_width=*/100);
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(WaitFor([&] { return env.gate()->blocked() == 1; }))
      << "large-bucket compaction never started";

  PutRange(db.get(), "s", 15, 20, /*value_width=*/30);
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(WaitFor([&] { return env.gate()->blocked() == 2; }))
      << "small-bucket compaction never ran concurrently";

  // Two jobs in flight at once, and between them they claimed all eight
  // input tables — with no overlap, or the second pick would have been
  // refused and we would never see blocked() == 2.
  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.running_compactions, 2u);
  EXPECT_EQ(stats.claimed_files, 8u);

  env.gate()->Open();
  ASSERT_TRUE(WaitFor([&] {
    lsm::DB::Stats s = db->GetStats();
    return s.num_compactions >= 2 && s.running_compactions == 0;
  }));
  stats = db->GetStats();
  EXPECT_EQ(stats.claimed_files, 0u);
  ASSERT_FALSE(stats.files_per_level.empty());
  EXPECT_EQ(stats.files_per_level[0], 2);  // each bucket merged into one run
  ExpectRange(db.get(), "s", 0, 20, /*value_width=*/30);
  ExpectRange(db.get(), "l", 0, 1200, /*value_width=*/100);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  ASSERT_TRUE(db->Close().ok());
}

// ---------------------------------------------------------------------------
// Admission control

TEST(AdmissionControlTest, SlowdownTriggerFiresAtExactCount) {
  ScopedTempDir dir("slowdown");
  lsm::Options options = BaseOptions(dir.path(), Env::Default());
  options.compaction_style = CompactionStyle::kLeveled;
  options.level0_compaction_trigger = 100;  // no auto compaction
  options.level0_slowdown_trigger = 2;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  ASSERT_TRUE(db->Put(Key("k", 0), Value(0)).ok());
  ASSERT_TRUE(db->Flush().ok());  // L0 = 1, below the trigger
  ASSERT_TRUE(db->Put(Key("k", 1), Value(1)).ok());
  EXPECT_EQ(db->GetStats().stall_slowdown_writes, 0u);

  ASSERT_TRUE(db->Flush().ok());  // L0 = 2 == trigger
  ASSERT_TRUE(db->Put(Key("k", 2), Value(2)).ok());
  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.stall_slowdown_writes, 1u);
  EXPECT_GT(stats.stall_slowdown_micros, 0u);

  // Every write group above the trigger pays the one-time delay.
  ASSERT_TRUE(db->Put(Key("k", 3), Value(3)).ok());
  EXPECT_EQ(db->GetStats().stall_slowdown_writes, 2u);
  EXPECT_EQ(db->GetStats().stall_stop_writes, 0u);
  ASSERT_TRUE(db->Close().ok());
}

TEST(AdmissionControlTest, StopTriggerBoundsL0AndUnblocksAfterCompaction) {
  ScopedTempDir dir("stop");
  TableGateEnv env(Env::Default());
  lsm::Options options = BaseOptions(dir.path(), &env);
  options.compaction_style = CompactionStyle::kLeveled;
  options.level0_compaction_trigger = 3;
  options.level0_stop_trigger = 3;
  options.memtable_bytes = 4 * 1024;
  options.compaction_threads = 1;

  // Creations 0..2 are the setup flushes; the compaction they trigger
  // writes creation 3 — gate it so L0 stays at the stop trigger.
  env.GateCreation(3);
  env.gate()->Close();

  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());
  for (int t = 0; t < 3; t++) {
    PutRange(db.get(), "k", t * 10, (t + 1) * 10);
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(WaitFor([&] { return env.gate()->blocked() == 1; }));

  // A writer filling the memtable must hit the stop trigger: rotation is
  // refused while L0 sits at the limit, so the thread blocks instead of
  // creating a fourth L0 file.
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(db->Put(Key("w", i), Value(i)).ok());
    }
    writer_done.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return db->GetStats().stall_stop_writes >= 1; }))
      << "writer never hit the stop trigger";
  lsm::DB::Stats stats = db->GetStats();
  EXPECT_FALSE(writer_done.load());
  ASSERT_FALSE(stats.files_per_level.empty());
  EXPECT_EQ(stats.files_per_level[0], 3);  // L0 bounded at the trigger

  env.gate()->Open();
  writer.join();
  EXPECT_TRUE(writer_done.load());
  stats = db->GetStats();
  EXPECT_GE(stats.num_compactions, 1u);
  EXPECT_GT(stats.stall_stop_micros, 0u);
  ExpectRange(db.get(), "k", 0, 30);
  ExpectRange(db.get(), "w", 0, 200);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  ASSERT_TRUE(db->Close().ok());
}

// ---------------------------------------------------------------------------
// Zombie tables: compacted-away files must outlive open iterators

TEST(ZombieTableTest, OpenIteratorSurvivesCompactionOfItsTables) {
  ScopedTempDir dir("zombie");
  lsm::Options options = BaseOptions(dir.path(), Env::Default());
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  PutRange(db.get(), "k", 0, 100);
  ASSERT_TRUE(db->Flush().ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db->Delete(Key("k", i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // Pin the current tables with a snapshot iterator, then compact them
  // all away. The files must stay on disk (as zombies) until the
  // iterator lets go.
  std::unique_ptr<lsm::Iterator> iter =
      db->NewSnapshotIterator(lsm::ReadOptions());
  ASSERT_TRUE(db->CompactAll().ok());
  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.zombie_tables, 2u);

  int seen = 0;
  std::string last_key;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    std::string key = iter->key().ToString();
    if (!last_key.empty()) {
      EXPECT_GT(key, last_key);
    }
    last_key = key;
    seen++;
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(seen, 80);  // deletes visible, compacted data still readable

  iter.reset();
  ASSERT_TRUE(db->Flush().ok());  // deterministic GC point
  EXPECT_EQ(db->GetStats().zombie_tables, 0u);
  ExpectRange(db.get(), "k", 20, 100);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace apmbench
