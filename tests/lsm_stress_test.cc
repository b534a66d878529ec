// Randomized stress / model-check suite for the LSM engine's concurrent
// write path: N writer threads (puts, deletes, atomic pair batches) run
// against disjoint key ranges while readers and snapshot scanners race
// them and the background flush thread + compaction pool churn
// continuously (tiny memtable, low compaction triggers, admission
// control enabled). Each writer keeps a reference map of what it wrote;
// at the end the DB must agree with the merged model exactly — before
// and after a reopen. Scanners additionally check two snapshot
// invariants on every pass: keys are strictly ordered, and pair keys
// written by one WriteBatch are visible atomically (both or neither,
// with equal versions).
//
// The binary has its own main() so CI can bound it: --fast shrinks the
// op counts for sanitizer runs, --seed=N reseeds the generators for
// reproduction.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "lsm/db.h"

namespace apmbench {
namespace {

bool g_fast = false;
uint32_t g_seed = 20120831;  // VLDB'12 vintage

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    char buf[256];
    snprintf(buf, sizeof(buf), "/tmp/apmbench-%s-XXXXXX", tag.c_str());
    char* result = mkdtemp(buf);
    path_ = result != nullptr ? result : "/tmp/apmbench-stress-fallback";
  }
  ~ScopedTempDir() { Env::Default()->RemoveDirRecursively(path_); }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr int kNumWriters = 4;
constexpr int kNumReaders = 2;
constexpr int kKeysPerWriter = 64;
constexpr int kPairsPerWriter = 16;

int OpsPerWriter() { return g_fast ? 400 : 3000; }

std::string PlainKey(int writer, int slot) {
  char buf[32];
  snprintf(buf, sizeof(buf), "w%d.k%04d", writer, slot);
  return buf;
}

std::string PairBase(int writer, int pair) {
  char buf[32];
  snprintf(buf, sizeof(buf), "w%d.p%04d", writer, pair);
  return buf;
}

std::string PlainValue(const std::string& key, int op) {
  char buf[96];
  snprintf(buf, sizeof(buf), "v:%s:%06d", key.c_str(), op);
  return buf;
}

std::string PairValue(const std::string& base, int version) {
  char buf[96];
  snprintf(buf, sizeof(buf), "p:%s:%06d", base.c_str(), version);
  return buf;
}

/// Everything one writer thread did, for the final model comparison.
struct WriterModel {
  std::map<std::string, std::string> live;  // expected present keys
  std::set<std::string> touched;            // every key ever written
};

void WriterThread(lsm::DB* db, int id, uint32_t seed, WriterModel* model,
                  std::atomic<bool>* failed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<int> slot_dist(0, kKeysPerWriter - 1);
  std::uniform_int_distribution<int> pair_dist(0, kPairsPerWriter - 1);
  const int ops = OpsPerWriter();
  for (int op = 0; op < ops && !failed->load(); op++) {
    int dice = op_dist(rng);
    Status s;
    if (dice < 50) {
      // Put one key.
      std::string key = PlainKey(id, slot_dist(rng));
      std::string value = PlainValue(key, op);
      s = db->Put(key, value);
      if (s.ok()) {
        model->live[key] = value;
        model->touched.insert(key);
      }
    } else if (dice < 70) {
      // Delete one key (possibly never written — still a valid op).
      std::string key = PlainKey(id, slot_dist(rng));
      s = db->Delete(key);
      if (s.ok()) {
        model->live.erase(key);
        model->touched.insert(key);
      }
    } else {
      // Atomic pair batch: both halves carry the same version and are
      // written (or deleted) in one WriteBatch, so no reader snapshot
      // may ever observe them out of step.
      std::string base = PairBase(id, pair_dist(rng));
      std::string a = base + ".a";
      std::string b = base + ".b";
      lsm::WriteBatch batch;
      if (dice < 95) {
        std::string value = PairValue(base, op);
        batch.Put(a, value);
        batch.Put(b, value);
        s = db->Write(batch);
        if (s.ok()) {
          model->live[a] = value;
          model->live[b] = value;
        }
      } else {
        batch.Delete(a);
        batch.Delete(b);
        s = db->Write(batch);
        if (s.ok()) {
          model->live.erase(a);
          model->live.erase(b);
        }
      }
      model->touched.insert(a);
      model->touched.insert(b);
    }
    if (!s.ok()) {
      ADD_FAILURE() << "writer " << id << " op " << op
                    << " failed: " << s.ToString();
      failed->store(true);
      return;
    }
  }
}

/// Readers race the writers with point lookups; any value returned must
/// be well-formed and bound to the key it was read under.
void ReaderThread(lsm::DB* db, uint32_t seed, std::atomic<bool>* stop,
                  std::atomic<bool>* failed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> writer_dist(0, kNumWriters - 1);
  std::uniform_int_distribution<int> slot_dist(0, kKeysPerWriter - 1);
  std::uniform_int_distribution<int> pair_dist(0, kPairsPerWriter - 1);
  std::uniform_int_distribution<int> kind_dist(0, 2);
  while (!stop->load() && !failed->load()) {
    int w = writer_dist(rng);
    std::string key;
    std::string expected_prefix;
    int kind = kind_dist(rng);
    if (kind == 0) {
      key = PlainKey(w, slot_dist(rng));
      expected_prefix = "v:" + key + ":";
    } else {
      std::string base = PairBase(w, pair_dist(rng));
      key = base + (kind == 1 ? ".a" : ".b");
      expected_prefix = "p:" + base + ":";
    }
    std::string value;
    Status s = db->Get(lsm::ReadOptions(), key, &value);
    if (s.ok()) {
      if (value.compare(0, expected_prefix.size(), expected_prefix) != 0) {
        ADD_FAILURE() << "malformed value for " << key << ": " << value;
        failed->store(true);
      }
    } else if (!s.IsNotFound()) {
      ADD_FAILURE() << "Get(" << key << ") failed: " << s.ToString();
      failed->store(true);
    }
  }
}

/// One full pass over a snapshot iterator, checking strict key ordering
/// and pair atomicity. Returns false (and reports) on violation.
bool CheckSnapshot(lsm::DB* db) {
  std::unique_ptr<lsm::Iterator> iter =
      db->NewSnapshotIterator(lsm::ReadOptions());
  std::string last_key;
  // base -> (version of .a, version of .b)
  std::map<std::string, std::pair<std::string, std::string>> pairs;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    std::string key = iter->key().ToString();
    if (!last_key.empty() && key <= last_key) {
      ADD_FAILURE() << "snapshot order violation: " << last_key
                    << " then " << key;
      return false;
    }
    last_key = key;
    std::string value = iter->value().ToString();
    size_t n = key.size();
    if (n > 2 && key.compare(n - 2, 2, ".a") == 0) {
      pairs[key.substr(0, n - 2)].first = value;
    } else if (n > 2 && key.compare(n - 2, 2, ".b") == 0) {
      pairs[key.substr(0, n - 2)].second = value;
    }
  }
  if (!iter->status().ok()) {
    ADD_FAILURE() << "snapshot iteration failed: "
                  << iter->status().ToString();
    return false;
  }
  for (const auto& [base, versions] : pairs) {
    if (versions.first != versions.second) {
      ADD_FAILURE() << "pair atomicity violation for " << base << ": a=\""
                    << versions.first << "\" b=\"" << versions.second << "\"";
      return false;
    }
  }
  return true;
}

void ScannerThread(lsm::DB* db, std::atomic<bool>* stop,
                   std::atomic<bool>* failed) {
  while (!stop->load() && !failed->load()) {
    if (!CheckSnapshot(db)) {
      failed->store(true);
      return;
    }
  }
}

/// Verifies the DB agrees with the merged writer models: every live key
/// has its newest value, every deleted/never-written key is NotFound,
/// and a full snapshot scan contains exactly the live set.
void VerifyAgainstModel(lsm::DB* db,
                        const std::vector<WriterModel>& models) {
  std::map<std::string, std::string> live;
  size_t touched = 0;
  for (const auto& model : models) {
    live.insert(model.live.begin(), model.live.end());
    touched += model.touched.size();
    for (const auto& key : model.touched) {
      std::string value;
      Status s = db->Get(lsm::ReadOptions(), key, &value);
      auto it = model.live.find(key);
      if (it != model.live.end()) {
        ASSERT_TRUE(s.ok()) << "missing live key " << key << ": "
                            << s.ToString();
        EXPECT_EQ(value, it->second) << "stale value for " << key;
      } else {
        EXPECT_TRUE(s.IsNotFound())
            << "deleted key " << key << " resurrected (" << s.ToString()
            << ", value \"" << value << "\")";
      }
    }
  }
  ASSERT_GT(touched, 0u);

  std::unique_ptr<lsm::Iterator> iter =
      db->NewSnapshotIterator(lsm::ReadOptions());
  size_t scanned = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    std::string key = iter->key().ToString();
    auto it = live.find(key);
    ASSERT_TRUE(it != live.end()) << "scan surfaced unexpected key " << key;
    EXPECT_EQ(iter->value().ToString(), it->second);
    scanned++;
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(scanned, live.size());
}

void RunStress(lsm::Options options, const std::string& tag) {
  ScopedTempDir dir(tag);
  options.dir = dir.path();
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  std::vector<WriterModel> models(kNumWriters);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  for (int i = 0; i < kNumWriters; i++) {
    writers.emplace_back(WriterThread, db.get(), i, g_seed * 97 + i,
                         &models[i], &failed);
  }
  std::vector<std::thread> readers;
  for (int i = 0; i < kNumReaders; i++) {
    readers.emplace_back(ReaderThread, db.get(), g_seed * 131 + i, &stop,
                         &failed);
  }
  std::thread scanner(ScannerThread, db.get(), &stop, &failed);

  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  scanner.join();
  ASSERT_FALSE(failed.load());

  // Quiesce: flush the tail, then check the final state three ways —
  // live DB vs model, integrity scrub, and again after a reopen so
  // recovery is covered too.
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_TRUE(CheckSnapshot(db.get()));
  VerifyAgainstModel(db.get(), models);
  lsm::DB::Stats stats = db->GetStats();
  EXPECT_GT(stats.num_flushes, 0u);
  EXPECT_GT(stats.num_compactions, 0u);
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  ASSERT_TRUE(db->Close().ok());
  db.reset();

  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());
  VerifyAgainstModel(db.get(), models);
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  ASSERT_TRUE(db->Close().ok());
}

lsm::Options StressOptions() {
  lsm::Options options;
  // Tiny memtable: every few dozen writes rotate the WAL and flush, so
  // the run exercises hundreds of flushes and continuous compaction.
  options.memtable_bytes = 2 * 1024;
  options.block_cache_bytes = 256 * 1024;
  options.compaction_threads = 3;
  options.level0_slowdown_trigger = 6;
  options.level0_stop_trigger = 12;
  return options;
}

TEST(LsmStressTest, SizeTiered) {
  lsm::Options options = StressOptions();
  options.compaction_style = lsm::CompactionStyle::kSizeTiered;
  options.size_tiered_min_files = 4;
  RunStress(options, "stress-tiered");
}

TEST(LsmStressTest, Leveled) {
  lsm::Options options = StressOptions();
  options.compaction_style = lsm::CompactionStyle::kLeveled;
  options.level0_compaction_trigger = 3;
  options.level1_max_bytes = 64 * 1024;  // force multi-level movement
  RunStress(options, "stress-leveled");
}

TEST(LsmStressTest, SmallRestartIntervalAndArena) {
  lsm::Options options = StressOptions();
  options.compaction_style = lsm::CompactionStyle::kLeveled;
  options.level0_compaction_trigger = 3;
  // Exercise the table writer with an aggressive restart interval (more
  // restart-boundary seeks per block) on every flush and compaction, and
  // the memtable with small arena blocks.
  options.block_restart_interval = 4;
  options.arena_block_bytes = 1024;
  RunStress(options, "stress-restart-arena");
}

TEST(LsmStressTest, SizeTieredRotationChurn) {
  // Size-tiered with an 8KiB write buffer instead of StressOptions' 2KiB:
  // each memtable holds more multi-writer groups between rotations, so
  // readers and snapshot scans traverse a fuller skip list while the
  // leader inserts, and every rotation still flushes a few dozen rows.
  lsm::Options options = StressOptions();
  options.memtable_bytes = 8 * 1024;
  options.compaction_style = lsm::CompactionStyle::kSizeTiered;
  options.size_tiered_min_files = 4;
  RunStress(options, "stress-tiered-churn");
}

TEST(LsmStressTest, LeveledDefaultLevelSizes) {
  // Leveled with the default L1 budget: the plain L0 -> L1 path, without
  // the multi-level movement that the Leveled variant forces.
  lsm::Options options = StressOptions();
  options.compaction_style = lsm::CompactionStyle::kLeveled;
  options.level0_compaction_trigger = 3;
  RunStress(options, "stress-leveled-default");
}

TEST(LsmStressTest, LeveledSyncWrites) {
  lsm::Options options = StressOptions();
  options.compaction_style = lsm::CompactionStyle::kLeveled;
  options.level0_compaction_trigger = 3;
  options.sync_writes = true;
  RunStress(options, "stress-sync");
}

}  // namespace
}  // namespace apmbench

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      apmbench::g_fast = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      apmbench::g_seed = static_cast<uint32_t>(std::atoi(argv[i] + 7));
    }
  }
  return RUN_ALL_TESTS();
}
