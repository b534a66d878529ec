// Tests of the benchmark itself: the decorators are transparent, the
// counting Env is exact, the correctness checks catch wrong results, and a
// reduced-size trial of every workload passes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <regex>
#include <set>

#include "driver.h"
#include "stores/factory.h"
#include "tracing.h"

namespace apmbench::e2ebench {
namespace {

class TempDir {
 public:
  TempDir() {
    // Relative: the tests write only under the directory they run in.
    char tmpl[] = "e2ebench_test.XXXXXX";
    const char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "";
  }
  ~TempDir() { Env::Default()->RemoveDirRecursively(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Everything a fixed op sequence observes from a store, as text.
std::string Transcript(ycsb::DB* db) {
  std::string out;
  for (uint64_t k = 0; k < 300; k++) {
    const std::string key = KeyFor(k);
    out += db->Insert("t", key, RecordFor(7, key)).ToString() + ";";
  }
  for (uint64_t k = 0; k < 320; k += 3) {
    ycsb::Record record;
    Status s = db->Read("t", KeyFor(k), &record);
    out += s.ToString() + ":";
    for (const auto& [field, value] : record) out += field + "=" + value + ",";
  }
  std::vector<ycsb::KeyedRecord> rows;
  out += db->ScanKeyed("t", KeyFor(5), 40, &rows).ToString() + ";";
  for (const auto& row : rows) out += row.key + ",";
  out += db->Delete("t", KeyFor(9)).ToString() + ";";
  ycsb::Record gone;
  out += db->Read("t", KeyFor(9), &gone).ToString();
  return out;
}

std::string StoreTranscript(const std::string& store, Env* env,
                            bool timed) {
  TempDir dir;
  stores::StoreOptions options;
  options.base_dir = dir.path();
  options.env = env;
  std::unique_ptr<ycsb::DB> db;
  Status s = stores::CreateStore(store, options, &db);
  if (!s.ok()) return "open failed: " + s.ToString();
  if (!timed) return Transcript(db.get());
  TimedDB decorated(db.get());
  return Transcript(&decorated);
}

TEST(DecoratorTest, PassCallsThroughUnchanged) {
  for (const char* store : {"cassandra", "hbase", "mysql"}) {
    SCOPED_TRACE(store);
    const std::string plain = StoreTranscript(store, nullptr, false);
    CountingEnv env(Env::Default());
    EXPECT_EQ(StoreTranscript(store, &env, true), plain);
    EXPECT_GT(env.Snapshot().fg_write_bytes, 0u);
  }
}

TEST(DecoratorTest, TimedDBRecordsOneSpanPerCall) {
  TempDir dir;
  stores::StoreOptions options;
  options.base_dir = dir.path();
  std::unique_ptr<ycsb::DB> db;
  ASSERT_TRUE(stores::CreateStore("mysql", options, &db).ok());
  SpanBoard board;
  TimedDB timed(db.get(), &board);
  Transcript(&timed);
  EXPECT_EQ(timed.inserts().Samples().size(), 300u);
  EXPECT_EQ(timed.reads().Samples().size(), 107u + 1u);
  EXPECT_EQ(timed.scans().Samples().size(), 1u);
  uint64_t ns = 0;
  EXPECT_TRUE(board.Take(KeyFor(3), &ns));
  EXPECT_FALSE(board.Take(KeyFor(3), &ns));
  EXPECT_GT(timed.call_ns(), 0u);
}

/// A store whose inserts write through the Env, so a TimedDB around it
/// makes the writes foreground.
class FileWritingDB final : public ycsb::DB {
 public:
  FileWritingDB(Env* env, std::string path)
      : env_(env), path_(std::move(path)) {}
  Status Read(const std::string&, const Slice&, ycsb::Record*) override {
    return Status::NotFound("");
  }
  Status ScanKeyed(const std::string&, const Slice&, int,
                   std::vector<ycsb::KeyedRecord>*) override {
    return Status::OK();
  }
  Status Insert(const std::string&, const Slice& key,
                const ycsb::Record&) override {
    std::unique_ptr<WritableFile> file;
    APM_RETURN_IF_ERROR(env_->NewAppendableFile(path_, &file));
    APM_RETURN_IF_ERROR(file->Append(key));
    APM_RETURN_IF_ERROR(file->Sync());
    return file->Close();
  }
  Status Update(const std::string&, const Slice&,
                const ycsb::Record&) override {
    return Status::OK();
  }
  Status Delete(const std::string&, const Slice&) override {
    return Status::OK();
  }

 private:
  Env* const env_;
  const std::string path_;
};

TEST(CountingEnvTest, ReportsExactBytesAndSyncs) {
  TempDir dir;
  CountingEnv env(Env::Default());
  const std::string path = dir.path() + "/f";
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env.NewWritableFile(path, &file).ok());
    ASSERT_TRUE(file->Append("abc").ok());
    ASSERT_TRUE(file->Append("defgh").ok());
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());
  }
  ASSERT_TRUE(env.SyncDir(dir.path()).ok());
  {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(env.NewRandomAccessFile(path, &file).ok());
    char scratch[8];
    Slice got;
    ASSERT_TRUE(file->Read(2, 4, &got, scratch).ok());
    EXPECT_EQ(got.ToString(), "cdef");
  }
  std::string whole;
  ASSERT_TRUE(env.ReadFileToString(path, &whole).ok());
  EXPECT_EQ(whole, "abcdefgh");

  EnvCounters bg = env.Snapshot();
  EXPECT_EQ(bg.bg_write_bytes, 8u);
  EXPECT_EQ(bg.bg_read_bytes, 4u + 8u);
  EXPECT_EQ(bg.syncs, 2u);
  EXPECT_EQ(bg.fg_write_bytes, 0u);
  EXPECT_EQ(bg.fg_read_bytes, 0u);
  EXPECT_EQ(bg.fg_ns, 0u);

  // The same writes made inside a store call count as foreground.
  FileWritingDB store(&env, dir.path() + "/g");
  TimedDB timed(&store);
  ASSERT_TRUE(timed.Insert("t", "0123456", {}).ok());
  ASSERT_TRUE(timed.Insert("t", "789", {}).ok());
  EnvCounters fg = env.Snapshot() - bg;
  EXPECT_EQ(fg.fg_write_bytes, 10u);
  EXPECT_EQ(fg.bg_write_bytes, 0u);
  EXPECT_EQ(fg.syncs, 2u);
  EXPECT_GT(fg.fg_ns, 0u);
  EXPECT_EQ(fg.bg_ns, 0u);
}

TEST(GeneratorTest, KeysAndRecordsHaveThePaperShape) {
  std::set<std::string> keys;
  for (uint64_t k = 0; k < 1000; k++) {
    const std::string key = KeyFor(k);
    EXPECT_EQ(key.size(), static_cast<size_t>(kKeyLength));
    EXPECT_EQ(key.rfind("user", 0), 0u);
    keys.insert(key);
  }
  EXPECT_EQ(keys.size(), 1000u);
  const ycsb::Record record = RecordFor(3, KeyFor(1));
  ASSERT_EQ(record.size(), static_cast<size_t>(kFieldCount));
  for (const auto& [field, value] : record) {
    EXPECT_EQ(value.size(), static_cast<size_t>(kFieldLength));
  }
  EXPECT_EQ(record, RecordFor(3, KeyFor(1)));
  EXPECT_NE(record, RecordFor(4, KeyFor(1)));
}

std::set<std::string> Names(const TrialResult& result) {
  std::set<std::string> names;
  for (const auto& [name, value] : result.metrics) names.insert(name);
  return names;
}

TrialResult Smoke(const std::string& workload, bool trace,
                  TrialOptions options = {}) {
  TempDir dir;
  options.seed = 5;
  options.trace = trace;
  options.scale = 0.02;
  options.dir = dir.path();
  TrialResult result;
  const WorkloadSpec* spec = FindWorkload(workload);
  EXPECT_NE(spec, nullptr);
  if (spec == nullptr) return result;
  Status s = RunTrial(*spec, options, &result);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return result;
}

TEST(TrialTest, ReducedWorkloadsPassTheirChecks) {
  const std::regex name_re("[A-Za-z0-9_.-]+");
  for (const auto& spec : Workloads()) {
    for (bool trace : {false, true}) {
      SCOPED_TRACE(spec.name + (trace ? " traced" : ""));
      TrialResult result = Smoke(spec.name, trace);
      EXPECT_GT(result.attempted, 0u);
      EXPECT_EQ(result.failed, 0u);
      EXPECT_TRUE(result.errors.empty());
      EXPECT_GE(result.segments.size(), 5u);
      for (const auto& segment : result.segments) {
        EXPECT_EQ(segment.front().first, "throughput_ops_s");
        EXPECT_GT(segment.front().second, 0);
      }
      const std::set<std::string> names = Names(result);
      EXPECT_EQ(names.size(), result.metrics.size()) << "duplicate name";
      for (const auto& name : names) {
        EXPECT_TRUE(std::regex_match(name, name_re)) << name;
      }
      for (const char* want : {"throughput_ops_s", "read_p50_us",
                               "write_p99_us", "setup_s", "space_amp",
                               "peak_rss_mb", "error_ratio"}) {
        EXPECT_EQ(names.count(want), 1u) << want;
      }
      EXPECT_EQ(names.count("net.self_p50_us"), trace ? 1u : 0u);
      EXPECT_EQ(names.count("lsm.cache_hit_ratio"), trace ? 1u : 0u);
    }
  }
}

/// Corrupts every `every`-th call of one kind, to prove the checks see it.
class FaultyDB final : public ycsb::DB {
 public:
  enum class Fault { kWrongValue, kMissingKey, kShortScan, kUnorderedScan };
  FaultyDB(ycsb::DB* inner, Fault fault) : inner_(inner), fault_(fault) {}

  Status Read(const std::string& table, const Slice& key,
              ycsb::Record* record) override {
    Status s = inner_->Read(table, key, record);
    if (Hit(Fault::kWrongValue) && !record->empty()) {
      record->back().second[0] ^= 1;
    }
    if (Hit(Fault::kMissingKey)) return Status::NotFound("injected");
    return s;
  }
  Status ScanKeyed(const std::string& table, const Slice& start, int count,
                   std::vector<ycsb::KeyedRecord>* rows) override {
    Status s = inner_->ScanKeyed(table, start, count, rows);
    if (Hit(Fault::kShortScan) && !rows->empty()) rows->pop_back();
    if (Hit(Fault::kUnorderedScan) && rows->size() > 2) {
      std::swap((*rows)[1], (*rows)[2]);
    }
    return s;
  }
  Status Insert(const std::string& table, const Slice& key,
                const ycsb::Record& record) override {
    return inner_->Insert(table, key, record);
  }
  Status Update(const std::string& table, const Slice& key,
                const ycsb::Record& record) override {
    return inner_->Update(table, key, record);
  }
  Status Delete(const std::string& table, const Slice& key) override {
    return inner_->Delete(table, key);
  }

 private:
  bool Hit(Fault fault) {
    return fault == fault_ && calls_.fetch_add(1) % 50 == 0;
  }
  ycsb::DB* const inner_;
  const Fault fault_;
  std::atomic<uint64_t> calls_{0};
};

TEST(TrialTest, ChecksCatchWrongResults) {
  struct Case {
    const char* workload;
    FaultyDB::Fault fault;
  };
  for (const Case& c : {Case{"served_r", FaultyDB::Fault::kWrongValue},
                        Case{"ingest_w", FaultyDB::Fault::kMissingKey},
                        Case{"scan_rs", FaultyDB::Fault::kShortScan},
                        Case{"scan_rs", FaultyDB::Fault::kUnorderedScan}}) {
    SCOPED_TRACE(c.workload);
    TrialOptions options;
    options.wrap_store = [&c](ycsb::DB* db) {
      return std::make_unique<FaultyDB>(db, c.fault);
    };
    TrialResult result = Smoke(c.workload, false, options);
    EXPECT_GT(result.failed, 0u);
    EXPECT_FALSE(result.errors.empty());
    double error_ratio = -1;
    for (const auto& [name, value] : result.metrics) {
      if (name == "error_ratio") error_ratio = value;
    }
    EXPECT_GT(error_ratio, 0);
  }
}

}  // namespace
}  // namespace apmbench::e2ebench
