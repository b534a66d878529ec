// Multi-threaded microbenchmarks of the four real storage engines: a
// thread-count sweep (1/4/16/128 client threads by default) over
// put/get/scan per engine, reported as ops/sec and emitted as
// machine-readable JSON. This is both the calibration evidence for
// simstores/calibration.h (per-operation costs order the same way the
// paper's single-node throughputs do) and the scaling evidence for the
// concurrent hot paths: group-committed writes and lock-free/shared-lock
// reads should scale with threads on a multi-core host.
//
// Usage: micro_engines [engine=lsm|btree|hashkv|volt] [op=put|get|scan]
//                      [mode=cache_scan]
//                      [out=BENCH_engines.json] [build=<label>]
//
// mode=cache_scan runs the read-path sweep instead of the engine sweep:
// threads x {cache-hit get, cold get, cross-shard scan}, with the
// measured block-cache hit rate in each lsm row (the scaling evidence
// for the sharded block cache and the store-layer fan-out executor).
//
// Every row records the host's hardware threads (`hw_threads`) and the
// build type (`build_type`: "release" when NDEBUG is defined, else
// "debug"), so rows from different hosts and builds stay distinguishable.
//
// Environment:
//   APMBENCH_BENCH_SECONDS  seconds measured per point (default 0.5)
//   APMBENCH_BENCH_PRELOAD  records preloaded per engine (default 20000)
//   APMBENCH_BENCH_THREADS  comma list of thread counts (default 1,4,16,128)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "btree/btree.h"
#include "common/env.h"
#include "common/properties.h"
#include "common/random.h"
#include "hashkv/hashkv.h"
#include "lsm/db.h"
#include "stores/redis_store.h"
#include "stores/store_options.h"
#include "volt/volt.h"

namespace {

using namespace apmbench;

std::string MakeKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%021llu",
           static_cast<unsigned long long>(i));
  return buf;
}

std::string MakeValue() { return std::string(50, 'v'); }

double BenchSeconds() {
  const char* env = getenv("APMBENCH_BENCH_SECONDS");
  double v = env != nullptr ? atof(env) : 0.5;
  return v > 0.05 ? v : 0.5;
}

uint64_t BenchPreload() {
  const char* env = getenv("APMBENCH_BENCH_PRELOAD");
  long long v = env != nullptr ? atoll(env) : 20000;
  return v >= 100 ? static_cast<uint64_t>(v) : 20000;
}

std::vector<int> BenchThreads() {
  const char* env = getenv("APMBENCH_BENCH_THREADS");
  std::string list = env != nullptr ? env : "1,4,16,128";
  std::vector<int> out;
  for (size_t pos = 0; pos < list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    int v = atoi(list.substr(pos, comma - pos).c_str());
    if (v >= 1) out.push_back(v);
    pos = comma + 1;
  }
  if (out.empty()) out = {1, 4, 16, 128};
  return out;
}

/// Runs `make_thread_op(t)`'s result in a loop on `threads` threads for
/// roughly `seconds`, all threads released together; returns aggregate
/// ops/sec and the total op count.
struct MeasureResult {
  double ops_per_sec = 0;
  uint64_t total_ops = 0;
  double elapsed = 0;
};

template <typename MakeThreadOp>
MeasureResult Measure(int threads, double seconds,
                      MakeThreadOp&& make_thread_op) {
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<uint64_t> counts(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t]() {
      auto op = make_thread_op(t);
      start.wait(false, std::memory_order_acquire);
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        op();
        n++;
      }
      counts[static_cast<size_t>(t)] = n;
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  start.notify_all();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  const auto t1 = std::chrono::steady_clock::now();
  for (auto& worker : workers) worker.join();

  MeasureResult result;
  for (uint64_t c : counts) result.total_ops += c;
  result.elapsed = std::chrono::duration<double>(t1 - t0).count();
  if (result.elapsed > 0) {
    result.ops_per_sec = static_cast<double>(result.total_ops) /
                         result.elapsed;
  }
  return result;
}

struct SweepConfig {
  std::vector<int> thread_counts;
  double seconds = 0.5;
  uint64_t preload = 20000;
  std::string only_op;  // empty = all
  std::string build_label;
  benchutil::JsonResultWriter* out = nullptr;
};

/// Adds one result row with the fields every mode shares, stamped with
/// the host's hardware threads and the build type.
benchutil::JsonResultWriter::Row& AddResultRow(const SweepConfig& config,
                                               const std::string& engine,
                                               const std::string& op,
                                               int threads,
                                               const MeasureResult& r) {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  auto& row = config.out->AddRow()
                  .Str("engine", engine)
                  .Str("op", op)
                  .Int("threads", threads)
                  .Num("ops_per_sec", r.ops_per_sec)
                  .Int("total_ops", static_cast<int64_t>(r.total_ops))
                  .Num("seconds", r.elapsed)
                  .Int("hw_threads", std::thread::hardware_concurrency())
                  .Str("build_type", build_type);
  if (!config.build_label.empty()) row.Str("build", config.build_label);
  return row;
}

void Report(const SweepConfig& config, const std::string& engine,
            const std::string& op, int threads, const MeasureResult& r) {
  printf("%-8s %-5s %4d threads  %12.0f ops/s  (%llu ops in %.2fs)\n",
         engine.c_str(), op.c_str(), threads, r.ops_per_sec,
         static_cast<unsigned long long>(r.total_ops), r.elapsed);
  fflush(stdout);
  AddResultRow(config, engine, op, threads, r);
}

bool WantOp(const SweepConfig& config, const char* op) {
  return config.only_op.empty() || config.only_op == op;
}

/// One sweep point set for an engine: per thread count, a fresh store is
/// opened and preloaded, then get and scan run against the stable preload
/// set and put runs last (it grows the store).
struct EngineHooks {
  std::function<void(uint64_t preload)> open;  // open fresh + preload
  std::function<void()> close;
  // put(i) writes key i (callers hand each thread a disjoint range).
  std::function<void(uint64_t i)> put;
  std::function<void(uint64_t i)> get;   // point-read of preloaded key i
  std::function<void(uint64_t i)> scan;  // 50-record scan from key i
};

void SweepEngine(const SweepConfig& config, const std::string& engine,
                 const EngineHooks& hooks) {
  for (int threads : config.thread_counts) {
    hooks.open(config.preload);
    const uint64_t preload = config.preload;
    if (WantOp(config, "get")) {
      auto r = Measure(threads, config.seconds, [&](int t) {
        auto rng = std::make_shared<Random>(1000 + t);
        return [&, rng]() { hooks.get(rng->Uniform(preload)); };
      });
      Report(config, engine, "get", threads, r);
    }
    if (WantOp(config, "scan")) {
      auto r = Measure(threads, config.seconds, [&](int t) {
        auto rng = std::make_shared<Random>(2000 + t);
        return [&, rng]() { hooks.scan(rng->Uniform(preload)); };
      });
      Report(config, engine, "scan", threads, r);
    }
    if (WantOp(config, "put")) {
      // Disjoint key ranges per thread, starting above the preload set.
      auto r = Measure(threads, config.seconds, [&](int t) {
        auto next = std::make_shared<uint64_t>(
            preload + static_cast<uint64_t>(t) * (uint64_t{1} << 32));
        return [&, next]() { hooks.put((*next)++); };
      });
      Report(config, engine, "put", threads, r);
    }
    hooks.close();
  }
}

// --- LSM engine (cassandra/hbase substrate) ---

void SweepLsm(const SweepConfig& config) {
  const std::string dir = "/tmp/apmbench-micro-lsm";
  std::unique_ptr<lsm::DB> db;
  EngineHooks hooks;
  hooks.open = [&](uint64_t preload) {
    Env::Default()->RemoveDirRecursively(dir);
    lsm::Options options;
    options.dir = dir;
    options.memtable_bytes = 4 * 1024 * 1024;
    lsm::DB::Open(options, &db);
    for (uint64_t i = 0; i < preload; i++) db->Put(MakeKey(i), MakeValue());
    db->Flush();
  };
  hooks.close = [&]() {
    db.reset();
    Env::Default()->RemoveDirRecursively(dir);
  };
  hooks.put = [&](uint64_t i) { db->Put(MakeKey(i), MakeValue()); };
  hooks.get = [&](uint64_t i) {
    std::string value;
    db->Get(lsm::ReadOptions(), MakeKey(i), &value);
  };
  hooks.scan = [&](uint64_t i) {
    std::vector<std::pair<std::string, std::string>> out;
    db->Scan(lsm::ReadOptions(), MakeKey(i), 50, &out);
  };
  SweepEngine(config, "lsm", hooks);
}

// --- B+tree engine (mysql/voldemort substrate) ---

void SweepBtree(const SweepConfig& config) {
  const std::string dir = "/tmp/apmbench-micro-btree";
  std::unique_ptr<btree::BTree> tree;
  EngineHooks hooks;
  hooks.open = [&](uint64_t preload) {
    Env::Default()->RemoveDirRecursively(dir);
    Env::Default()->CreateDirIfMissing(dir);
    btree::Options options;
    options.path = dir + "/tree.db";
    btree::BTree::Open(options, &tree);
    for (uint64_t i = 0; i < preload; i++) tree->Put(MakeKey(i), MakeValue());
  };
  hooks.close = [&]() {
    tree.reset();
    Env::Default()->RemoveDirRecursively(dir);
  };
  hooks.put = [&](uint64_t i) { tree->Put(MakeKey(i), MakeValue()); };
  hooks.get = [&](uint64_t i) {
    std::string value;
    tree->Get(MakeKey(i), &value);
  };
  hooks.scan = [&](uint64_t i) {
    std::vector<std::pair<std::string, std::string>> out;
    tree->Scan(MakeKey(i), 50, &out);
  };
  SweepEngine(config, "btree", hooks);
}

// --- In-memory dict engine (redis substrate) ---

void SweepHashKv(const SweepConfig& config) {
  std::unique_ptr<hashkv::HashKV> kv;
  EngineHooks hooks;
  hooks.open = [&](uint64_t preload) {
    hashkv::Options options;
    hashkv::HashKV::Open(options, &kv);
    for (uint64_t i = 0; i < preload; i++) kv->Set(MakeKey(i), MakeValue());
  };
  hooks.close = [&]() { kv.reset(); };
  hooks.put = [&](uint64_t i) { kv->Set(MakeKey(i), MakeValue()); };
  hooks.get = [&](uint64_t i) {
    std::string value;
    kv->Get(MakeKey(i), &value);
  };
  hooks.scan = [&](uint64_t i) {
    std::vector<std::pair<std::string, std::string>> out;
    kv->Scan(MakeKey(i), 50, &out);
  };
  SweepEngine(config, "hashkv", hooks);
}

// --- Partitioned serial executor (voltdb substrate) ---

void SweepVolt(const SweepConfig& config) {
  std::unique_ptr<volt::VoltEngine> engine;
  EngineHooks hooks;
  hooks.open = [&](uint64_t preload) {
    volt::Options options;
    options.sites_per_host = 6;
    engine = std::make_unique<volt::VoltEngine>(options);
    for (uint64_t i = 0; i < preload; i++) {
      engine->Put(MakeKey(i), MakeValue());
    }
  };
  hooks.close = [&]() { engine.reset(); };
  hooks.put = [&](uint64_t i) { engine->Put(MakeKey(i), MakeValue()); };
  hooks.get = [&](uint64_t i) {
    std::string value;
    engine->Get(MakeKey(i), &value);
  };
  hooks.scan = [&](uint64_t i) {
    std::vector<std::pair<std::string, std::string>> out;
    engine->Scan(MakeKey(i), 50, &out);
  };
  SweepEngine(config, "volt", hooks);
}

// --- Read-path sweep (mode=cache_scan) ---
//
// Three probes per thread count, isolating the layers the read path
// crosses: `cache_get_hit` serves every data block from the block cache
// (the sweep warms each block once before measuring), `cache_get_cold`
// disables the cache so every read hits the table file, and
// `xshard_scan` drives 50-record ScanKeyed calls through the 4-node
// Redis-architecture store, crossing every shard of the ring. The lsm
// rows carry the block-cache hit rate measured over the timed window.

void ReportCache(const SweepConfig& config, const std::string& engine,
                 const std::string& op, int threads, const MeasureResult& r,
                 double hit_rate) {
  printf("%-8s %-14s %4d threads  %12.0f ops/s  (%llu ops in %.2fs",
         engine.c_str(), op.c_str(), threads, r.ops_per_sec,
         static_cast<unsigned long long>(r.total_ops), r.elapsed);
  if (hit_rate >= 0) printf(", hit rate %.3f", hit_rate);
  printf(")\n");
  fflush(stdout);
  auto& row = AddResultRow(config, engine, op, threads, r);
  if (hit_rate >= 0) row.Num("cache_hit_rate", hit_rate);
}

void SweepCacheScan(const SweepConfig& config) {
  const std::string dir = "/tmp/apmbench-micro-cache";
  const uint64_t preload = config.preload;

  auto open_lsm = [&](size_t cache_bytes) {
    Env::Default()->RemoveDirRecursively(dir);
    lsm::Options options;
    options.dir = dir;
    options.memtable_bytes = 4 * 1024 * 1024;
    options.block_cache_bytes = cache_bytes;
    std::unique_ptr<lsm::DB> db;
    lsm::DB::Open(options, &db);
    for (uint64_t i = 0; i < preload; i++) db->Put(MakeKey(i), MakeValue());
    db->Flush();
    return db;
  };
  auto measure_get = [&](lsm::DB* db, int threads) {
    return Measure(threads, config.seconds, [&, db](int t) {
      auto rng = std::make_shared<Random>(3000 + t);
      return [&, db, rng]() {
        std::string value;
        db->Get(lsm::ReadOptions(), MakeKey(rng->Uniform(preload)), &value);
      };
    });
  };
  auto hit_rate = [](const lsm::DB::Stats& before,
                     const lsm::DB::Stats& after) {
    const uint64_t hits = after.cache_hits - before.cache_hits;
    const uint64_t total = hits + (after.cache_misses - before.cache_misses);
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  };

  for (int threads : config.thread_counts) {
    if (WantOp(config, "cache_get_hit")) {
      // Warm every data block once so the timed window is all cache hits.
      auto db = open_lsm(64 * 1024 * 1024);
      std::string value;
      for (uint64_t i = 0; i < preload; i++) {
        db->Get(lsm::ReadOptions(), MakeKey(i), &value);
      }
      lsm::DB::Stats before = db->GetStats();
      auto r = measure_get(db.get(), threads);
      lsm::DB::Stats after = db->GetStats();
      ReportCache(config, "lsm", "cache_get_hit", threads, r,
                  hit_rate(before, after));
    }
    if (WantOp(config, "cache_get_cold")) {
      auto db = open_lsm(0);
      lsm::DB::Stats before = db->GetStats();
      auto r = measure_get(db.get(), threads);
      lsm::DB::Stats after = db->GetStats();
      ReportCache(config, "lsm", "cache_get_cold", threads, r,
                  hit_rate(before, after));
    }
    if (WantOp(config, "xshard_scan")) {
      stores::StoreOptions store_options;
      store_options.num_nodes = 4;
      std::unique_ptr<stores::RedisStore> store;
      stores::RedisStore::Open(store_options, &store);
      const ycsb::Record record = {{"field0", MakeValue()}};
      for (uint64_t i = 0; i < preload; i++) {
        store->Insert("t", MakeKey(i), record);
      }
      auto r = Measure(threads, config.seconds, [&](int t) {
        auto rng = std::make_shared<Random>(4000 + t);
        return [&, rng]() {
          std::vector<ycsb::KeyedRecord> records;
          store->ScanKeyed("t", MakeKey(rng->Uniform(preload)), 50, &records);
        };
      });
      ReportCache(config, "redis", "xshard_scan", threads, r, -1.0);
    }
  }
  Env::Default()->RemoveDirRecursively(dir);
}

}  // namespace

int main(int argc, char** argv) {
  std::string only_engine;
  std::string mode;
  std::string out_path = "BENCH_engines.json";
  SweepConfig config;
  config.thread_counts = BenchThreads();
  config.seconds = BenchSeconds();
  config.preload = BenchPreload();
  for (int i = 1; i < argc; i++) {
    apmbench::Properties props;
    if (!props.ParseArg(argv[i]).ok()) {
      fprintf(stderr,
              "usage: %s [engine=lsm|btree|hashkv|volt] [op=put|get|scan] "
              "[mode=cache_scan] [out=<path>] "
              "[build=<label>]\n",
              argv[0]);
      return 2;
    }
    if (props.Contains("engine")) only_engine = props.GetString("engine");
    if (props.Contains("mode")) mode = props.GetString("mode");
    if (props.Contains("op")) config.only_op = props.GetString("op");
    if (props.Contains("out")) out_path = props.GetString("out");
    if (props.Contains("build")) config.build_label = props.GetString("build");
  }
  if (!mode.empty() && mode != "cache_scan") {
    fprintf(stderr, "unknown mode=%s (expected cache_scan)\n", mode.c_str());
    return 2;
  }

  benchutil::JsonResultWriter results(out_path);
  config.out = &results;
  printf("APMBench engine thread sweep: %.2fs per point, %llu preloaded "
         "records, %u hardware threads\n",
         config.seconds, static_cast<unsigned long long>(config.preload),
         std::thread::hardware_concurrency());

  if (mode == "cache_scan") {
    SweepCacheScan(config);
  } else {
    if (only_engine.empty() || only_engine == "lsm") SweepLsm(config);
    if (only_engine.empty() || only_engine == "btree") SweepBtree(config);
    if (only_engine.empty() || only_engine == "hashkv") SweepHashKv(config);
    if (only_engine.empty() || only_engine == "volt") SweepVolt(config);
  }

  apmbench::Status status = results.WriteFile();
  if (!status.ok()) {
    fprintf(stderr, "write %s: %s\n", results.path().c_str(),
            status.ToString().c_str());
    return 1;
  }
  printf("results written to %s\n", results.path().c_str());
  return 0;
}
