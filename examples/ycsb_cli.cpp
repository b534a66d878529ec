// A YCSB-style command-line benchmark driver, mirroring the original
// tool's load/run phases:
//
//   ./ycsb_cli load store=cassandra dir=/tmp/db recordcount=100000
//   ./ycsb_cli run  store=cassandra dir=/tmp/db workload=W threads=32 seconds=30
//   ./ycsb_cli run  ... propertyfile=myworkload.properties
//   ./ycsb_cli run  ... target=50000 warmup=5 interval=1 series_json=run.json
//
// With no arguments it runs a short self-contained demo (load + run).
// Any CoreWorkload property (readproportion=, requestdistribution=, ...)
// can be passed directly as key=value.
//
// Paced runs (target=) record both measured and intended latency; with
// interval=S the runner collects a per-window time series (throughput,
// p50/p95/p99 of both latencies) exportable as JSON (series_json=) or CSV
// (series_csv=); "-" writes to stdout. bench/fig_bounded consumes the
// JSON (see docs/measurement.md).

#include <cstdio>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/env.h"
#include "common/properties.h"
#include "net/remote_store.h"
#include "stores/factory.h"
#include "ycsb/client.h"
#include "ycsb/timeseries.h"
#include "ycsb/workload.h"

using namespace apmbench;

namespace {

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [load|run|demo] [store=<name>] [dir=<path>] "
          "[nodes=N] [workload=R|RW|W|RS|RSW] [threads=N]\n"
          "          [recordcount=N] [operationcount=N] [seconds=S] "
          "[target=OPS] [warmup=S] [interval=S] [status=S]\n"
          "          [series_json=F|-] [series_csv=F|-] [propertyfile=F] "
          "[compression=none|lz]\n"
          "          [<property>=<value> ...]\n"
          "stores: cassandra hbase voldemort redis voltdb mysql\n"
          "        remote (addr=host:port connections=N, see store_server)\n",
          argv0);
  return 2;
}

/// store=remote drives a store_server over the binary protocol instead of
/// an embedded engine: addr=host:port connections=N [pipeline=N].
Status OpenRemoteStore(const Properties& args,
                       std::unique_ptr<ycsb::DB>* db) {
  net::ClientOptions options;
  std::string addr = args.GetString("addr", "127.0.0.1:7421");
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("addr must be host:port, got " + addr);
  }
  options.host = addr.substr(0, colon);
  options.port = std::stoi(addr.substr(colon + 1));
  options.connections = static_cast<int>(args.GetInt("connections", 8));
  options.max_pipeline =
      static_cast<size_t>(args.GetInt("pipeline", 128));
  std::unique_ptr<net::RemoteStore> remote;
  APM_RETURN_IF_ERROR(net::RemoteStore::Open(options, &remote));
  *db = std::move(remote);
  return Status::OK();
}

Status OpenStore(const Properties& args, std::unique_ptr<ycsb::DB>* db) {
  if (args.GetString("store") == "remote") return OpenRemoteStore(args, db);
  stores::StoreOptions options;
  options.base_dir = args.GetString("dir", "/tmp/apmbench-ycsb");
  options.num_nodes = static_cast<int>(args.GetInt("nodes", 1));
  options.mysql_limit_scans = args.GetBool("mysql_limit_scans", false);
  options.redis_aof = args.GetBool("redis_aof", false);
  std::string compression = args.GetString("compression", "none");
  if (!ParseCompressionType(compression, &options.lsm_compression)) {
    return Status::InvalidArgument(
        "compression must be none or lz, got " + compression);
  }
  return stores::CreateStore(args.GetString("store", "cassandra"), options,
                             db);
}

Status MakeWorkloadProps(const Properties& args, Properties* props) {
  std::string workload_name = args.GetString("workload", "");
  if (!workload_name.empty()) {
    APM_RETURN_IF_ERROR(
        ycsb::CoreWorkload::Table1Preset(workload_name, props));
  }
  // Pass-through of explicit workload properties (override the preset).
  props->Merge(args);
  return ycsb::CoreWorkload::Validate(*props);
}

/// Writes `content` to `path`, or to stdout when path is "-".
int WriteOutput(const std::string& path, const std::string& content,
                const char* what) {
  if (path == "-") {
    printf("%s", content.c_str());
    return 0;
  }
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return 1;
  }
  fwrite(content.data(), 1, content.size(), f);
  fclose(f);
  printf("[run] wrote %s to %s\n", what, path.c_str());
  return 0;
}

int DoLoad(const Properties& args) {
  std::unique_ptr<ycsb::DB> db;
  Status status = OpenStore(args, &db);
  if (!status.ok()) {
    fprintf(stderr, "open: %s\n", status.ToString().c_str());
    return 1;
  }
  Properties props;
  status = MakeWorkloadProps(args, &props);
  if (!status.ok()) {
    fprintf(stderr, "workload: %s\n", status.ToString().c_str());
    return 1;
  }
  ycsb::CoreWorkload workload(props);
  int threads = static_cast<int>(args.GetInt("threads", 8));
  printf("[load] %llu records into %s (%lld nodes), %d loader threads\n",
         static_cast<unsigned long long>(workload.record_count()),
         args.GetString("store", "cassandra").c_str(),
         static_cast<long long>(args.GetInt("nodes", 1)), threads);
  uint64_t start = NowMicros();
  status = ycsb::LoadDatabase(db.get(), &workload, threads);
  if (!status.ok()) {
    fprintf(stderr, "load: %s\n", status.ToString().c_str());
    return 1;
  }
  double seconds = static_cast<double>(NowMicros() - start) / 1e6;
  printf("[load] done in %.2fs (%.0f inserts/sec)\n", seconds,
         static_cast<double>(workload.record_count()) / seconds);
  uint64_t disk = 0;
  if (db->DiskUsage(&disk).ok() && disk > 0) {
    printf("[load] disk usage %.1f MB (%.1f bytes/record)\n",
           static_cast<double>(disk) / 1e6,
           static_cast<double>(disk) /
               static_cast<double>(workload.record_count()));
  }
  return 0;
}

int DoRun(const Properties& args) {
  std::unique_ptr<ycsb::DB> db;
  Status status = OpenStore(args, &db);
  if (!status.ok()) {
    fprintf(stderr, "open: %s\n", status.ToString().c_str());
    return 1;
  }
  Properties props;
  status = MakeWorkloadProps(args, &props);
  if (!status.ok()) {
    fprintf(stderr, "workload: %s\n", status.ToString().c_str());
    return 1;
  }
  ycsb::CoreWorkload workload(props);
  ycsb::RunConfig config;
  config.threads = static_cast<int>(args.GetInt("threads", 8));
  config.operation_count =
      static_cast<uint64_t>(args.GetInt("operationcount", 0));
  config.duration_seconds = args.GetDouble("seconds", 10.0);
  config.warmup_seconds = args.GetDouble("warmup", 0.0);
  config.target_ops_per_sec = args.GetDouble("target", 0.0);
  std::string series_json = args.GetString("series_json", "");
  std::string series_csv = args.GetString("series_csv", "");
  // A series export without an explicit window defaults to 1-second
  // windows (SciTS-style latency-over-time reporting).
  double default_window =
      !series_json.empty() || !series_csv.empty() ? 1.0 : 0.0;
  config.time_series_window_seconds =
      args.GetDouble("interval", default_window);
  config.status_interval_seconds = args.GetDouble("status", 0.0);
  if (config.status_interval_seconds > 0) {
    config.status_callback = [](double elapsed, uint64_t total,
                                double rate) {
      printf("[status] t=%.1fs ops=%llu cur=%.0f ops/sec\n", elapsed,
             static_cast<unsigned long long>(total), rate);
      fflush(stdout);
    };
    config.window_callback = [](const ycsb::TimeSeriesPoint& p) {
      printf("[status] window t=%.1fs %.0f ops/sec p99=%lluus "
             "intended_p99=%lluus\n",
             p.t_seconds, p.ops_per_sec,
             static_cast<unsigned long long>(p.measured_p99_us),
             static_cast<unsigned long long>(p.intended_p99_us));
      fflush(stdout);
    };
  }
  printf("[run] store=%s workload=%s threads=%d %s\n",
         args.GetString("store", "cassandra").c_str(),
         args.GetString("workload", "(custom)").c_str(), config.threads,
         config.operation_count > 0
             ? ("ops=" + std::to_string(config.operation_count)).c_str()
             : ("seconds=" + std::to_string(config.duration_seconds)).c_str());
  ycsb::RunResult result;
  status = ycsb::RunWorkload(db.get(), &workload, config, &result);
  if (!status.ok()) {
    fprintf(stderr, "run: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("%s", result.Summary().c_str());
  int rc = 0;
  // A failed operation fails the command, not only its summary line (a
  // read miss is not a failure).
  uint64_t errors = 0;
  for (int i = 0; i < ycsb::kNumOpTypes; i++) {
    errors += result.measurements.error_count(static_cast<ycsb::OpType>(i));
  }
  if (errors > 0) {
    fprintf(stderr, "run: %llu operations failed\n",
            static_cast<unsigned long long>(errors));
    rc = 1;
  }
  if (!series_json.empty()) {
    rc |= WriteOutput(series_json, result.time_series.ToJson(),
                      "time series JSON");
  }
  if (!series_csv.empty()) {
    rc |= WriteOutput(series_csv, result.time_series.ToCsv(),
                      "time series CSV");
  }
  return rc;
}

int DoDemo() {
  printf("No arguments: running the built-in demo (Workload W on an "
         "embedded 2-node cassandra store).\n\n");
  Env::Default()->RemoveDirRecursively("/tmp/apmbench-ycsb");
  Properties args;
  args.Set("store", "cassandra");
  args.Set("nodes", "2");
  args.Set("workload", "W");
  args.Set("recordcount", "20000");
  args.Set("seconds", "2");
  int rc = DoLoad(args);
  if (rc != 0) return rc;
  rc = DoRun(args);
  Env::Default()->RemoveDirRecursively("/tmp/apmbench-ycsb");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return DoDemo();
  std::string command = argv[1];
  Properties args;
  for (int i = 2; i < argc; i++) {
    if (!args.ParseArg(argv[i]).ok()) return Usage(argv[0]);
  }
  if (args.Contains("propertyfile")) {
    Properties file_props;
    Status status = file_props.LoadFile(args.GetString("propertyfile"));
    if (!status.ok()) {
      fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    file_props.Merge(args);  // command line wins
    args = file_props;
  }
  if (command == "load") return DoLoad(args);
  if (command == "run") return DoRun(args);
  if (command == "demo") return DoDemo();
  return Usage(argv[0]);
}
