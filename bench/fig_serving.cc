// Serving-layer sweep: throughput and intended latency vs connection
// count for a store hosted behind the epoll binary-protocol server
// (src/net), driven closed-loop over loopback the way the paper drives
// each store with 128 YCSB client connections per node.
//
//   ./fig_serving [store=redis] [conns=1,8,64,256] [records=N]
//                 [seconds=S] [workload=RW] [out=BENCH_engines.json]
//
// For each connection count C the harness opens a RemoteStore
// multiplexing C sockets, runs C closed-loop client threads unthrottled
// for the maximum sustainable throughput, then replays the workload
// open-loop at 70% of that maximum to measure intended (coordinated-
// omission-corrected) latency. Rows are merged into the output JSON
// (existing non-serving rows, e.g. micro_engines sweeps, are preserved).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/env.h"
#include "common/properties.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "stores/factory.h"
#include "ycsb/client.h"
#include "ycsb/workload.h"

using namespace apmbench;

namespace {

struct SweepPoint {
  int connections = 0;
  double max_ops_sec = 0.0;
  uint64_t measured_p99_us = 0;
  double paced_ops_sec = 0.0;
  uint64_t intended_p99_us = 0;
  uint64_t intended_p95_us = 0;
  uint64_t batches = 0;
  uint64_t requests = 0;
};

std::vector<int> ParseConns(const std::string& spec) {
  std::vector<int> out;
  size_t start = 0;
  while (start < spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    out.push_back(std::stoi(spec.substr(start, comma - start)));
    start = comma + 1;
  }
  return out;
}

Status RunSweep(ycsb::DB* remote, ycsb::CoreWorkload* workload,
                int connections, double seconds, SweepPoint* point) {
  // Pass 1: closed-loop, unthrottled — the maximum sustainable
  // throughput at this connection count.
  ycsb::RunConfig config;
  config.threads = connections;
  config.duration_seconds = seconds;
  config.warmup_seconds = seconds >= 4 ? 1.0 : 0.25;
  ycsb::RunResult result;
  APM_RETURN_IF_ERROR(ycsb::RunWorkload(remote, workload, config, &result));
  point->connections = connections;
  point->max_ops_sec = result.throughput_ops_sec;
  point->measured_p99_us = result.measurements.MergedHistogram().Percentile(99.0);

  // Pass 2: open-loop at 70% of max — queueing delay shows up in
  // intended latency instead of being coordinated-omission'd away.
  config.target_ops_per_sec = result.throughput_ops_sec * 0.7;
  ycsb::RunResult paced;
  APM_RETURN_IF_ERROR(ycsb::RunWorkload(remote, workload, config, &paced));
  point->paced_ops_sec = paced.throughput_ops_sec;
  point->intended_p99_us =
      paced.measurements.MergedIntendedHistogram().Percentile(99.0);
  point->intended_p95_us =
      paced.measurements.MergedIntendedHistogram().Percentile(95.0);
  return Status::OK();
}

/// Rewrites `path` as a JSON array holding any pre-existing rows that are
/// not serving rows (so engine-sweep results survive) plus `new_rows`.
Status MergeRows(const std::string& path,
                 const std::vector<std::string>& new_rows) {
  std::string existing;
  std::vector<std::string> kept;
  if (Env::Default()->ReadFileToString(path, &existing).ok()) {
    // Extract each top-level {...} object (rows may be one per line or
    // pretty-printed across lines; no string values contain braces) and
    // keep every row that is not a previous serving sweep.
    int depth = 0;
    std::string row;
    for (char c : existing) {
      if (c == '{') depth++;
      if (depth > 0) row.push_back(c == '\n' ? ' ' : c);
      if (c == '}' && depth > 0 && --depth == 0) {
        if (row.find("\"bench\": \"serving\"") == std::string::npos) {
          kept.push_back(row);
        }
        row.clear();
      }
    }
  }
  kept.insert(kept.end(), new_rows.begin(), new_rows.end());
  std::string out = "[\n";
  for (size_t i = 0; i < kept.size(); i++) {
    out += "  " + kept[i];
    if (i + 1 < kept.size()) out += ",";
    out += "\n";
  }
  out += "]\n";
  return Env::Default()->WriteStringToFile(path, Slice(out));
}

}  // namespace

int main(int argc, char** argv) {
  Properties args;
  for (int i = 1; i < argc; i++) {
    if (!args.ParseArg(argv[i]).ok()) {
      fprintf(stderr,
              "usage: %s [store=<name>] [conns=1,8,64,256] [records=N] "
              "[seconds=S] [workload=RW] [out=<path>]\n",
              argv[0]);
      return 2;
    }
  }
  std::string store_name = args.GetString("store", "redis");
  std::vector<int> conn_counts =
      ParseConns(args.GetString("conns", "1,8,64,256"));
  double seconds = args.GetDouble("seconds", 4.0);
  int64_t records = args.GetInt("records", benchutil::ScaleRecords());
  std::string out_path = args.GetString("out", "BENCH_engines.json");

  const std::string dir = "/tmp/apmbench-fig-serving";
  Env::Default()->RemoveDirRecursively(dir);
  stores::StoreOptions store_options;
  store_options.base_dir = dir;
  store_options.num_nodes = static_cast<int>(args.GetInt("nodes", 1));
  std::unique_ptr<ycsb::DB> db;
  Status status = stores::CreateStore(store_name, store_options, &db);
  if (!status.ok()) {
    fprintf(stderr, "open %s: %s\n", store_name.c_str(),
            status.ToString().c_str());
    return 1;
  }

  Properties props;
  status = ycsb::CoreWorkload::Table1Preset(args.GetString("workload", "RW"),
                                            &props);
  if (!status.ok()) {
    fprintf(stderr, "workload: %s\n", status.ToString().c_str());
    return 1;
  }
  props.Set("recordcount", std::to_string(records));
  ycsb::CoreWorkload workload(props);
  status = ycsb::LoadDatabase(db.get(), &workload, 8);
  if (!status.ok()) {
    fprintf(stderr, "load: %s\n", status.ToString().c_str());
    return 1;
  }

  net::ServerOptions server_options;
  server_options.port = 0;
  server_options.event_threads =
      static_cast<int>(args.GetInt("event_threads", 2));
  net::Server server(server_options, db.get());
  status = server.Start();
  if (!status.ok()) {
    fprintf(stderr, "server: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("Serving sweep: %s behind the binary-protocol server on port %d, "
         "%lld records, %.1fs per pass\n",
         store_name.c_str(), server.port(), static_cast<long long>(records),
         seconds);
  benchutil::PrintRow("conns", {"max ops/sec", "p99 us", "paced ops/sec",
                                "intended p99", "req/batch"});

  std::vector<std::string> rows;
  for (int conns : conn_counts) {
    net::ClientOptions client_options;
    client_options.port = server.port();
    client_options.connections = conns;
    std::unique_ptr<net::RemoteStore> remote;
    status = net::RemoteStore::Open(client_options, &remote);
    if (!status.ok()) {
      fprintf(stderr, "connect (%d conns): %s\n", conns,
              status.ToString().c_str());
      return 1;
    }
    net::Server::Stats before = server.GetStats();
    SweepPoint point;
    status = RunSweep(remote.get(), &workload, conns, seconds, &point);
    if (!status.ok()) {
      fprintf(stderr, "sweep (%d conns): %s\n", conns,
              status.ToString().c_str());
      return 1;
    }
    net::Server::Stats after = server.GetStats();
    point.batches = after.batches - before.batches;
    point.requests = after.requests - before.requests;
    double req_per_batch =
        point.batches > 0
            ? static_cast<double>(point.requests) /
                  static_cast<double>(point.batches)
            : 0.0;
    benchutil::PrintRow(
        std::to_string(conns),
        {benchutil::FormatOps(point.max_ops_sec),
         std::to_string(point.measured_p99_us),
         benchutil::FormatOps(point.paced_ops_sec),
         std::to_string(point.intended_p99_us),
         benchutil::FormatMs(req_per_batch)});
    char row[512];
    snprintf(row, sizeof(row),
             "{\"bench\": \"serving\", \"store\": \"%s\", "
             "\"connections\": %d, \"ops_per_sec\": %.6g, "
             "\"measured_p99_us\": %llu, \"paced_ops_per_sec\": %.6g, "
             "\"intended_p99_us\": %llu, \"intended_p95_us\": %llu, "
             "\"requests_per_batch\": %.6g}",
             store_name.c_str(), point.connections, point.max_ops_sec,
             static_cast<unsigned long long>(point.measured_p99_us),
             point.paced_ops_sec,
             static_cast<unsigned long long>(point.intended_p99_us),
             static_cast<unsigned long long>(point.intended_p95_us),
             req_per_batch);
    rows.push_back(row);
  }

  server.Stop();
  Env::Default()->RemoveDirRecursively(dir);
  status = MergeRows(out_path, rows);
  if (!status.ok()) {
    fprintf(stderr, "write %s: %s\n", out_path.c_str(),
            status.ToString().c_str());
    return 1;
  }
  printf("results merged into %s\n", out_path.c_str());
  return 0;
}
