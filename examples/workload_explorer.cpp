// Workload explorer: define a custom operation mix on the command line
// and run it either against an embedded store (real engines, wall-clock
// time) or against a simulated cluster (the paper's scaling substrate).
//
//   ./workload_explorer mode=embedded store=redis read=0.3 insert=0.7
//   ./workload_explorer mode=sim store=cassandra nodes=8 workload=RSW

#include <cstdio>
#include <memory>
#include <string>

#include "common/env.h"
#include "common/properties.h"
#include "simstores/runner.h"
#include "stores/factory.h"
#include "ycsb/client.h"
#include "ycsb/workload.h"

using namespace apmbench;

namespace {

int RunEmbedded(const Properties& args) {
  const std::string store_name = args.GetString("store", "cassandra");
  std::string dir = "/tmp/apmbench-explorer";
  Env::Default()->RemoveDirRecursively(dir);
  stores::StoreOptions options;
  options.base_dir = dir;
  options.num_nodes = static_cast<int>(args.GetInt("nodes", 2));
  std::unique_ptr<ycsb::DB> db;
  Status status = stores::CreateStore(store_name, options, &db);
  if (!status.ok()) {
    fprintf(stderr, "open: %s\n", status.ToString().c_str());
    return 1;
  }

  Properties props;
  if (args.Contains("workload")) {
    Status preset =
        ycsb::CoreWorkload::Table1Preset(args.GetString("workload"), &props);
    if (!preset.ok()) {
      fprintf(stderr, "%s\n", preset.ToString().c_str());
      return 2;
    }
  }
  // Explicit proportions override the preset.
  for (const char* key : {"read", "insert", "scan", "update", "delete"}) {
    if (args.Contains(key)) {
      props.Set(std::string(key) + "proportion", args.GetString(key));
    }
  }
  props.Set("recordcount", args.GetString("records", "20000"));
  if (args.Contains("distribution")) {
    props.Set("requestdistribution", args.GetString("distribution"));
  }
  ycsb::CoreWorkload workload(props);

  printf("loading %llu records into embedded %s (%lld nodes)...\n",
         static_cast<unsigned long long>(workload.record_count()),
         store_name.c_str(),
         static_cast<long long>(args.GetInt("nodes", 2)));
  status = ycsb::LoadDatabase(db.get(), &workload, 4);
  if (!status.ok()) {
    fprintf(stderr, "load: %s\n", status.ToString().c_str());
    return 1;
  }

  ycsb::RunConfig config;
  config.threads = static_cast<int>(args.GetInt("threads", 8));
  config.duration_seconds = args.GetDouble("seconds", 3.0);
  ycsb::RunResult result;
  status = ycsb::RunWorkload(db.get(), &workload, config, &result);
  if (!status.ok()) {
    fprintf(stderr, "run: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("\n%s", result.Summary().c_str());
  db.reset();
  Env::Default()->RemoveDirRecursively(dir);
  return 0;
}

int RunSimulated(const Properties& args) {
  const std::string store_name = args.GetString("store", "cassandra");
  int nodes = static_cast<int>(args.GetInt("nodes", 8));
  simstores::WorkloadSpec spec =
      simstores::WorkloadSpec::Preset(args.GetString("workload", "R"));
  if (args.Contains("read")) spec.read = args.GetDouble("read");
  if (args.Contains("scan")) spec.scan = args.GetDouble("scan");
  if (args.Contains("insert")) spec.insert = args.GetDouble("insert");

  simstores::ClusterParams cluster =
      args.GetString("cluster", "M") == "D"
          ? simstores::ClusterParams::ClusterD(nodes)
          : simstores::ClusterParams::ClusterM(nodes);
  simstores::SimRunConfig config;
  config.duration_seconds = args.GetDouble("seconds", 8.0);
  config.warmup_seconds = config.duration_seconds * 0.2;
  config.arrival_rate_ops_sec = args.GetDouble("rate", 0.0);

  simstores::SimResult result;
  Status status =
      simstores::RunSimulation(store_name, cluster, spec, config, &result);
  if (!status.ok()) {
    fprintf(stderr, "sim: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("simulated %s on %d nodes (mix r=%.2f s=%.2f i=%.2f):\n",
         store_name.c_str(), nodes, spec.read, spec.scan, spec.insert);
  printf("  throughput  %.0f ops/sec\n", result.throughput_ops_sec);
  printf("  read lat    %.3f ms (p99 %.3f)\n",
         result.MeanLatencyMs(simstores::OpKind::kRead),
         result.latency(simstores::OpKind::kRead).Percentile(0.99) / 1000.0);
  printf("  write lat   %.3f ms\n",
         result.MeanLatencyMs(simstores::OpKind::kInsert));
  if (spec.scan > 0) {
    printf("  scan lat    %.3f ms\n",
           result.MeanLatencyMs(simstores::OpKind::kScan));
  }
  printf("  (%llu simulated events)\n",
         static_cast<unsigned long long>(result.events));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Properties args;
  for (int i = 1; i < argc; i++) {
    if (!args.ParseArg(argv[i]).ok()) {
      fprintf(stderr,
              "usage: %s mode=embedded|sim store=<name> [workload=R|RW|W|RS|"
              "RSW] [read=..] [insert=..] [scan=..] [nodes=N] [seconds=S]\n",
              argv[0]);
      return 2;
    }
  }
  if (args.GetString("mode", "embedded") == "sim") {
    return RunSimulated(args);
  }
  return RunEmbedded(args);
}
