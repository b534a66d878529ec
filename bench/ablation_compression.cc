// The paper's second Section-8 future-work item, implemented: the impact
// of compression on disk usage and throughput. Loads the same YCSB data
// through the real Cassandra-like store with block compression off and
// on, measuring bytes on disk and insert/read cost. The disk footprint is
// additionally broken down into data-block and index-block bytes by
// reading every SSTable footer, so the block-format share of the
// footprint is visible next to the compression share.
//
// Usage: ablation_compression [out=<path>] [build=<label>]
//
// With out= set, emits one JSON row per compression setting through the
// shared JsonResultWriter shape.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/env.h"
#include "common/properties.h"
#include "lsm/sstable.h"
#include "stores/factory.h"
#include "ycsb/client.h"
#include "ycsb/workload.h"

namespace {

using namespace apmbench;

struct CompressionRun {
  double load_us_per_op = 0;
  double read_us_per_op = 0;
  double bytes_per_record = 0;
  // On-disk block breakdown summed over every SSTable footer.
  uint64_t data_block_bytes = 0;
  uint64_t index_block_bytes = 0;
  uint64_t num_tables = 0;
};

// Sums data-block and index-block bytes over every .sst under
// `base_dir/node*/`. The data region of a table is everything before the
// filter blocks, which is exactly the footer's filter_offset.
void SumBlockBytes(Env* env, const std::string& base_dir,
                   CompressionRun* run) {
  std::vector<std::string> nodes;
  if (!env->GetChildren(base_dir, &nodes).ok()) return;
  for (const auto& node : nodes) {
    const std::string node_dir = base_dir + "/" + node;
    std::vector<std::string> files;
    if (!env->GetChildren(node_dir, &files).ok()) continue;
    for (const auto& file : files) {
      if (file.size() < 4 || file.compare(file.size() - 4, 4, ".sst") != 0) {
        continue;
      }
      lsm::TableFooter footer;
      if (!lsm::ReadTableFooter(env, node_dir + "/" + file, &footer).ok()) {
        continue;
      }
      run->data_block_bytes += footer.filter_offset;
      run->index_block_bytes += footer.index_size;
      run->num_tables++;
    }
  }
}

CompressionRun RunOnce(CompressionType compression, int64_t records) {
  CompressionRun result;
  std::string dir = "/tmp/apmbench-ablation-compress";
  Env* env = Env::Default();
  env->RemoveDirRecursively(dir);
  env->CreateDirIfMissing(dir);

  stores::StoreOptions options;
  options.base_dir = dir;
  options.num_nodes = 1;
  // Small enough that even reduced-APMBENCH_SCALE runs flush several
  // SSTables — the block-bytes breakdown below reads table footers, and
  // data parked in the WAL/memtable would leave it empty.
  options.memtable_bytes = 128 * 1024;
  options.lsm_compression = compression;
  std::unique_ptr<ycsb::DB> db;
  if (!stores::CreateStore("cassandra", options, &db).ok()) return result;

  Properties props;
  props.Set("recordcount", std::to_string(records));
  ycsb::CoreWorkload workload(props);

  uint64_t start = NowMicros();
  if (!ycsb::LoadDatabase(db.get(), &workload, 1).ok()) return result;
  result.load_us_per_op =
      static_cast<double>(NowMicros() - start) / static_cast<double>(records);

  Random rng(21);
  const int reads = 20000;
  ycsb::Record record;
  start = NowMicros();
  for (int i = 0; i < reads; i++) {
    std::string key = workload.BuildKeyName(
        rng.Uniform(static_cast<uint64_t>(records)));
    db->Read(workload.table(), Slice(key), &record);
  }
  result.read_us_per_op = static_cast<double>(NowMicros() - start) / reads;

  db.reset();  // flush everything
  uint64_t bytes = 0;
  env->GetDirectorySize(dir, &bytes);
  result.bytes_per_record =
      static_cast<double>(bytes) / static_cast<double>(records);
  SumBlockBytes(env, dir, &result);
  env->RemoveDirRecursively(dir);
  return result;
}

void AddRow(benchutil::JsonResultWriter* out, const std::string& label,
            const CompressionRun& run, int64_t records,
            const std::string& build_label) {
  out->AddRow()
      .Str("bench", "compression_ablation")
      .Str("compression", label)
      .Int("records", records)
      .Num("bytes_per_record", run.bytes_per_record)
      .Num("load_us_per_op", run.load_us_per_op)
      .Num("read_us_per_op", run.read_us_per_op)
      .Int("data_block_bytes", static_cast<int64_t>(run.data_block_bytes))
      .Int("index_block_bytes", static_cast<int64_t>(run.index_block_bytes))
      .Int("num_tables", static_cast<int64_t>(run.num_tables))
      .Str("build", build_label);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string build_label = "dev";
  for (int i = 1; i < argc; i++) {
    apmbench::Properties props;
    if (!props.ParseArg(argv[i]).ok()) {
      fprintf(stderr, "usage: %s [out=<path>] [build=<label>]\n", argv[0]);
      return 2;
    }
    if (props.Contains("out")) out_path = props.GetString("out");
    if (props.Contains("build")) build_label = props.GetString("build");
  }

  const int64_t records = benchutil::ScaleRecords();
  printf("APMBench compression ablation (paper Section 8 future work): "
         "%lld records through the real Cassandra-like store\n\n",
         static_cast<long long>(records));

  CompressionRun plain = RunOnce(CompressionType::kNone, records);
  CompressionRun lz = RunOnce(CompressionType::kLz, records);

  printf("%-22s %14s %14s\n", "", "uncompressed", "lz");
  printf("%-22s %14.1f %14.1f\n", "bytes/record", plain.bytes_per_record,
         lz.bytes_per_record);
  printf("%-22s %14llu %14llu\n", "data block bytes",
         static_cast<unsigned long long>(plain.data_block_bytes),
         static_cast<unsigned long long>(lz.data_block_bytes));
  printf("%-22s %14llu %14llu\n", "index block bytes",
         static_cast<unsigned long long>(plain.index_block_bytes),
         static_cast<unsigned long long>(lz.index_block_bytes));
  printf("%-22s %14.2f %14.2f\n", "load us/op", plain.load_us_per_op,
         lz.load_us_per_op);
  printf("%-22s %14.2f %14.2f\n", "read us/op", plain.read_us_per_op,
         lz.read_us_per_op);
  printf("\nExpected shape (Section 8's conjecture): compression shrinks "
         "the on-disk footprint at a CPU cost on the write/flush path.\n");

  if (!out_path.empty()) {
    benchutil::JsonResultWriter results(out_path);
    AddRow(&results, "none", plain, records, build_label);
    AddRow(&results, "lz", lz, records, build_label);
    apmbench::Status status = results.WriteFile();
    if (!status.ok()) {
      fprintf(stderr, "write %s: %s\n", results.path().c_str(),
              status.ToString().c_str());
      return 1;
    }
    printf("results written to %s\n", results.path().c_str());
  }
  return 0;
}
