#ifndef APMBENCH_STORES_HBASE_STORE_H_
#define APMBENCH_STORES_HBASE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/routing.h"
#include "common/fanout.h"
#include "lsm/db.h"
#include "stores/store_options.h"
#include "ycsb/db.h"

namespace apmbench::stores {

/// HBase-architecture store: ordered regions pre-split over region
/// servers, each server an LSM engine with leveled merges, and — the
/// detail that drives HBase's storage profile — *per-cell* storage: every
/// field of a record is a separate KeyValue carrying the full row key,
/// column family, qualifier, and timestamp. That per-cell schema is why
/// the paper measured HBase at 7.5 GB per node for 700 MB of raw data
/// (Figure 17). Ordered partitioning keeps scans region-local.
///
/// Thread-safety: the adapter adds no locking — the region map is
/// immutable after Open, and concurrency is handled by the LSM engine's
/// writer queue and lock-free reads (see docs/concurrency.md).
class HBaseStore final : public ycsb::DB {
 public:
  static Status Open(const StoreOptions& options,
                     std::unique_ptr<HBaseStore>* store);

  Status Read(const std::string& table, const Slice& key,
              ycsb::Record* record) override;
  Status ScanKeyed(const std::string& table, const Slice& start_key,
                   int count,
                   std::vector<ycsb::KeyedRecord>* records) override;
  Status Insert(const std::string& table, const Slice& key,
                const ycsb::Record& record) override;
  Status Update(const std::string& table, const Slice& key,
                const ycsb::Record& record) override;
  Status Delete(const std::string& table, const Slice& key) override;
  Status DiskUsage(uint64_t* bytes) override;

  lsm::DB::Stats NodeStats(int node);
  /// Scrubs every node's engine (checksums, ordering, manifest
  /// agreement); Corruption on the first violation.
  Status VerifyIntegrity();
  const cluster::RegionMap& regions() const { return regions_; }

  /// Cell key layout: row + '\0' + family ':' qualifier, so the cell's
  /// lsm row (lsm/row.h) is its HBase row. Exposed for tests.
  static std::string CellKey(const Slice& row, const Slice& qualifier);
  /// Splits a cell key back into (row, qualifier); false if malformed.
  static bool ParseCellKey(const Slice& cell_key, Slice* row,
                           Slice* qualifier);

 private:
  HBaseStore(const StoreOptions& options, cluster::RegionMap regions);

  /// Appends up to `max_rows` whole rows from one node to `rows`, starting
  /// at `cursor` and stopping at `region_end` (exclusive; empty =
  /// unbounded), with one streamed engine scan.
  Status CollectRows(int node, const std::string& cursor,
                     const std::string& region_end, int max_rows,
                     std::vector<ycsb::KeyedRecord>* rows);

  StoreOptions options_;
  cluster::RegionMap regions_;
  FanoutExecutor fanout_;
  std::vector<std::unique_ptr<lsm::DB>> nodes_;
};

}  // namespace apmbench::stores

#endif  // APMBENCH_STORES_HBASE_STORE_H_
