#include "stores/hbase_store.h"

#include <algorithm>
#include <functional>

#include "common/clock.h"
#include "common/coding.h"
#include "common/hash.h"

namespace apmbench::stores {

namespace {

constexpr char kFamily[] = "f";

/// HBase's on-disk KeyValue carries full framing around every cell:
/// key length (4), value length (4), row length (2), family length (1),
/// type (1), and the 8-byte timestamp. We store that framing verbatim —
/// it is the structural reason a 75-byte record costs HBase several
/// hundred bytes on disk (Figure 17).
constexpr size_t kKeyValueFraming = 4 + 4 + 2 + 1 + 1 + 8;

std::string EncodeCellValue(const Slice& row_key, const Slice& value) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(row_key.size() + 2 + 8));
  PutFixed32(&out, static_cast<uint32_t>(value.size()));
  out.push_back(static_cast<char>(row_key.size() & 0xff));
  out.push_back(static_cast<char>((row_key.size() >> 8) & 0xff));
  out.push_back(1);  // family length
  out.push_back(4);  // type = Put
  PutFixed64(&out, NowMicros());
  out.append(value.data(), value.size());
  return out;
}

bool DecodeCellValue(const Slice& cell_value, Slice* value) {
  if (cell_value.size() < kKeyValueFraming) return false;
  *value = Slice(cell_value.data() + kKeyValueFraming,
                 cell_value.size() - kKeyValueFraming);
  return true;
}

/// Streams every cell of `row` to `visit` with one scan bounded by the
/// row's end, the way HBase's Get is a scan whose stop row is the row
/// itself. Cell keys are row + '\0' + family + ':' + qualifier, so
/// [row + '\0', row + '\x01') holds exactly this row's cells, however many
/// there are.
Status ScanRowCells(
    lsm::DB* db, const Slice& row,
    const std::function<bool(const Slice& key, const Slice& value)>& visit) {
  std::string start = row.ToString();
  start.push_back('\0');
  std::string limit = row.ToString();
  limit.push_back('\x01');
  return db->Scan(lsm::ReadOptions(), Slice(start), Slice(limit), visit);
}

/// Default pre-split sample: the YCSB key space ("user" + FNV-hashed
/// sequence numbers), which is what the benchmark loads.
std::vector<std::string> DefaultSplitSample() {
  std::vector<std::string> sample;
  sample.reserve(4096);
  for (uint64_t i = 0; i < 4096; i++) {
    uint64_t hashed = apmbench::FnvHash64(i);
    std::string digits = std::to_string(hashed);
    std::string key = "user";
    int pad = 25 - 4 - static_cast<int>(digits.size());
    for (int j = 0; j < pad; j++) key.push_back('0');
    key.append(digits);
    sample.push_back(std::move(key));
  }
  return sample;
}

}  // namespace

std::string HBaseStore::CellKey(const Slice& row, const Slice& qualifier) {
  std::string key = row.ToString();
  key.push_back('\0');
  key.append(kFamily);
  key.push_back(':');
  key.append(qualifier.data(), qualifier.size());
  return key;
}

bool HBaseStore::ParseCellKey(const Slice& cell_key, Slice* row,
                              Slice* qualifier) {
  const char* sep = static_cast<const char*>(
      memchr(cell_key.data(), '\0', cell_key.size()));
  if (sep == nullptr) return false;
  size_t row_len = static_cast<size_t>(sep - cell_key.data());
  *row = Slice(cell_key.data(), row_len);
  // Skip '\0' + family + ':'.
  size_t prefix = row_len + 1 + sizeof(kFamily) - 1 + 1;
  if (cell_key.size() < prefix) return false;
  *qualifier = Slice(cell_key.data() + prefix, cell_key.size() - prefix);
  return true;
}

HBaseStore::HBaseStore(const StoreOptions& options,
                       cluster::RegionMap regions)
    : options_(options),
      regions_(std::move(regions)),
      fanout_(options.fanout_threads > 0
                  ? options.fanout_threads
                  : FanoutExecutor::DefaultPoolSize(options.num_nodes)) {}

Status HBaseStore::Open(const StoreOptions& options,
                        std::unique_ptr<HBaseStore>* store) {
  if (options.base_dir.empty()) {
    return Status::InvalidArgument("StoreOptions::base_dir must be set");
  }
  std::vector<std::string> sample = options.region_split_sample;
  if (sample.empty()) sample = DefaultSplitSample();
  int num_regions = options.num_nodes * options.regions_per_server;
  cluster::RegionMap regions = cluster::RegionMap::FromSample(
      std::move(sample), num_regions, options.num_nodes);

  std::unique_ptr<HBaseStore> s(new HBaseStore(options, std::move(regions)));
  for (int i = 0; i < options.num_nodes; i++) {
    lsm::Options db_options;
    db_options.dir = options.base_dir + "/node" + std::to_string(i);
    db_options.env = options.env;
    db_options.memtable_bytes = options.memtable_bytes;
    db_options.block_cache_bytes = options.block_cache_bytes;
    db_options.block_restart_interval = options.lsm_block_restart_interval;
    db_options.compression = options.lsm_compression;
    db_options.compaction_style = lsm::CompactionStyle::kLeveled;
    std::unique_ptr<lsm::DB> db;
    APM_RETURN_IF_ERROR(lsm::DB::Open(db_options, &db));
    s->nodes_.push_back(std::move(db));
  }
  *store = std::move(s);
  return Status::OK();
}

Status HBaseStore::Insert(const std::string& table, const Slice& key,
                          const ycsb::Record& record) {
  (void)table;
  int node = regions_.Route(key);
  lsm::DB* db = nodes_[static_cast<size_t>(node)].get();
  // A row put is atomic in HBase: all cells go through one WAL append.
  lsm::WriteBatch batch;
  for (const auto& [field, value] : record) {
    std::string cell_key = CellKey(key, Slice(field));
    std::string cell_value = EncodeCellValue(key, Slice(value));
    batch.Put(Slice(cell_key), Slice(cell_value));
  }
  return db->Write(batch);
}

Status HBaseStore::Update(const std::string& table, const Slice& key,
                          const ycsb::Record& record) {
  // HBase puts write new cell versions; identical path.
  return Insert(table, key, record);
}

Status HBaseStore::Read(const std::string& table, const Slice& key,
                        ycsb::Record* record) {
  (void)table;
  record->clear();
  int node = regions_.Route(key);
  lsm::DB* db = nodes_[static_cast<size_t>(node)].get();
  bool corrupt = false;
  APM_RETURN_IF_ERROR(ScanRowCells(
      db, key, [&](const Slice& cell_key, const Slice& cell_value) {
        Slice row, qualifier, value;
        if (!ParseCellKey(cell_key, &row, &qualifier) ||
            !DecodeCellValue(cell_value, &value)) {
          corrupt = true;
          return false;
        }
        record->emplace_back(qualifier.ToString(), value.ToString());
        return true;
      }));
  if (corrupt) return Status::Corruption("bad cell");
  if (record->empty()) return Status::NotFound();
  return Status::OK();
}

Status HBaseStore::CollectRows(int node, const std::string& cursor,
                               const std::string& region_end, int max_rows,
                               std::vector<ycsb::KeyedRecord>* rows) {
  lsm::DB* db = nodes_[static_cast<size_t>(node)].get();
  const size_t first = rows->size();
  bool corrupt = false;
  // Row keys hold no '\0', so a cell key is below region_end exactly when
  // its row is, and region_end bounds the cell scan; an empty region_end
  // (the last region) is the scan's "no bound". Each row is built in
  // place at rows->back(); the scan stops at the first cell of the row
  // after the max_rows-th.
  APM_RETURN_IF_ERROR(db->Scan(
      lsm::ReadOptions(), Slice(cursor), Slice(region_end),
      [&](const Slice& cell_key, const Slice& cell_value) {
        Slice row, qualifier, value;
        if (!ParseCellKey(cell_key, &row, &qualifier)) {
          return true;  // not a cell (defensive)
        }
        if (rows->size() == first || Slice(rows->back().key) != row) {
          if (rows->size() - first == static_cast<size_t>(max_rows)) {
            return false;
          }
          rows->push_back(ycsb::KeyedRecord{row.ToString(), {}});
        }
        if (!DecodeCellValue(cell_value, &value)) {
          corrupt = true;
          return false;
        }
        rows->back().record.emplace_back(qualifier.ToString(),
                                         value.ToString());
        return true;
      }));
  if (corrupt) return Status::Corruption("bad cell value");
  return Status::OK();
}

Status HBaseStore::ScanKeyed(const std::string& table,
                             const Slice& start_key, int count,
                             std::vector<ycsb::KeyedRecord>* records) {
  (void)table;
  records->clear();
  // Ordered regions partition the key space, so a wave of consecutive
  // regions can be scanned in parallel and concatenated in region order
  // — the parallel-scanner pattern of HBase clients. Each wave spans up
  // to one region per region server; most 50-record scans finish in the
  // first wave's first region, which streams straight into `records`, and
  // the rest walk on wave by wave.
  int region = regions_.RegionOf(start_key);
  std::string cursor = start_key.ToString();
  while (static_cast<int>(records->size()) < count &&
         region < regions_.num_regions()) {
    const int wave = std::min(regions_.num_regions() - region,
                              std::max(1, regions_.num_servers()));
    std::vector<std::vector<ycsb::KeyedRecord>> runs(
        static_cast<size_t>(wave - 1));
    std::vector<FanoutExecutor::Task> tasks;
    tasks.reserve(static_cast<size_t>(wave));
    const int want = count - static_cast<int>(records->size());
    for (int w = 0; w < wave; w++) {
      const int r = region + w;
      std::string from = w == 0 ? cursor : regions_.RegionEndKey(r - 1);
      std::vector<ycsb::KeyedRecord>* out = w == 0 ? records : &runs[w - 1];
      tasks.push_back([this, out, r, from = std::move(from), want]() {
        return CollectRows(r % regions_.num_servers(), from,
                           regions_.RegionEndKey(r), want, out);
      });
    }
    APM_RETURN_IF_ERROR(fanout_.RunAll(std::move(tasks)));
    for (auto& run : runs) {
      for (auto& row : run) {
        if (static_cast<int>(records->size()) >= count) break;
        records->push_back(std::move(row));
      }
    }
    region += wave;
    cursor = regions_.RegionEndKey(region - 1);
  }
  return Status::OK();
}

Status HBaseStore::Delete(const std::string& table, const Slice& key) {
  (void)table;
  int node = regions_.Route(key);
  lsm::DB* db = nodes_[static_cast<size_t>(node)].get();
  lsm::WriteBatch batch;
  APM_RETURN_IF_ERROR(
      ScanRowCells(db, key, [&batch](const Slice& cell_key, const Slice&) {
        batch.Delete(cell_key);
        return true;
      }));
  if (batch.Count() == 0) return Status::NotFound();
  return db->Write(batch);
}

Status HBaseStore::DiskUsage(uint64_t* bytes) {
  std::vector<uint64_t> per_node(nodes_.size(), 0);
  std::vector<FanoutExecutor::Task> tasks;
  tasks.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); i++) {
    tasks.push_back(
        [this, &per_node, i]() { return nodes_[i]->DiskUsage(&per_node[i]); });
  }
  APM_RETURN_IF_ERROR(fanout_.RunAll(std::move(tasks)));
  *bytes = 0;
  for (uint64_t node_bytes : per_node) *bytes += node_bytes;
  return Status::OK();
}

lsm::DB::Stats HBaseStore::NodeStats(int node) {
  return nodes_[static_cast<size_t>(node)]->GetStats();
}

Status HBaseStore::VerifyIntegrity() {
  for (auto& node : nodes_) {
    APM_RETURN_IF_ERROR(node->VerifyIntegrity());
  }
  return Status::OK();
}

}  // namespace apmbench::stores
