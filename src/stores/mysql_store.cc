#include "stores/mysql_store.h"

#include <limits>

#include "common/coding.h"

namespace apmbench::stores {

MySQLStore::MySQLStore(const StoreOptions& options)
    : options_(options),
      sharder_(options.num_nodes),
      fanout_(options.fanout_threads > 0
                  ? options.fanout_threads
                  : FanoutExecutor::DefaultPoolSize(options.num_nodes)) {}

Status MySQLStore::Open(const StoreOptions& options,
                        std::unique_ptr<MySQLStore>* store) {
  if (options.base_dir.empty()) {
    return Status::InvalidArgument("StoreOptions::base_dir must be set");
  }
  std::unique_ptr<MySQLStore> s(new MySQLStore(options));
  Env* env = options.env != nullptr ? options.env : Env::Default();
  for (int i = 0; i < options.num_nodes; i++) {
    std::string dir = options.base_dir + "/node" + std::to_string(i);
    APM_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
    btree::Options db_options;
    db_options.path = dir + "/innodb.db";
    db_options.env = options.env;
    db_options.buffer_pool_bytes = options.buffer_pool_bytes;
    if (options.mysql_binlog) {
      db_options.binlog_path = dir + "/binlog.001";
    }
    std::unique_ptr<btree::BTree> db;
    APM_RETURN_IF_ERROR(btree::BTree::Open(db_options, &db));
    s->nodes_.push_back(std::move(db));
  }
  *store = std::move(s);
  return Status::OK();
}

namespace {

// InnoDB's compact row format spends ~18 bytes per row beyond the user
// columns: a 5-byte record header, the 6-byte transaction id, and the
// 7-byte rollback pointer. Stored verbatim so the page-file (and the
// binlog, which logs the same row image) reflects the real footprint.
constexpr size_t kInnoDbRowHeader = 5 + 6 + 7;

void EncodeInnoDbRow(const ycsb::Record& record, std::string* out) {
  out->clear();
  out->append(kInnoDbRowHeader, '\0');
  std::string payload;
  ycsb::EncodeRecord(record, &payload);
  out->append(payload);
}

bool DecodeInnoDbRow(const Slice& data, ycsb::Record* record) {
  if (data.size() < kInnoDbRowHeader) return false;
  return ycsb::DecodeRecord(
      Slice(data.data() + kInnoDbRowHeader, data.size() - kInnoDbRowHeader),
      record);
}

}  // namespace

Status MySQLStore::Read(const std::string& table, const Slice& key,
                        ycsb::Record* record) {
  (void)table;
  int node = sharder_.Route(key);
  std::string value;
  APM_RETURN_IF_ERROR(nodes_[static_cast<size_t>(node)]->Get(key, &value));
  if (!DecodeInnoDbRow(Slice(value), record)) {
    return Status::Corruption("undecodable record");
  }
  return Status::OK();
}

Status MySQLStore::ScanKeyed(const std::string& table,
                             const Slice& start_key, int count,
                             std::vector<ycsb::KeyedRecord>* records) {
  (void)table;
  records->clear();
  // The YCSB RDBMS client sends the scan to the shard holding the start
  // key only (hash sharding makes a complete ordered scan impossible
  // anyway) as SELECT ... WHERE key >= start — without a LIMIT unless the
  // ablation flag is set.
  int node = sharder_.Route(start_key);
  int fetch = options_.mysql_limit_scans
                  ? count
                  : std::numeric_limits<int>::max();
  std::vector<std::pair<std::string, std::string>> rows;
  APM_RETURN_IF_ERROR(
      nodes_[static_cast<size_t>(node)]->Scan(start_key, fetch, &rows));
  int keep = std::min<int>(count, static_cast<int>(rows.size()));
  records->reserve(static_cast<size_t>(keep));
  for (int i = 0; i < keep; i++) {
    ycsb::KeyedRecord entry;
    entry.key = rows[static_cast<size_t>(i)].first;
    if (!DecodeInnoDbRow(Slice(rows[static_cast<size_t>(i)].second),
                         &entry.record)) {
      return Status::Corruption("undecodable record in scan");
    }
    records->push_back(std::move(entry));
  }
  return Status::OK();
}

Status MySQLStore::Insert(const std::string& table, const Slice& key,
                          const ycsb::Record& record) {
  (void)table;
  std::string value;
  EncodeInnoDbRow(record, &value);
  int node = sharder_.Route(key);
  return nodes_[static_cast<size_t>(node)]->Put(key, Slice(value));
}

Status MySQLStore::Update(const std::string& table, const Slice& key,
                          const ycsb::Record& record) {
  return Insert(table, key, record);
}

Status MySQLStore::Delete(const std::string& table, const Slice& key) {
  (void)table;
  int node = sharder_.Route(key);
  return nodes_[static_cast<size_t>(node)]->Delete(key);
}

Status MySQLStore::DiskUsage(uint64_t* bytes) {
  // Scans stay single-shard by design (the paper's RS collapse depends
  // on it); the multi-node operation here is the disk sweep.
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

btree::BTree::Stats MySQLStore::NodeStats(int node) {
  return nodes_[static_cast<size_t>(node)]->GetStats();
}

}  // namespace apmbench::stores
