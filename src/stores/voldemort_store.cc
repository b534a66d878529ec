#include "stores/voldemort_store.h"

#include "common/clock.h"
#include "common/coding.h"

namespace apmbench::stores {

VoldemortStore::VoldemortStore(const StoreOptions& options)
    : options_(options),
      ring_(options.num_nodes, /*partitions_per_node=*/2, /*seed=*/11),
      fanout_(options.fanout_threads > 0
                  ? options.fanout_threads
                  : FanoutExecutor::DefaultPoolSize(options.num_nodes)) {}

Status VoldemortStore::Open(const StoreOptions& options,
                            std::unique_ptr<VoldemortStore>* store) {
  if (options.base_dir.empty()) {
    return Status::InvalidArgument("StoreOptions::base_dir must be set");
  }
  std::unique_ptr<VoldemortStore> s(new VoldemortStore(options));
  Env* env = options.env != nullptr ? options.env : Env::Default();
  for (int i = 0; i < options.num_nodes; i++) {
    std::string dir = options.base_dir + "/node" + std::to_string(i);
    APM_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
    btree::Options db_options;
    db_options.path = dir + "/bdb.db";
    db_options.env = options.env;
    db_options.buffer_pool_bytes = options.buffer_pool_bytes;
    std::unique_ptr<btree::BTree> db;
    APM_RETURN_IF_ERROR(btree::BTree::Open(db_options, &db));
    s->nodes_.push_back(std::move(db));
  }
  *store = std::move(s);
  return Status::OK();
}

namespace {

// Voldemort stores each value as a Versioned<byte[]>: a vector clock
// (node-id/version entries plus a timestamp) precedes the payload, and
// BerkeleyDB JE wraps each log entry in its own ~30-byte header
// (checksum, LSN, entry type, transaction metadata). Both are written
// verbatim so the on-disk footprint reflects the real deployment
// (Figure 17).
constexpr size_t kBdbLogHeader = 30;

void EncodeVersioned(int node_id, const ycsb::Record& record,
                     std::string* out) {
  out->clear();
  out->append(kBdbLogHeader, '\0');
  PutFixed32(out, 1);  // vector clock entries
  PutFixed32(out, static_cast<uint32_t>(node_id));
  PutFixed64(out, 1);          // version
  PutFixed64(out, NowMicros());  // clock timestamp
  std::string payload;
  ycsb::EncodeRecord(record, &payload);
  out->append(payload);
}

bool DecodeVersioned(const Slice& data, ycsb::Record* record) {
  const size_t header = kBdbLogHeader + 4 + 4 + 8 + 8;
  if (data.size() < header) return false;
  return ycsb::DecodeRecord(
      Slice(data.data() + header, data.size() - header), record);
}

}  // namespace

Status VoldemortStore::Read(const std::string& table, const Slice& key,
                            ycsb::Record* record) {
  (void)table;
  int node = ring_.Route(key);
  std::string value;
  APM_RETURN_IF_ERROR(nodes_[static_cast<size_t>(node)]->Get(key, &value));
  if (!DecodeVersioned(Slice(value), record)) {
    return Status::Corruption("undecodable record");
  }
  return Status::OK();
}

Status VoldemortStore::ScanKeyed(const std::string& table,
                                 const Slice& start_key, int count,
                                 std::vector<ycsb::KeyedRecord>* records) {
  (void)table;
  (void)start_key;
  (void)count;
  records->clear();
  return Status::NotSupported(
      "the Voldemort YCSB client does not support scans");
}

Status VoldemortStore::Insert(const std::string& table, const Slice& key,
                              const ycsb::Record& record) {
  (void)table;
  int node = ring_.Route(key);
  std::string value;
  EncodeVersioned(node, record, &value);
  return nodes_[static_cast<size_t>(node)]->Put(key, Slice(value));
}

Status VoldemortStore::Update(const std::string& table, const Slice& key,
                              const ycsb::Record& record) {
  return Insert(table, key, record);
}

Status VoldemortStore::Delete(const std::string& table, const Slice& key) {
  (void)table;
  int node = ring_.Route(key);
  return nodes_[static_cast<size_t>(node)]->Delete(key);
}

Status VoldemortStore::DiskUsage(uint64_t* bytes) {
  // Scans stay NotSupported (matching the Voldemort YCSB client); the
  // multi-node operation here is the disk sweep.
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

btree::BTree::Stats VoldemortStore::NodeStats(int node) {
  return nodes_[static_cast<size_t>(node)]->GetStats();
}

}  // namespace apmbench::stores
