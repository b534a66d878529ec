#include "net/remote_store.h"

#include <utility>

#include "common/status.h"

namespace apmbench::net {

namespace {

Request MakeRequest(Opcode op, const std::string& table, const Slice& key) {
  Request request;
  request.op = op;
  request.table = table;
  request.key = key.ToString();
  return request;
}

}  // namespace

Status RemoteStore::Open(const ClientOptions& options,
                         std::unique_ptr<RemoteStore>* store) {
  std::unique_ptr<RemoteStore> s(new RemoteStore(options));
  APM_RETURN_IF_ERROR(s->client_.Connect());
  Request ping;
  ping.op = Opcode::kPing;
  Response response;
  APM_RETURN_IF_ERROR(s->client_.Call(ping, &response));
  *store = std::move(s);
  return Status::OK();
}

Status RemoteStore::Read(const std::string& table, const Slice& key,
                         ycsb::Record* record) {
  Response response;
  Status s = client_.Call(MakeRequest(Opcode::kRead, table, key), &response);
  if (s.ok()) *record = std::move(response.record);
  return s;
}

Status RemoteStore::ScanKeyed(const std::string& table,
                              const Slice& start_key, int count,
                              std::vector<ycsb::KeyedRecord>* records) {
  Request request = MakeRequest(Opcode::kScan, table, start_key);
  request.count = count;
  Response response;
  Status s = client_.Call(request, &response);
  if (s.ok()) *records = std::move(response.records);
  return s;
}

Status RemoteStore::Insert(const std::string& table, const Slice& key,
                           const ycsb::Record& record) {
  Request request = MakeRequest(Opcode::kInsert, table, key);
  request.record = record;
  Response response;
  return client_.Call(request, &response);
}

Status RemoteStore::Update(const std::string& table, const Slice& key,
                           const ycsb::Record& record) {
  Request request = MakeRequest(Opcode::kUpdate, table, key);
  request.record = record;
  Response response;
  return client_.Call(request, &response);
}

Status RemoteStore::Delete(const std::string& table, const Slice& key) {
  Response response;
  return client_.Call(MakeRequest(Opcode::kDelete, table, key), &response);
}

Status RemoteStore::DiskUsage(uint64_t* bytes) {
  Request request;
  request.op = Opcode::kDiskUsage;
  Response response;
  Status s = client_.Call(request, &response);
  if (s.ok()) *bytes = response.disk_bytes;
  return s;
}

}  // namespace apmbench::net
