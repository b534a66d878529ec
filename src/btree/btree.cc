#include "btree/btree.h"

#include <algorithm>
#include <cassert>

#include "btree/node.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"

namespace apmbench::btree {

namespace {

constexpr uint8_t kBinlogPut = 1;
constexpr uint8_t kBinlogDelete = 2;

size_t LeafCellBytes(size_t klen, size_t vlen) {
  return static_cast<size_t>(VarintLength(klen)) + klen +
         static_cast<size_t>(VarintLength(vlen)) + vlen;
}

size_t InternalCellBytes(size_t klen) {
  return static_cast<size_t>(VarintLength(klen)) + klen + 4;
}

}  // namespace

Status Binlog::Open(Env* env, const std::string& path,
                    std::unique_ptr<Binlog>* binlog) {
  std::unique_ptr<WritableFile> file;
  APM_RETURN_IF_ERROR(env->NewAppendableFile(path, &file));
  binlog->reset(new Binlog(std::move(file)));
  return Status::OK();
}

GroupCommitLog::Ticket Binlog::Enqueue(uint8_t op, const Slice& key,
                                       const Slice& value, bool sync) {
  std::string payload;
  payload.push_back(static_cast<char>(op));
  PutLengthPrefixedSlice(&payload, key);
  PutLengthPrefixedSlice(&payload, value);
  std::string framed;
  PutFixed32(&framed, MaskCrc(Crc32c(payload.data(), payload.size())));
  PutFixed32(&framed, static_cast<uint32_t>(payload.size()));
  framed.append(payload);
  return log_->Enqueue(framed, sync);
}

GroupCommitLog::Ticket Binlog::EnqueuePut(const Slice& key, const Slice& value,
                                          bool sync) {
  return Enqueue(kBinlogPut, key, value, sync);
}

GroupCommitLog::Ticket Binlog::EnqueueDelete(const Slice& key, bool sync) {
  return Enqueue(kBinlogDelete, key, Slice(), sync);
}

Status Binlog::Commit(GroupCommitLog::Ticket ticket) {
  return log_->Commit(ticket);
}

Status Binlog::AppendPut(const Slice& key, const Slice& value, bool sync) {
  return Commit(EnqueuePut(key, value, sync));
}

Status Binlog::AppendDelete(const Slice& key, bool sync) {
  return Commit(EnqueueDelete(key, sync));
}

uint64_t Binlog::Size() const { return log_->Size(); }

GroupCommitLog::Stats Binlog::GetStats() const { return log_->GetStats(); }

BTree::BTree(const Options& options) : options_(options) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
}

Status BTree::Open(const Options& options, std::unique_ptr<BTree>* tree) {
  std::unique_ptr<BTree> t(new BTree(options));
  PagerOptions pager_options;
  pager_options.path = options.path;
  pager_options.env = t->env_;
  pager_options.page_size = options.page_size;
  pager_options.buffer_pool_bytes = options.buffer_pool_bytes;
  bool created = false;
  APM_RETURN_IF_ERROR(Pager::Open(pager_options, &created, &t->pager_));
  t->num_keys_ = t->pager_->user_counter();
  if (!options.binlog_path.empty()) {
    APM_RETURN_IF_ERROR(
        Binlog::Open(t->env_, options.binlog_path, &t->binlog_));
  }
  *tree = std::move(t);
  return Status::OK();
}

size_t BTree::MaxCellBytes() const { return options_.page_size / 4; }

Status BTree::FindLeaf(const Slice& key, Pager::PageHandle* leaf) {
  uint32_t page_id = pager_->root();
  if (page_id == 0) return Status::NotFound("empty tree");
  for (;;) {
    Pager::PageHandle handle;
    APM_RETURN_IF_ERROR(pager_->FetchPage(page_id, &handle));
    NodeRef node(handle.data(), options_.page_size);
    if (node.is_leaf()) {
      *leaf = std::move(handle);
      return Status::OK();
    }
    // Route to the first child whose separator exceeds the key.
    int n = node.nkeys();
    int i = node.LowerBound(key);
    if (i < n && node.KeyAt(i) == key) i++;
    page_id = (i < n) ? node.ChildAt(i) : node.right();
  }
}

Status BTree::Get(const Slice& key, std::string* value) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Pager::PageHandle leaf;
  Status s = FindLeaf(key, &leaf);
  if (s.IsNotFound()) return Status::NotFound();
  APM_RETURN_IF_ERROR(s);
  NodeRef node(leaf.data(), options_.page_size);
  int i = node.LowerBound(key);
  if (i < node.nkeys() && node.KeyAt(i) == key) {
    Slice v = node.ValueAt(i);
    value->assign(v.data(), v.size());
    return Status::OK();
  }
  return Status::NotFound();
}

Status BTree::Scan(const Slice& start, int count,
                   std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  std::shared_lock<std::shared_mutex> lock(mu_);
  Pager::PageHandle leaf;
  Status s = FindLeaf(start, &leaf);
  if (s.IsNotFound()) return Status::OK();
  APM_RETURN_IF_ERROR(s);

  NodeRef node(leaf.data(), options_.page_size);
  int i = node.LowerBound(start);
  while (static_cast<int>(out->size()) < count) {
    if (i >= node.nkeys()) {
      uint32_t next = node.right();
      if (next == 0) break;
      Pager::PageHandle next_handle;
      APM_RETURN_IF_ERROR(pager_->FetchPage(next, &next_handle));
      leaf = std::move(next_handle);
      node = NodeRef(leaf.data(), options_.page_size);
      i = 0;
      continue;
    }
    out->emplace_back(node.KeyAt(i).ToString(), node.ValueAt(i).ToString());
    i++;
  }
  return Status::OK();
}

Status BTree::Put(const Slice& key, const Slice& value) {
  if (LeafCellBytes(key.size(), value.size()) > MaxCellBytes()) {
    return Status::InvalidArgument("record too large for page");
  }
  GroupCommitLog::Ticket ticket = 0;
  bool logged = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    APM_RETURN_IF_ERROR(PutLocked(key, value));
    pager_->set_user_counter(num_keys_);
    if (binlog_ != nullptr) {
      // Reserve binlog order under the lock; pay the I/O after releasing
      // it so concurrent writers' records share one append/fsync.
      ticket = binlog_->EnqueuePut(key, value, options_.sync_binlog);
      logged = true;
    }
  }
  if (logged) return binlog_->Commit(ticket);
  return Status::OK();
}

Status BTree::PutLocked(const Slice& key, const Slice& value) {
  if (pager_->root() == 0) {
    uint32_t root_id;
    Pager::PageHandle handle;
    APM_RETURN_IF_ERROR(pager_->NewPage(&root_id, &handle));
    NodeRef node(handle.data(), options_.page_size);
    node.Init(NodeRef::kLeaf);
    bool ok = node.InsertLeaf(key, value);
    APM_CHECK(ok);
    handle.MarkDirty();
    pager_->set_root(root_id);
    num_keys_++;
    return Status::OK();
  }

  SplitResult split;
  APM_RETURN_IF_ERROR(InsertRec(pager_->root(), key, value, &split));
  if (split.happened) {
    // Grow the tree: fresh internal root with two children.
    uint32_t new_root_id;
    Pager::PageHandle handle;
    APM_RETURN_IF_ERROR(pager_->NewPage(&new_root_id, &handle));
    NodeRef root(handle.data(), options_.page_size);
    root.Init(NodeRef::kInternal);
    bool ok = root.InsertInternal(Slice(split.promoted_key), pager_->root());
    APM_CHECK(ok);
    root.set_right(split.right_page);
    handle.MarkDirty();
    pager_->set_root(new_root_id);
  }
  return Status::OK();
}

Status BTree::InsertRec(uint32_t page_id, const Slice& key,
                        const Slice& value, SplitResult* split) {
  Pager::PageHandle handle;
  APM_RETURN_IF_ERROR(pager_->FetchPage(page_id, &handle));
  NodeRef node(handle.data(), options_.page_size);

  if (node.is_leaf()) {
    handle.MarkDirty();
    int i = node.LowerBound(key);
    bool exists = i < node.nkeys() && node.KeyAt(i) == key;
    if (exists) {
      if (node.UpdateLeaf(i, value)) return Status::OK();
      // The old cell was removed and the new value does not fit: fall
      // through to the splitting insert below.
    } else {
      num_keys_++;
      if (node.InsertLeaf(key, value)) return Status::OK();
    }
    return SplitLeafAndInsert(&handle, key, value, split);
  }

  // Internal node: route and recurse.
  int n = node.nkeys();
  int i = node.LowerBound(key);
  if (i < n && node.KeyAt(i) == key) i++;
  int route = i;  // n means the rightmost child
  uint32_t child = (route < n) ? node.ChildAt(route) : node.right();

  SplitResult child_split;
  APM_RETURN_IF_ERROR(InsertRec(child, key, value, &child_split));
  if (!child_split.happened) return Status::OK();

  // The child split into (child: keys < k) and (right_page: keys >= k).
  // Rebuild this node's cell vector with the extra separator. Internal
  // nodes only change on child splits, so the O(page) rebuild is off the
  // hot path.
  handle.MarkDirty();
  struct Cell {
    std::string key;
    uint32_t child;
  };
  std::vector<Cell> cells;
  cells.reserve(static_cast<size_t>(n) + 1);
  for (int j = 0; j < n; j++) {
    cells.push_back({node.KeyAt(j).ToString(), node.ChildAt(j)});
  }
  uint32_t rightmost = node.right();

  if (route < n) {
    cells.insert(cells.begin() + route,
                 {child_split.promoted_key, child});
    cells[static_cast<size_t>(route) + 1].child = child_split.right_page;
  } else {
    cells.push_back({child_split.promoted_key, child});
    rightmost = child_split.right_page;
  }

  // Does everything fit back into one page?
  size_t total = NodeRef::kHeaderSize;
  for (const auto& cell : cells) {
    total += 2 + InternalCellBytes(cell.key.size());
  }
  if (total <= options_.page_size) {
    node.Init(NodeRef::kInternal);
    for (const auto& cell : cells) {
      bool ok = node.InsertInternal(Slice(cell.key), cell.child);
      APM_CHECK(ok);
    }
    node.set_right(rightmost);
    return Status::OK();
  }

  // Split this internal node: the median separator moves up.
  size_t median = cells.size() / 2;
  uint32_t new_page_id;
  Pager::PageHandle new_handle;
  APM_RETURN_IF_ERROR(pager_->NewPage(&new_page_id, &new_handle));
  NodeRef right_node(new_handle.data(), options_.page_size);
  right_node.Init(NodeRef::kInternal);
  for (size_t j = median + 1; j < cells.size(); j++) {
    bool ok = right_node.InsertInternal(Slice(cells[j].key), cells[j].child);
    APM_CHECK(ok);
  }
  right_node.set_right(rightmost);
  new_handle.MarkDirty();

  node.Init(NodeRef::kInternal);
  for (size_t j = 0; j < median; j++) {
    bool ok = node.InsertInternal(Slice(cells[j].key), cells[j].child);
    APM_CHECK(ok);
  }
  node.set_right(cells[median].child);

  split->happened = true;
  split->promoted_key = cells[median].key;
  split->right_page = new_page_id;
  return Status::OK();
}

Status BTree::SplitLeafAndInsert(Pager::PageHandle* node_handle,
                                 const Slice& key, const Slice& value,
                                 SplitResult* split) {
  NodeRef node(node_handle->data(), options_.page_size);
  int n = node.nkeys();
  std::vector<std::pair<std::string, std::string>> cells;
  cells.reserve(static_cast<size_t>(n) + 1);
  for (int j = 0; j < n; j++) {
    cells.emplace_back(node.KeyAt(j).ToString(), node.ValueAt(j).ToString());
  }
  // Insert the new record at its sorted position (the key is absent: an
  // equal key was either updated in place or removed before we got here).
  auto it = std::lower_bound(
      cells.begin(), cells.end(), key,
      [](const auto& cell, const Slice& k) { return Slice(cell.first) < k; });
  cells.insert(it, {key.ToString(), value.ToString()});

  size_t median = cells.size() / 2;
  uint32_t new_page_id;
  Pager::PageHandle new_handle;
  APM_RETURN_IF_ERROR(pager_->NewPage(&new_page_id, &new_handle));
  NodeRef right_node(new_handle.data(), options_.page_size);
  right_node.Init(NodeRef::kLeaf);
  for (size_t j = median; j < cells.size(); j++) {
    bool ok = right_node.InsertLeaf(Slice(cells[j].first),
                                    Slice(cells[j].second));
    APM_CHECK(ok);
  }
  right_node.set_right(node.right());
  new_handle.MarkDirty();

  uint32_t old_right = new_page_id;
  node.Init(NodeRef::kLeaf);
  for (size_t j = 0; j < median; j++) {
    bool ok = node.InsertLeaf(Slice(cells[j].first), Slice(cells[j].second));
    APM_CHECK(ok);
  }
  node.set_right(old_right);
  node_handle->MarkDirty();

  split->happened = true;
  split->promoted_key = cells[median].first;
  split->right_page = new_page_id;
  return Status::OK();
}

Status BTree::Delete(const Slice& key) {
  GroupCommitLog::Ticket ticket = 0;
  bool logged = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Pager::PageHandle leaf;
    Status s = FindLeaf(key, &leaf);
    if (s.IsNotFound()) return Status::NotFound();
    APM_RETURN_IF_ERROR(s);
    NodeRef node(leaf.data(), options_.page_size);
    int i = node.LowerBound(key);
    if (i >= node.nkeys() || node.KeyAt(i) != key) return Status::NotFound();
    node.Remove(i);
    leaf.MarkDirty();
    num_keys_--;
    pager_->set_user_counter(num_keys_);
    if (binlog_ != nullptr) {
      ticket = binlog_->EnqueueDelete(key, options_.sync_binlog);
      logged = true;
    }
  }
  if (logged) return binlog_->Commit(ticket);
  return Status::OK();
}

Status BTree::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return pager_->Checkpoint();
}

BTree::Stats BTree::GetStats() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Stats stats;
  stats.pool_hits = pager_->pool_hits();
  stats.pool_misses = pager_->pool_misses();
  stats.page_count = pager_->page_count();
  stats.num_keys = num_keys_;
  if (binlog_ != nullptr) {
    stats.binlog_bytes = binlog_->Size();
    GroupCommitLog::Stats log_stats = binlog_->GetStats();
    stats.binlog_appends = log_stats.appends;
    stats.binlog_groups = log_stats.groups;
    stats.binlog_synced_groups = log_stats.synced_groups;
  }
  // Height: walk the leftmost spine.
  int height = 0;
  uint32_t page_id = pager_->root();
  while (page_id != 0) {
    height++;
    Pager::PageHandle handle;
    if (!pager_->FetchPage(page_id, &handle).ok()) break;
    NodeRef node(handle.data(), options_.page_size);
    if (node.is_leaf()) break;
    page_id = node.nkeys() > 0 ? node.ChildAt(0) : node.right();
  }
  stats.height = height;
  return stats;
}

Status BTree::DiskUsage(uint64_t* bytes) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  uint64_t page_file = 0;
  APM_RETURN_IF_ERROR(env_->GetFileSize(options_.path, &page_file));
  *bytes = page_file + (binlog_ != nullptr ? binlog_->Size() : 0);
  return Status::OK();
}

}  // namespace apmbench::btree
