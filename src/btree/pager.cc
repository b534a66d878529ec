#include "btree/pager.h"

#include <algorithm>
#include <cstring>

#include "common/cache.h"
#include "common/coding.h"
#include "common/logging.h"

namespace apmbench::btree {

namespace {
constexpr uint64_t kPagerMagic = 0x41504d4254524545ull;  // "APMBTREE"
}  // namespace

void Pager::PageHandle::MarkDirty() {
  if (pager_ != nullptr) pager_->SetDirty(page_id_);
}

void Pager::PageHandle::Release() {
  if (pager_ != nullptr && data_ != nullptr) {
    pager_->Unpin(page_id_);
  }
  pager_ = nullptr;
  data_ = nullptr;
}

Pager::Pager(const PagerOptions& options) : options_(options) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  // kDefaultCacheShardBits shards (InnoDB's innodb_buffer_pool_instances
  // analogue): pages hash to a shard, each with its own mutex, frame
  // array, page table, and LRU list, so concurrent readers on different
  // pages rarely contend.
  shard_bits_ = kDefaultCacheShardBits;
  size_t frame_count = options_.buffer_pool_bytes / options_.page_size;
  if (frame_count < 8) frame_count = 8;
  // Every shard needs enough frames to pin a root-to-leaf path; drop
  // shards for tiny pools instead of inflating the configured capacity
  // (InnoDB likewise ignores buffer_pool_instances for small pools).
  while (shard_bits_ > 0 && (frame_count >> shard_bits_) < 8) {
    shard_bits_--;
  }
  size_t num_shards = size_t{1} << shard_bits_;
  size_t frames_per_shard = std::max<size_t>(8, frame_count / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; i++) {
    auto shard = std::make_unique<Shard>();
    shard->frames.resize(frames_per_shard);
    shards_.push_back(std::move(shard));
  }
}

Pager::Shard& Pager::ShardFor(uint32_t page_id) {
  uint32_t hash = CacheKeyHash(/*owner=*/page_id, /*offset=*/0);
  return *shards_[CacheShardOf(hash, shard_bits_)];
}

Pager::~Pager() {
  Status s = Checkpoint();
  if (!s.ok()) {
    APM_LOG_ERROR("pager checkpoint on close failed: %s",
                  s.ToString().c_str());
  }
}

Status Pager::Open(const PagerOptions& options, bool* created,
                   std::unique_ptr<Pager>* pager) {
  if (options.path.empty()) {
    return Status::InvalidArgument("PagerOptions::path must be set");
  }
  std::unique_ptr<Pager> p(new Pager(options));
  *created = !p->env_->FileExists(options.path);
  APM_RETURN_IF_ERROR(p->env_->NewRandomRWFile(options.path, &p->file_));
  if (*created) {
    APM_RETURN_IF_ERROR(p->WriteMeta());
  } else {
    APM_RETURN_IF_ERROR(p->LoadMeta());
  }
  *pager = std::move(p);
  return Status::OK();
}

Status Pager::LoadMeta() {
  std::vector<char> buf(options_.page_size);
  Slice result;
  APM_RETURN_IF_ERROR(file_->Read(0, options_.page_size, &result, buf.data()));
  if (result.size() < 32) return Status::Corruption("meta page too short");
  Slice in = result;
  uint64_t magic;
  uint32_t page_size;
  GetFixed64(&in, &magic);
  GetFixed32(&in, &page_size);
  if (magic != kPagerMagic) return Status::Corruption("bad pager magic");
  if (page_size != options_.page_size) {
    return Status::InvalidArgument("page size mismatch");
  }
  GetFixed32(&in, &page_count_);
  GetFixed32(&in, &root_);
  GetFixed64(&in, &user_counter_);
  meta_dirty_ = false;
  return Status::OK();
}

Status Pager::WriteMeta() {
  std::string page(options_.page_size, '\0');
  std::string header;
  PutFixed64(&header, kPagerMagic);
  PutFixed32(&header, static_cast<uint32_t>(options_.page_size));
  PutFixed32(&header, page_count_);
  PutFixed32(&header, root_);
  PutFixed64(&header, user_counter_);
  memcpy(page.data(), header.data(), header.size());
  APM_RETURN_IF_ERROR(file_->Write(0, Slice(page)));
  meta_dirty_ = false;
  return Status::OK();
}

Status Pager::ReadPageFromDisk(uint32_t page_id, char* data) {
  Slice result;
  APM_RETURN_IF_ERROR(file_->Read(
      static_cast<uint64_t>(page_id) * options_.page_size, options_.page_size,
      &result, data));
  if (result.size() != options_.page_size) {
    return Status::Corruption("short page read");
  }
  if (result.data() != data) {
    memcpy(data, result.data(), options_.page_size);
  }
  return Status::OK();
}

Status Pager::WritePageToDisk(uint32_t page_id, const char* data) {
  return file_->Write(static_cast<uint64_t>(page_id) * options_.page_size,
                      Slice(data, options_.page_size));
}

void Pager::TouchLru(Shard* shard, size_t frame_index) {
  Frame& frame = shard->frames[frame_index];
  if (frame.in_lru) {
    shard->lru.splice(shard->lru.begin(), shard->lru, frame.lru_it);
  } else {
    shard->lru.push_front(frame_index);
    frame.lru_it = shard->lru.begin();
    frame.in_lru = true;
  }
}

Status Pager::GetFreeFrame(Shard* shard, size_t* frame_index) {
  // First hand out a frame that has never been used.
  if (shard->next_unused < shard->frames.size()) {
    size_t index = shard->next_unused++;
    shard->frames[index].data = std::make_unique<char[]>(options_.page_size);
    *frame_index = index;
    return Status::OK();
  }
  // Evict the least recently used unpinned page.
  for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
    size_t index = *it;
    Frame& frame = shard->frames[index];
    if (frame.pins > 0) continue;
    if (frame.dirty) {
      APM_RETURN_IF_ERROR(WritePageToDisk(frame.page_id, frame.data.get()));
      frame.dirty = false;
    }
    shard->page_table.erase(frame.page_id);
    shard->lru.erase(frame.lru_it);
    frame.in_lru = false;
    *frame_index = index;
    return Status::OK();
  }
  return Status::Busy("buffer pool exhausted: all pages pinned");
}

Status Pager::FetchPage(uint32_t page_id, PageHandle* handle) {
  Shard& shard = ShardFor(page_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.page_table.find(page_id);
  if (it != shard.page_table.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    Frame& frame = shard.frames[it->second];
    frame.pins++;
    TouchLru(&shard, it->second);
    *handle = PageHandle(this, page_id, frame.data.get());
    return Status::OK();
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  size_t index;
  APM_RETURN_IF_ERROR(GetFreeFrame(&shard, &index));
  Frame& frame = shard.frames[index];
  APM_RETURN_IF_ERROR(ReadPageFromDisk(page_id, frame.data.get()));
  frame.page_id = page_id;
  frame.dirty = false;
  frame.pins = 1;
  shard.page_table[page_id] = index;
  TouchLru(&shard, index);
  *handle = PageHandle(this, page_id, frame.data.get());
  return Status::OK();
}

Status Pager::NewPage(uint32_t* page_id, PageHandle* handle) {
  // page_count_ / meta_dirty_ are guarded by the BTree's exclusive lock
  // (NewPage is only reachable from mutators); only the frame bookkeeping
  // needs the shard mutex.
  *page_id = page_count_++;
  meta_dirty_ = true;
  Shard& shard = ShardFor(*page_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  size_t index;
  APM_RETURN_IF_ERROR(GetFreeFrame(&shard, &index));
  Frame& frame = shard.frames[index];
  memset(frame.data.get(), 0, options_.page_size);
  frame.page_id = *page_id;
  frame.dirty = true;
  frame.pins = 1;
  shard.page_table[*page_id] = index;
  TouchLru(&shard, index);
  *handle = PageHandle(this, *page_id, frame.data.get());
  return Status::OK();
}

void Pager::Unpin(uint32_t page_id) {
  Shard& shard = ShardFor(page_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.page_table.find(page_id);
  if (it == shard.page_table.end()) return;
  Frame& frame = shard.frames[it->second];
  APM_CHECK(frame.pins > 0);
  frame.pins--;
}

void Pager::SetDirty(uint32_t page_id) {
  Shard& shard = ShardFor(page_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.page_table.find(page_id);
  if (it == shard.page_table.end()) return;
  shard.frames[it->second].dirty = true;
}

Status Pager::Checkpoint() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (Frame& frame : shard->frames) {
      if (frame.data != nullptr && frame.dirty) {
        APM_RETURN_IF_ERROR(WritePageToDisk(frame.page_id, frame.data.get()));
        frame.dirty = false;
      }
    }
  }
  if (meta_dirty_) {
    APM_RETURN_IF_ERROR(WriteMeta());
  }
  return file_->Sync();
}

}  // namespace apmbench::btree
