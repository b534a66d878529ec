#ifndef APMBENCH_LSM_BLOCK_CACHE_H_
#define APMBENCH_LSM_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/cache.h"

namespace apmbench::lsm {

/// The SSTable block cache: a thin typed wrapper over the generic
/// ShardedLRUCache (see common/cache.h), keyed by (file number, block
/// offset). Models the key/row caches the paper's stores rely on for
/// their memory-bound performance.
///
/// Lookup/Insert return a BlockHandle that *pins* the block in place:
/// readers parse the cached bytes directly (zero-copy) and the entry
/// cannot be evicted — though it stays charged — until the handle is
/// destroyed. Index and bloom-filter blocks are pinned this way for a
/// Table's whole lifetime, so they are cache-charged without per-table
/// heap copies.
///
/// Thread-safety: all methods are safe to call concurrently; the shards
/// make concurrent Lookups on different blocks contention-free, and the
/// stats counters are atomics.
class BlockCache {
 public:
  explicit BlockCache(size_t capacity_bytes,
                      int shard_bits = kDefaultCacheShardBits)
      : cache_(capacity_bytes, shard_bits) {}

  /// A move-only pin on a block's bytes. Either references a cache entry
  /// (released on destruction) or owns an uncached block outright (the
  /// fill_cache=false / no-cache path); readers treat both identically.
  class BlockHandle {
   public:
    BlockHandle() = default;
    ~BlockHandle() { Reset(); }

    BlockHandle(BlockHandle&& other) noexcept
        : cache_(other.cache_),
          handle_(other.handle_),
          data_(other.data_),
          owned_(std::move(other.owned_)) {
      other.cache_ = nullptr;
      other.handle_ = nullptr;
      other.data_ = nullptr;
    }
    BlockHandle& operator=(BlockHandle&& other) noexcept {
      if (this != &other) {
        Reset();
        cache_ = other.cache_;
        handle_ = other.handle_;
        data_ = other.data_;
        owned_ = std::move(other.owned_);
        other.cache_ = nullptr;
        other.handle_ = nullptr;
        other.data_ = nullptr;
      }
      return *this;
    }
    BlockHandle(const BlockHandle&) = delete;
    BlockHandle& operator=(const BlockHandle&) = delete;

    const std::string* get() const { return data_; }
    const std::string& operator*() const { return *data_; }
    explicit operator bool() const { return data_ != nullptr; }
    bool operator==(std::nullptr_t) const { return data_ == nullptr; }
    bool operator!=(std::nullptr_t) const { return data_ != nullptr; }

    void Reset() {
      if (handle_ != nullptr) {
        cache_->Release(handle_);
        handle_ = nullptr;
        cache_ = nullptr;
      }
      owned_.reset();
      data_ = nullptr;
    }

   private:
    friend class BlockCache;
    ShardedLRUCache* cache_ = nullptr;
    ShardedLRUCache::Handle* handle_ = nullptr;
    const std::string* data_ = nullptr;
    std::shared_ptr<const std::string> owned_;
  };

  /// Returns a pinned handle to the cached block, or an empty handle.
  BlockHandle Lookup(uint64_t file_number, uint64_t offset) {
    BlockHandle handle;
    ShardedLRUCache::Handle* h = cache_.Lookup(file_number, offset);
    if (h != nullptr) {
      handle.cache_ = &cache_;
      handle.handle_ = h;
      handle.data_ = static_cast<const std::string*>(ShardedLRUCache::Value(h));
    }
    return handle;
  }

  /// Approximate resident bytes one cached entry occupies beyond its
  /// block payload: the heap std::string header, the cache's Handle
  /// (key, links, refcount, owner-list pointers), the shard hash-table
  /// node, and allocator headers. Charged on every insert so that the
  /// small blocks of the table format (prefix-compressed, often well under
  /// block_size) cannot blow past the configured budget through
  /// per-entry bookkeeping the old payload-only charge never counted.
  static constexpr size_t kEntryOverheadBytes = sizeof(std::string) + 160;

  /// Inserts `block` (replacing any previous entry) and returns a pinned
  /// handle to the now-cache-owned bytes. Never fails: over-capacity
  /// inserts are still returned pinned, just not retained on release.
  /// The charge is the entry's actual footprint — every payload byte the
  /// string holds (for table blocks that includes the restart-point array
  /// and restart-count trailer) plus kEntryOverheadBytes — rather than a
  /// coarse payload estimate.
  BlockHandle Insert(uint64_t file_number, uint64_t offset,
                     std::string block) {
    auto* value = new std::string(std::move(block));
    const size_t charge = value->capacity() + kEntryOverheadBytes;
    inserted_payload_bytes_.fetch_add(value->size(),
                                      std::memory_order_relaxed);
    inserted_charged_bytes_.fetch_add(charge, std::memory_order_relaxed);
    ShardedLRUCache::Handle* h = cache_.Insert(
        file_number, offset, value, charge,
        [](void* v) { delete static_cast<std::string*>(v); });
    BlockHandle handle;
    handle.cache_ = &cache_;
    handle.handle_ = h;
    handle.data_ = static_cast<const std::string*>(ShardedLRUCache::Value(h));
    return handle;
  }

  /// Wraps an uncached block in a handle (fill_cache=false / cache-less
  /// tables), so readers have one code path.
  static BlockHandle Wrap(std::string block) {
    BlockHandle handle;
    handle.owned_ = std::make_shared<const std::string>(std::move(block));
    handle.data_ = handle.owned_.get();
    return handle;
  }

  /// Drops every block belonging to `file_number` (called when a table is
  /// deleted by compaction). O(1) per cached block of the file. Pinned
  /// readers of the dropped blocks keep their handles.
  void EvictFile(uint64_t file_number) { cache_.EvictOwner(file_number); }

  size_t charge() const { return cache_.charge(); }
  size_t capacity() const { return cache_.capacity(); }
  int num_shards() const { return cache_.num_shards(); }
  uint64_t hits() const { return cache_.hits(); }
  uint64_t misses() const { return cache_.misses(); }
  uint64_t evictions() const { return cache_.evictions(); }

  /// Cumulative insert accounting for charge accuracy: payload bytes
  /// handed to the cache vs bytes actually charged for them. The ratio
  /// payload/charged is the cache's charge accuracy; it is surfaced in
  /// DB stats / "lsm.cache-stats".
  uint64_t inserted_payload_bytes() const {
    return inserted_payload_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t inserted_charged_bytes() const {
    return inserted_charged_bytes_.load(std::memory_order_relaxed);
  }

 private:
  ShardedLRUCache cache_;
  std::atomic<uint64_t> inserted_payload_bytes_{0};
  std::atomic<uint64_t> inserted_charged_bytes_{0};
};

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_BLOCK_CACHE_H_
