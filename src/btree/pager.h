#ifndef APMBENCH_BTREE_PAGER_H_
#define APMBENCH_BTREE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/status.h"

namespace apmbench::btree {

/// Pager configuration.
struct PagerOptions {
  std::string path;
  Env* env = nullptr;
  size_t page_size = 4096;
  /// Buffer pool capacity; InnoDB's central tuning knob, sized to the
  /// machine's memory in the paper's MySQL setup.
  size_t buffer_pool_bytes = 32 * 1024 * 1024;
};

/// Page file + sharded LRU buffer pool. Page 0 is the metadata page
/// (magic, page size, page count, root page id); pages are fetched into
/// pinned frames and written back on eviction or checkpoint.
///
/// Thread-safety: pool bookkeeping (page table, LRU, pins) is sharded by
/// page-id hash — the same shard map as common/cache.h — with one mutex
/// per shard, so concurrent *readers* of the owning BTree fetch pages in
/// parallel and only collide when two pages land in the same shard. A
/// shard's mutex is held only for the lookup / eviction, never while
/// callers use the page data; hit/miss counters are atomics. Page
/// *contents* and the meta fields (root, page count, user counter) are
/// protected by the BTree's reader/writer lock: mutators hold it
/// exclusively, so a pinned page is immutable while shared-lock readers
/// look at it. Eviction only touches unpinned frames, so it never writes
/// a page a reader is using.
class Pager {
 public:
  static constexpr uint32_t kMetaPage = 0;

  /// Opens (or creates) the page file; `*created` reports a fresh file.
  static Status Open(const PagerOptions& options, bool* created,
                     std::unique_ptr<Pager>* pager);

  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// RAII pin on a buffered page. MarkDirty before mutating `data`.
  class PageHandle {
   public:
    PageHandle() = default;
    PageHandle(Pager* pager, uint32_t page_id, char* data)
        : pager_(pager), page_id_(page_id), data_(data) {}
    ~PageHandle() { Release(); }

    PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
    PageHandle& operator=(PageHandle&& other) noexcept {
      Release();
      pager_ = other.pager_;
      page_id_ = other.page_id_;
      data_ = other.data_;
      other.pager_ = nullptr;
      other.data_ = nullptr;
      return *this;
    }
    PageHandle(const PageHandle&) = delete;
    PageHandle& operator=(const PageHandle&) = delete;

    char* data() const { return data_; }
    uint32_t page_id() const { return page_id_; }
    bool valid() const { return data_ != nullptr; }
    void MarkDirty();

   private:
    void Release();

    Pager* pager_ = nullptr;
    uint32_t page_id_ = 0;
    char* data_ = nullptr;
  };

  Status FetchPage(uint32_t page_id, PageHandle* handle);
  /// Allocates a fresh page at the end of the file. Writer-side only
  /// (callers hold the BTree's exclusive lock, which guards page_count_).
  Status NewPage(uint32_t* page_id, PageHandle* handle);

  /// Writes all dirty pages (and the meta page) to disk and syncs.
  Status Checkpoint();

  uint32_t root() const { return root_; }
  void set_root(uint32_t root) {
    root_ = root;
    meta_dirty_ = true;
  }

  /// An opaque 64-bit value persisted in the meta page for the owner
  /// (the B+tree stores its key count here).
  uint64_t user_counter() const { return user_counter_; }
  void set_user_counter(uint64_t v) {
    if (v != user_counter_) {
      user_counter_ = v;
      meta_dirty_ = true;
    }
  }
  uint32_t page_count() const { return page_count_; }
  size_t page_size() const { return options_.page_size; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  uint64_t pool_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  uint64_t pool_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Frame {
    uint32_t page_id = 0;
    std::unique_ptr<char[]> data;
    bool dirty = false;
    int pins = 0;
    std::list<size_t>::iterator lru_it;
    bool in_lru = false;
  };

  /// One buffer-pool instance: frames, page table, and LRU list under a
  /// private mutex. Pages map to shards by hashed page id.
  struct Shard {
    mutable std::mutex mu;
    std::vector<Frame> frames;
    size_t next_unused = 0;  // frames[0..next_unused) have been allocated
    std::unordered_map<uint32_t, size_t> page_table;
    std::list<size_t> lru;  // frame indices, front = most recent
  };

  explicit Pager(const PagerOptions& options);

  Shard& ShardFor(uint32_t page_id);

  Status LoadMeta();
  Status WriteMeta();
  Status ReadPageFromDisk(uint32_t page_id, char* data);
  Status WritePageToDisk(uint32_t page_id, const char* data);
  /// Finds a reusable frame in `shard`, evicting the LRU unpinned page if
  /// needed. Called with the shard mutex held.
  Status GetFreeFrame(Shard* shard, size_t* frame_index);
  void Unpin(uint32_t page_id);
  void SetDirty(uint32_t page_id);
  static void TouchLru(Shard* shard, size_t frame_index);

  PagerOptions options_;
  Env* env_ = nullptr;
  std::unique_ptr<RandomRWFile> file_;

  int shard_bits_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Meta fields are writer-side state guarded by the owning BTree's
  /// exclusive lock, not by any shard mutex.
  uint32_t page_count_ = 1;  // page 0 is meta
  uint32_t root_ = 0;        // 0 = empty tree
  uint64_t user_counter_ = 0;
  bool meta_dirty_ = true;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace apmbench::btree

#endif  // APMBENCH_BTREE_PAGER_H_
