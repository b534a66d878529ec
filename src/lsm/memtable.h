#ifndef APMBENCH_LSM_MEMTABLE_H_
#define APMBENCH_LSM_MEMTABLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/arena.h"
#include "common/skiplist.h"
#include "common/slice.h"
#include "lsm/iterator.h"

namespace apmbench::lsm {

/// In-memory write buffer, as in Cassandra's memtable / HBase's memstore:
/// one insert-only skip list backed by one Arena. Entries are keyed by
/// (user key, sequence number descending), so every Put/Delete inserts a
/// fresh node and nothing is ever overwritten in place — the LevelDB
/// memtable layout.
///
/// The skip list admits a single writer concurrent with lock-free readers;
/// the DB's write-group leader is that writer (see docs/concurrency.md).
///
/// Entries and skip-list nodes are bump-allocated from the Arena: a Put
/// performs zero heap allocations of its own, and ApproximateMemoryUsage()
/// is the exact number of bytes the arena has reserved, which is what the
/// flush trigger compares against Options::memtable_bytes. Each entry is
/// encoded contiguously in arena memory as
///
///   varint32 klen | key | fixed64 seq | flags u8 | varint32 vlen | value
///
/// with flags bit0 = tombstone; the skip-list key is the pointer to the
/// first byte and the comparator decodes in place.
///
/// Deletions are tombstone entries so they shadow older SSTable data
/// after a flush. Readers pass a `seq_limit` to see a consistent prefix
/// of the write history (the DB uses its last fully applied sequence
/// number, which keeps half-applied write groups invisible).
class MemTable {
 public:
  static constexpr uint64_t kMaxSeq = UINT64_MAX;

  explicit MemTable(size_t arena_block_bytes = Arena::kDefaultBlockBytes);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  void Put(const Slice& key, const Slice& value, uint64_t seq);
  void Delete(const Slice& key, uint64_t seq);

  enum class GetResult { kFound, kDeleted, kAbsent };
  /// Looks up the newest version of `key` with sequence <= `seq_limit`;
  /// on kFound, `*value` receives the stored value. `*seq` (optional)
  /// receives the entry's write sequence number on any hit.
  GetResult Get(const Slice& key, std::string* value, uint64_t* seq = nullptr,
                uint64_t seq_limit = kMaxSeq) const;

  /// Exact bytes reserved by the arena (entry bytes plus skip-list nodes),
  /// compared against Options::memtable_bytes by the flush trigger. Safe
  /// to read from any thread.
  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

  /// Number of stored entries. With multi-versioning this counts every
  /// version, not distinct user keys.
  size_t EntryCount() const { return table_.size(); }

  /// Iterator over entries with sequence <= `seq_limit`, in (key asc, seq
  /// desc) order — a key with several versions appears newest-first, which
  /// is exactly what DedupIterator expects. Safe to use concurrently with
  /// the single writer; the MemTable must outlive it.
  std::unique_ptr<Iterator> NewIterator(uint64_t seq_limit = kMaxSeq) const;

 private:
  /// Fields of an arena-encoded entry, decoded in place (slices point at
  /// arena bytes and stay valid for the memtable's lifetime).
  struct DecodedEntry {
    Slice key;
    Slice value;
    uint64_t seq = 0;
    bool tombstone = false;
  };
  static DecodedEntry DecodeEntry(const char* p);

  /// Compares encoded entries by (key asc, seq desc). A lookup key built
  /// by LookupKey encodes only the `klen | key | seq` prefix, which is all
  /// the comparator reads.
  struct EntryCompare {
    int operator()(const char* a, const char* b) const;
  };

  using Table = SkipList<const char*, char, EntryCompare>;

  void Add(const Slice& key, const Slice& value, uint64_t seq,
           bool tombstone);

  friend class MemTableIterator;

  Arena arena_;
  Table table_;
};

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_MEMTABLE_H_
