#ifndef APMBENCH_LSM_SSTABLE_H_
#define APMBENCH_LSM_SSTABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/slice.h"
#include "common/status.h"
#include "lsm/block_cache.h"
#include "lsm/iterator.h"
#include "lsm/options.h"

namespace apmbench::lsm {

/// On-disk immutable sorted table (SSTable), format "APMBNCH2" (see
/// docs/FORMATS.md for the byte layout). Every block (data and index) is
/// a sequence of prefix-compressed entries
///
///   varint shared | varint non_shared | varint payload_len |
///   key[shared..] | payload
///
/// followed by a restart array (fixed32 offset per restart point) and a
/// fixed32 restart count. Entries at restart points store their full key
/// (shared = 0); a seek binary-searches the restart array, then scans.
/// Data payloads are `flags u8, varint64 seq, value`; index payloads are
/// `fixed64 offset, fixed32 span`. The footer is 52 bytes:
///
///   fixed64 index_off, fixed32 index_sz, fixed64 filter_off,
///   fixed32 filter_sz, 12 reserved bytes, fixed32 filter_kind,
///   fixed32 format_version, fixed64 magic
///
/// The 12 reserved bytes and filter_kind once described an optional
/// prefix-bloom filter block (fixed64 prefix_filter_off, fixed32
/// prefix_filter_sz, fixed32 prefix_bloom_length). The writer fills the
/// reserved bytes with index_off, 0 and the reader ignores them, so tables
/// that still carry such a block open as before. filter_kind says what the
/// bloom filter holds: kRowFilterMarker means one entry per row (see
/// lsm/row.h), written by this build; any other value (0 from earlier
/// writers, a prefix length from prefix-bloom writers) means whole keys,
/// which Get checks as before and a one-row scan never consults.
///
/// Each data block carries a 1-byte compression type plus a fixed32
/// masked crc32c trailer.
constexpr uint32_t kTableFormatV2 = 2;

/// footer filter_kind of a table whose bloom filter holds rows: the bytes
/// "ROWB".
constexpr uint32_t kRowFilterMarker = 0x42574f52;

/// Parsed table footer.
struct TableFooter {
  uint32_t format_version = kTableFormatV2;
  uint64_t index_offset = 0;
  uint32_t index_size = 0;
  uint64_t filter_offset = 0;
  uint32_t filter_size = 0;
  /// The filter holds rows, not whole keys (filter_kind ==
  /// kRowFilterMarker).
  bool row_filter = false;
};

/// Reads and validates the footer of the table at `path`. Fails with
/// Corruption on a bad magic or an unsupported format version — the same
/// dispatch Table::Open performs, exposed for tools, tests, and benches
/// that need per-file format/index geometry without opening the table.
Status ReadTableFooter(Env* env, const std::string& path, TableFooter* footer);

/// Builds one block: prefix-compressed keys with restart points.
/// Generic over the payload, so data blocks and index blocks share it.
class BlockBuilder {
 public:
  explicit BlockBuilder(int restart_interval);

  /// Adds an entry; keys must arrive in non-decreasing order.
  void Add(const Slice& key, const Slice& payload);

  /// Appends the restart array + count; the returned slice is valid until
  /// Reset. The builder may not be Added to again until Reset.
  Slice Finish();

  void Reset();

  /// Bytes Finish would produce right now.
  size_t CurrentSizeEstimate() const {
    return buffer_.size() + restarts_.size() * 4 + 4;
  }
  bool empty() const { return num_entries_ == 0; }
  const std::string& last_key() const { return last_key_; }

 private:
  const int restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_{0};  // first restart is entry 0
  int counter_ = 0;                    // entries since the last restart
  size_t num_entries_ = 0;
  std::string last_key_;
  bool finished_ = false;
};

/// Cursor over the entries of one block: rebuilds prefix-compressed keys
/// and uses the restart array for Seek/SeekToLast. Each positioning call
/// returns Valid() afterwards.
class BlockCursor {
 public:
  /// `data_block` selects the typed data-payload decode (flags/seq/value);
  /// pass false when walking an index block, whose payloads are opaque to
  /// the cursor.
  explicit BlockCursor(Slice block, bool data_block = true);

  bool Valid() const { return valid_; }
  bool SeekToFirst();
  /// Positions at the first entry with key >= target (restart binary
  /// search + short scan).
  bool Seek(const Slice& target);
  bool SeekToLast();
  bool Next();

  /// Valid while positioned. The key lives in an internal buffer that the
  /// next positioning call overwrites; copy it to retain it.
  Slice key() const { return key_; }
  /// Raw payload bytes of the current entry.
  Slice payload() const { return payload_; }

  /// Typed accessors for *data* block payloads.
  Slice value() const { return value_; }
  uint64_t seq() const { return seq_; }
  bool tombstone() const { return tombstone_; }

  bool corrupt() const { return corrupt_; }

 private:
  /// Decodes the entry at `offset`; `offset` must start an entry and
  /// the current key buffer must hold its predecessor's key (or the entry
  /// must be a restart point).
  bool ParseEntryAt(size_t offset);
  bool DecodeDataPayload();
  /// Index of the last restart whose entry key is < target.
  uint32_t RestartFloor(const Slice& target);
  void MarkCorrupt();

  Slice block_;
  bool data_block_;
  size_t data_end_ = 0;      // first byte of the restart array
  uint32_t num_restarts_ = 0;
  // Position state.
  size_t next_offset_ = 0;   // offset of the entry after the current
  std::string key_buf_;      // reconstructed current key
  Slice key_;
  Slice payload_;
  Slice value_;
  uint64_t seq_ = 0;
  bool tombstone_ = false;
  bool valid_ = false;
  bool corrupt_ = false;
};

/// Writes one SSTable.
class TableBuilder {
 public:
  /// Starts building table `file_number` at `path`.
  TableBuilder(const Options& options, Env* env, std::string path);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  Status Open();

  /// Adds an entry; keys must arrive in strictly increasing order. The
  /// filter gets each distinct row once (a row's cells are adjacent),
  /// tombstones included.
  Status Add(const Slice& key, const Slice& value, uint64_t seq,
             bool tombstone);

  /// Writes filter(s), index, and footer, and syncs the file.
  Status Finish();

  /// Abandons the build and removes the partial file.
  void Abandon();

  uint64_t FileSize() const { return file_size_; }
  /// Bytes written plus the pending data block; valid while building.
  uint64_t CurrentSizeEstimate() const;
  uint64_t NumEntries() const { return num_entries_; }
  const std::string& smallest_key() const { return smallest_key_; }
  const std::string& largest_key() const { return largest_key_; }

 private:
  Status FlushDataBlock();
  /// Applies the compression envelope (type byte + masked crc) and
  /// appends; `*span` receives the on-disk byte count.
  Status WriteBlock(const Slice& raw, uint64_t* span);

  const Options& options_;
  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;

  BlockBuilder data_builder_;
  BlockBuilder index_builder_;
  std::string payload_scratch_;

  std::unique_ptr<class BloomFilterBuilder> filter_;

  std::string smallest_key_;
  std::string largest_key_;
  uint64_t offset_ = 0;
  uint64_t file_size_ = 0;
  uint64_t num_entries_ = 0;
  bool finished_ = false;
};

/// Reader for an SSTable. The bloom-filter block is a pinned,
/// cache-charged entry — the table holds its handle for its lifetime. The
/// index block is prefix-compressed on disk, so Open materializes the full
/// keys once into a private buffer and drops the raw block. Data blocks are
/// fetched through the shared BlockCache zero-copy: readers parse the
/// pinned cached bytes in place.
class Table {
 public:
  /// Opens the table at `path`; `file_number` identifies it in the cache.
  static Status Open(const Options& options, Env* env,
                     const std::string& path, uint64_t file_number,
                     BlockCache* cache, std::unique_ptr<Table>* table);

  enum class GetResult { kFound, kDeleted, kAbsent };
  /// On kFound/kDeleted, `*seq` receives the entry's sequence number.
  Status Get(const ReadOptions& read_options, const Slice& key,
             GetResult* result, std::string* value, uint64_t* seq);

  /// False only when the table's filter is a row filter that rules `row`
  /// out; a whole-key filter, or none, never rules a row out.
  bool MayContainRow(const Slice& row) const;

  /// Iterator over the full table. The Table must outlive it.
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& read_options);

  uint64_t file_number() const { return file_number_; }
  uint64_t file_size() const { return file_size_; }
  /// On-disk size of the index block (the restart-point shrink shows up
  /// here; feeds DB::Stats).
  uint64_t index_block_bytes() const { return footer_.index_size; }

 private:
  friend class TableIterator;

  struct IndexEntry {
    Slice last_key;  // into index_storage_
    uint64_t offset;
    uint32_t size;
  };

  Table() = default;

  Status ReadBlock(uint64_t offset, uint32_t size,
                   BlockCache::BlockHandle* block, bool fill_cache);
  /// Index of the first block whose last_key >= key, or -1 if past the end.
  int FindBlock(const Slice& key) const;

  Options options_;
  std::unique_ptr<RandomAccessFile> file_;
  uint64_t file_number_ = 0;
  uint64_t file_size_ = 0;
  TableFooter footer_;
  BlockCache* cache_ = nullptr;
  /// Lifetime pin on the bloom-filter block. A pinned entry is charged
  /// to the cache but never evicted; EvictFile only unlinks it, the bytes
  /// stay valid until the Table goes away.
  BlockCache::BlockHandle filter_block_;
  std::string index_storage_;  // materialized index keys
  std::vector<IndexEntry> index_;
  Slice filter_;  // empty when the table has no filter
};

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_SSTABLE_H_
