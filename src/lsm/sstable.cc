#include "lsm/sstable.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "common/compression.h"
#include "common/crc32.h"
#include "lsm/bloom.h"

namespace apmbench::lsm {

namespace {

constexpr uint64_t kTableMagic = 0x41504d424e434832ull;  // "APMBNCH2"
/// Reserved footer bytes between filter_sz and format_version; see the
/// format comment in sstable.h.
constexpr size_t kFooterReservedSize = 8 + 4 + 4;
constexpr size_t kFooterSize = 8 + 4 + 8 + 4 + kFooterReservedSize + 4 + 8;

constexpr uint8_t kFlagTombstone = 0x1;

size_t SharedPrefixLength(const Slice& a, const Slice& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) i++;
  return i;
}

/// Decodes the footer from `tail`, the last min(file_size, kFooterSize)
/// bytes of the file.
Status ParseFooter(const Slice& tail, const std::string& path,
                   TableFooter* out) {
  if (tail.size() < 8) {
    return Status::Corruption("table too short: " + path);
  }
  if (DecodeFixed64(tail.data() + tail.size() - 8) != kTableMagic) {
    return Status::Corruption("bad table magic: " + path);
  }
  if (tail.size() < kFooterSize) {
    return Status::Corruption("truncated footer: " + path);
  }
  Slice f(tail.data() + tail.size() - kFooterSize, kFooterSize);
  GetFixed64(&f, &out->index_offset);
  GetFixed32(&f, &out->index_size);
  GetFixed64(&f, &out->filter_offset);
  GetFixed32(&f, &out->filter_size);
  f.RemovePrefix(kFooterReservedSize);
  GetFixed32(&f, &out->format_version);
  if (out->format_version != kTableFormatV2) {
    return Status::Corruption("unsupported table format version " +
                              std::to_string(out->format_version) + ": " +
                              path);
  }
  return Status::OK();
}

/// Fails unless [offset, offset + size) lies inside [0, limit), without
/// overflowing; the error names the extent.
Status CheckExtent(const char* name, uint64_t offset, uint32_t size,
                   uint64_t limit, const std::string& path) {
  if (offset > limit || size > limit - offset) {
    return Status::Corruption(
        std::string(name) + " extent [" + std::to_string(offset) + ", +" +
        std::to_string(size) + ") exceeds limit " + std::to_string(limit) +
        ": " + path);
  }
  return Status::OK();
}

Status ReadFooterFrom(RandomAccessFile* file, uint64_t file_size,
                      const std::string& path, TableFooter* out) {
  const size_t want =
      static_cast<size_t>(std::min<uint64_t>(file_size, kFooterSize));
  char buf[kFooterSize];
  Slice tail;
  APM_RETURN_IF_ERROR(file->Read(file_size - want, want, &tail, buf));
  if (tail.size() != want) {
    return Status::Corruption("short footer read: " + path);
  }
  return ParseFooter(tail, path, out);
}

}  // namespace

Status ReadTableFooter(Env* env, const std::string& path,
                       TableFooter* footer) {
  std::unique_ptr<RandomAccessFile> file;
  APM_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &file));
  return ReadFooterFrom(file.get(), file->Size(), path, footer);
}

// ---------------------------------------------------------------------------
// BlockBuilder

BlockBuilder::BlockBuilder(int restart_interval)
    : restart_interval_(restart_interval < 1 ? 1 : restart_interval) {}

void BlockBuilder::Add(const Slice& key, const Slice& payload) {
  assert(!finished_);
  size_t shared = 0;
  if (counter_ < restart_interval_) {
    shared = SharedPrefixLength(Slice(last_key_), key);
  } else {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    counter_ = 0;
  }
  const size_t non_shared = key.size() - shared;
  PutVarint32(&buffer_, static_cast<uint32_t>(shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(non_shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(payload.size()));
  buffer_.append(key.data() + shared, non_shared);
  buffer_.append(payload.data(), payload.size());
  last_key_.resize(shared);
  last_key_.append(key.data() + shared, non_shared);
  counter_++;
  num_entries_++;
}

Slice BlockBuilder::Finish() {
  assert(!finished_);
  for (uint32_t restart : restarts_) PutFixed32(&buffer_, restart);
  PutFixed32(&buffer_, static_cast<uint32_t>(restarts_.size()));
  finished_ = true;
  return Slice(buffer_);
}

void BlockBuilder::Reset() {
  buffer_.clear();
  restarts_.assign(1, 0);
  counter_ = 0;
  num_entries_ = 0;
  last_key_.clear();
  finished_ = false;
}

// ---------------------------------------------------------------------------
// BlockCursor

BlockCursor::BlockCursor(Slice block, bool data_block)
    : block_(block), data_block_(data_block) {
  if (block_.size() < 8) {  // restart offset 0 + count
    MarkCorrupt();
    return;
  }
  num_restarts_ = DecodeFixed32(block_.data() + block_.size() - 4);
  const uint64_t restart_bytes = 4ull * num_restarts_ + 4;
  if (num_restarts_ == 0 || restart_bytes > block_.size()) {
    MarkCorrupt();
    return;
  }
  data_end_ = block_.size() - static_cast<size_t>(restart_bytes);
}

void BlockCursor::MarkCorrupt() {
  corrupt_ = true;
  valid_ = false;
}

bool BlockCursor::DecodeDataPayload() {
  const char* p = payload_.data();
  const char* limit = p + payload_.size();
  if (payload_.size() < 2) return false;
  tombstone_ = (static_cast<uint8_t>(*p) & kFlagTombstone) != 0;
  p++;
  p = GetVarint64Ptr(p, limit, &seq_);
  if (p == nullptr) return false;
  value_ = Slice(p, static_cast<size_t>(limit - p));
  return true;
}

bool BlockCursor::ParseEntryAt(size_t offset) {
  if (corrupt_) return false;
  if (offset >= data_end_) {
    valid_ = false;
    return false;
  }
  const char* base = block_.data();
  const char* p = base + offset;
  const char* limit = base + data_end_;
  uint32_t shared, non_shared, plen;
  p = GetVarint32Ptr(p, limit, &shared);
  if (p != nullptr) p = GetVarint32Ptr(p, limit, &non_shared);
  if (p != nullptr) p = GetVarint32Ptr(p, limit, &plen);
  if (p == nullptr || shared > key_buf_.size() ||
      static_cast<size_t>(limit - p) < static_cast<size_t>(non_shared) + plen) {
    MarkCorrupt();
    return false;
  }
  key_buf_.resize(shared);
  key_buf_.append(p, non_shared);
  p += non_shared;
  payload_ = Slice(p, plen);
  next_offset_ = static_cast<size_t>(p + plen - base);
  key_ = Slice(key_buf_);
  if (data_block_ && !DecodeDataPayload()) {
    MarkCorrupt();
    return false;
  }
  valid_ = true;
  return true;
}

bool BlockCursor::SeekToFirst() {
  if (corrupt_) return false;
  key_buf_.clear();
  return ParseEntryAt(0);
}

bool BlockCursor::Next() {
  if (!valid_) return false;
  return ParseEntryAt(next_offset_);
}

uint32_t BlockCursor::RestartFloor(const Slice& target) {
  // Largest restart whose (full) key is < target; restart entries always
  // store shared = 0, so their keys decode without predecessor state.
  uint32_t lo = 0;
  uint32_t hi = num_restarts_ - 1;
  while (lo < hi && !corrupt_) {
    const uint32_t mid = lo + (hi - lo + 1) / 2;
    const size_t offset =
        DecodeFixed32(block_.data() + data_end_ + 4 * static_cast<size_t>(mid));
    const char* p = block_.data() + offset;
    const char* limit = block_.data() + data_end_;
    uint32_t shared, non_shared, plen;
    p = GetVarint32Ptr(p, limit, &shared);
    if (p != nullptr) p = GetVarint32Ptr(p, limit, &non_shared);
    if (p != nullptr) p = GetVarint32Ptr(p, limit, &plen);
    if (p == nullptr || shared != 0 ||
        static_cast<size_t>(limit - p) < non_shared || offset >= data_end_) {
      MarkCorrupt();
      return 0;
    }
    if (Slice(p, non_shared).Compare(target) < 0) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

bool BlockCursor::Seek(const Slice& target) {
  if (corrupt_) return false;
  if (data_end_ == 0) {
    valid_ = false;
    return false;
  }
  const uint32_t restart = RestartFloor(target);
  if (corrupt_) return false;
  key_buf_.clear();
  const size_t offset = DecodeFixed32(block_.data() + data_end_ +
                                      4 * static_cast<size_t>(restart));
  if (!ParseEntryAt(offset)) return false;
  while (valid_ && key_.Compare(target) < 0) Next();
  return valid_;
}

bool BlockCursor::SeekToLast() {
  if (corrupt_) return false;
  if (data_end_ == 0) {
    valid_ = false;
    return false;
  }
  key_buf_.clear();
  const size_t offset = DecodeFixed32(
      block_.data() + data_end_ + 4 * static_cast<size_t>(num_restarts_ - 1));
  if (!ParseEntryAt(offset)) return false;
  while (next_offset_ < data_end_) {
    if (!ParseEntryAt(next_offset_)) return false;
  }
  return valid_;
}

// ---------------------------------------------------------------------------
// TableBuilder

TableBuilder::TableBuilder(const Options& options, Env* env, std::string path)
    : options_(options),
      env_(env),
      path_(std::move(path)),
      data_builder_(options.block_restart_interval),
      index_builder_(options.block_restart_interval) {
  if (options_.bloom_bits_per_key > 0) {
    filter_ = std::make_unique<BloomFilterBuilder>(options_.bloom_bits_per_key);
  }
}

TableBuilder::~TableBuilder() = default;

Status TableBuilder::Open() { return env_->NewWritableFile(path_, &file_); }

uint64_t TableBuilder::CurrentSizeEstimate() const {
  return offset_ +
         (data_builder_.empty() ? 0 : data_builder_.CurrentSizeEstimate());
}

Status TableBuilder::Add(const Slice& key, const Slice& value, uint64_t seq,
                         bool tombstone) {
  if (num_entries_ == 0) {
    smallest_key_ = key.ToString();
  }
  largest_key_ = key.ToString();
  payload_scratch_.clear();
  payload_scratch_.push_back(static_cast<char>(tombstone ? kFlagTombstone : 0));
  PutVarint64(&payload_scratch_, seq);
  payload_scratch_.append(value.data(), value.size());
  data_builder_.Add(key, Slice(payload_scratch_));
  if (filter_ != nullptr) filter_->AddKey(key);
  num_entries_++;
  if (data_builder_.CurrentSizeEstimate() >= options_.block_size) {
    return FlushDataBlock();
  }
  return Status::OK();
}

Status TableBuilder::WriteBlock(const Slice& raw, uint64_t* span) {
  // Optionally compress; fall back to the raw block when compression
  // does not pay.
  Slice payload = raw;
  CompressionType type = CompressionType::kNone;
  std::string compressed;
  if (options_.compression == CompressionType::kLz) {
    lz::Compress(raw, &compressed);
    if (compressed.size() < raw.size()) {
      payload = Slice(compressed);
      type = CompressionType::kLz;
    }
  }
  // Trailer: 1-byte compression type + crc32c over payload+type.
  std::string trailer;
  trailer.push_back(static_cast<char>(type));
  uint32_t crc = Crc32cExtend(Crc32c(payload.data(), payload.size()),
                              trailer.data(), 1);
  PutFixed32(&trailer, MaskCrc(crc));
  APM_RETURN_IF_ERROR(file_->Append(payload));
  APM_RETURN_IF_ERROR(file_->Append(trailer));
  *span = payload.size() + trailer.size();
  return Status::OK();
}

Status TableBuilder::FlushDataBlock() {
  if (data_builder_.empty()) return Status::OK();

  uint64_t span = 0;
  APM_RETURN_IF_ERROR(WriteBlock(data_builder_.Finish(), &span));

  char handle[12];
  EncodeFixed64(handle, offset_);
  EncodeFixed32(handle + 8, static_cast<uint32_t>(span));
  index_builder_.Add(Slice(largest_key_), Slice(handle, sizeof(handle)));
  data_builder_.Reset();
  offset_ += span;
  return Status::OK();
}

Status TableBuilder::Finish() {
  APM_RETURN_IF_ERROR(FlushDataBlock());

  uint64_t filter_offset = offset_;
  std::string filter_data;
  if (filter_ != nullptr) {
    filter_data = filter_->Finish();
    APM_RETURN_IF_ERROR(file_->Append(filter_data));
    offset_ += filter_data.size();
  }

  const uint64_t index_offset = offset_;
  const Slice index_block = index_builder_.Finish();
  APM_RETURN_IF_ERROR(file_->Append(index_block));
  offset_ += index_block.size();

  std::string footer;
  PutFixed64(&footer, index_offset);
  PutFixed32(&footer, static_cast<uint32_t>(index_block.size()));
  PutFixed64(&footer, filter_offset);
  PutFixed32(&footer, static_cast<uint32_t>(filter_data.size()));
  // Reserved: an empty extent at the index (former prefix_filter_off,
  // prefix_filter_sz, prefix_bloom_length), byte-identical to the tables
  // earlier builds wrote without a prefix bloom.
  PutFixed64(&footer, index_offset);
  PutFixed32(&footer, 0);
  PutFixed32(&footer, 0);
  PutFixed32(&footer, kTableFormatV2);
  PutFixed64(&footer, kTableMagic);
  APM_RETURN_IF_ERROR(file_->Append(footer));
  offset_ += footer.size();

  APM_RETURN_IF_ERROR(file_->Sync());
  APM_RETURN_IF_ERROR(file_->Close());
  file_size_ = offset_;
  finished_ = true;
  return Status::OK();
}

void TableBuilder::Abandon() {
  if (file_ != nullptr) {
    file_->Close();
    file_.reset();
  }
  env_->RemoveFile(path_);
}

// ---------------------------------------------------------------------------
// Table

Status Table::Open(const Options& options, Env* env, const std::string& path,
                   uint64_t file_number, BlockCache* cache,
                   std::unique_ptr<Table>* table) {
  std::unique_ptr<Table> t(new Table());
  t->options_ = options;
  t->file_number_ = file_number;
  t->cache_ = cache;
  APM_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &t->file_));
  t->file_size_ = t->file_->Size();
  APM_RETURN_IF_ERROR(
      ReadFooterFrom(t->file_.get(), t->file_size_, path, &t->footer_));
  const TableFooter& footer = t->footer_;

  // Every extent must lie before the footer; checked before anything is
  // allocated, so a damaged size field cannot trigger a huge zero-filled
  // buffer. ReadFooterFrom guarantees file_size >= kFooterSize.
  const uint64_t body_size = t->file_size_ - kFooterSize;
  APM_RETURN_IF_ERROR(CheckExtent("index", footer.index_offset,
                                  footer.index_size, body_size, path));
  APM_RETURN_IF_ERROR(CheckExtent("filter", footer.filter_offset,
                                  footer.filter_size, body_size, path));
  // Data blocks precede the filter and index blocks.
  const uint64_t data_limit =
      footer.filter_size > 0
          ? std::min(footer.filter_offset, footer.index_offset)
          : footer.index_offset;

  // Load the index block. It is prefix-compressed on disk, so materialize
  // the full keys once into index_storage_ and drop the raw block.
  const uint32_t index_size = t->footer_.index_size;
  std::string index_data(index_size, '\0');
  Slice index_slice;
  APM_RETURN_IF_ERROR(t->file_->Read(t->footer_.index_offset, index_size,
                                     &index_slice, index_data.data()));
  if (index_slice.size() != index_size) {
    return Status::Corruption("short index read: " + path);
  }
  struct RawEntry {
    size_t key_offset;
    size_t key_size;
    uint64_t offset;
    uint32_t size;
  };
  std::vector<RawEntry> raw_entries;
  BlockCursor cursor(index_slice, /*data_block=*/false);
  for (bool ok = cursor.SeekToFirst(); ok; ok = cursor.Next()) {
    const Slice payload = cursor.payload();
    if (payload.size() != 12) {
      return Status::Corruption("bad index entry: " + path);
    }
    RawEntry raw;
    raw.key_offset = t->index_storage_.size();
    raw.key_size = cursor.key().size();
    raw.offset = DecodeFixed64(payload.data());
    raw.size = DecodeFixed32(payload.data() + 8);
    APM_RETURN_IF_ERROR(
        CheckExtent("data block", raw.offset, raw.size, data_limit, path));
    t->index_storage_.append(cursor.key().data(), cursor.key().size());
    raw_entries.push_back(raw);
  }
  if (cursor.corrupt()) {
    return Status::Corruption("bad index block: " + path);
  }
  t->index_.reserve(raw_entries.size());
  for (const RawEntry& raw : raw_entries) {
    IndexEntry entry;
    entry.last_key =
        Slice(t->index_storage_.data() + raw.key_offset, raw.key_size);
    entry.offset = raw.offset;
    entry.size = raw.size;
    t->index_.push_back(entry);
  }

  // Load the bloom filter, pinned and charged to the cache.
  if (footer.filter_size > 0) {
    const uint32_t size = footer.filter_size;
    std::string data(size, '\0');
    Slice read;
    APM_RETURN_IF_ERROR(
        t->file_->Read(footer.filter_offset, size, &read, data.data()));
    if (read.size() != size) {
      return Status::Corruption("short filter read: " + path);
    }
    if (read.data() != data.data()) {
      data.assign(read.data(), read.size());
    }
    t->filter_block_ =
        cache != nullptr
            ? cache->Insert(file_number, footer.filter_offset, std::move(data))
            : BlockCache::Wrap(std::move(data));
    t->filter_ = Slice(*t->filter_block_);
  }

  *table = std::move(t);
  return Status::OK();
}

Status Table::ReadBlock(uint64_t offset, uint32_t size,
                        BlockCache::BlockHandle* block, bool fill_cache) {
  if (cache_ != nullptr) {
    *block = cache_->Lookup(file_number_, offset);
    if (*block != nullptr) return Status::OK();
  }
  if (size < 5) return Status::Corruption("block too small");
  std::string raw(size, '\0');
  Slice result;
  APM_RETURN_IF_ERROR(file_->Read(offset, size, &result, raw.data()));
  if (result.size() != size) return Status::Corruption("short block read");
  uint32_t stored_crc = UnmaskCrc(DecodeFixed32(result.data() + size - 4));
  if (stored_crc != Crc32c(result.data(), size - 4)) {
    return Status::Corruption("block checksum mismatch");
  }
  auto type = static_cast<CompressionType>(
      static_cast<uint8_t>(result.data()[size - 5]));
  std::string data;
  if (type == CompressionType::kLz) {
    if (!lz::Uncompress(Slice(result.data(), size - 5), &data)) {
      return Status::Corruption("block decompression failed");
    }
  } else if (type == CompressionType::kNone) {
    if (result.data() == raw.data()) {
      // The payload already sits in `raw`: trim the trailer and keep the
      // buffer instead of copying the block a second time.
      raw.resize(size - 5);
      data = std::move(raw);
    } else {
      data.assign(result.data(), size - 5);
    }
  } else {
    return Status::Corruption("unknown block compression type");
  }
  // Inserting returns the entry already pinned, so concurrent readers of
  // a hot block share the cache-owned bytes with no extra copy.
  *block = cache_ != nullptr && fill_cache
               ? cache_->Insert(file_number_, offset, std::move(data))
               : BlockCache::Wrap(std::move(data));
  return Status::OK();
}

int Table::FindBlock(const Slice& key) const {
  // Binary search for the first block whose last_key >= key.
  int lo = 0;
  int hi = static_cast<int>(index_.size()) - 1;
  int result = -1;
  while (lo <= hi) {
    int mid = lo + (hi - lo) / 2;
    if (Slice(index_[mid].last_key).Compare(key) >= 0) {
      result = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  return result;
}

Status Table::Get(const ReadOptions& read_options, const Slice& key,
                  GetResult* result, std::string* value, uint64_t* seq) {
  *result = GetResult::kAbsent;
  if (!filter_.empty() && !BloomFilterMayMatch(filter_, key)) {
    return Status::OK();
  }
  int block_index = FindBlock(key);
  if (block_index < 0) return Status::OK();

  BlockCache::BlockHandle block;
  APM_RETURN_IF_ERROR(ReadBlock(index_[block_index].offset,
                                index_[block_index].size, &block,
                                read_options.fill_cache));
  BlockCursor cursor{Slice(*block)};
  if (cursor.Seek(key) && cursor.key().Compare(key) == 0) {
    if (seq != nullptr) *seq = cursor.seq();
    if (cursor.tombstone()) {
      *result = GetResult::kDeleted;
    } else {
      *result = GetResult::kFound;
      value->assign(cursor.value().data(), cursor.value().size());
    }
    return Status::OK();
  }
  if (cursor.corrupt()) return Status::Corruption("corrupt data block");
  return Status::OK();
}

/// Iterator walking a table's blocks in order.
class TableIterator final : public Iterator {
 public:
  TableIterator(Table* table, const ReadOptions& read_options)
      : table_(table), read_options_(read_options) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    block_index_ = -1;
    valid_ = false;
    NextBlock();
  }

  void Seek(const Slice& target) override {
    valid_ = false;
    int idx = table_->FindBlock(target);
    if (idx < 0) return;
    if (!LoadBlock(idx)) return;
    if (cursor_->Seek(target)) {
      valid_ = true;
      return;
    }
    if (cursor_->corrupt()) {
      status_ = Status::Corruption("corrupt data block");
      return;
    }
    // Target is past this block's last key; move on.
    NextBlock();
  }

  void Next() override {
    if (!valid_) return;
    if (cursor_->Next()) return;
    if (cursor_->corrupt()) {
      status_ = Status::Corruption("corrupt data block");
      valid_ = false;
      return;
    }
    NextBlock();
  }

  Slice key() const override { return cursor_->key(); }
  Slice value() const override { return cursor_->value(); }
  bool IsTombstone() const override { return cursor_->tombstone(); }
  uint64_t seq() const override { return cursor_->seq(); }
  Status status() const override { return status_; }

 private:
  bool LoadBlock(int index) {
    block_index_ = index;
    Status s = table_->ReadBlock(table_->index_[index].offset,
                                 table_->index_[index].size, &block_,
                                 read_options_.fill_cache);
    if (!s.ok()) {
      status_ = s;
      return false;
    }
    cursor_ = std::make_unique<BlockCursor>(Slice(*block_));
    return true;
  }

  void NextBlock() {
    for (;;) {
      int next = block_index_ + 1;
      if (next >= static_cast<int>(table_->index_.size())) {
        valid_ = false;
        return;
      }
      if (!LoadBlock(next)) {
        valid_ = false;
        return;
      }
      if (cursor_->SeekToFirst()) {
        valid_ = true;
        return;
      }
      if (cursor_->corrupt()) {
        status_ = Status::Corruption("corrupt data block");
        valid_ = false;
        return;
      }
    }
  }

  Table* table_;
  ReadOptions read_options_;
  int block_index_ = -1;
  BlockCache::BlockHandle block_;
  std::unique_ptr<BlockCursor> cursor_;
  bool valid_ = false;
  Status status_;
};

std::unique_ptr<Iterator> Table::NewIterator(const ReadOptions& read_options) {
  return std::make_unique<TableIterator>(this, read_options);
}

}  // namespace apmbench::lsm
