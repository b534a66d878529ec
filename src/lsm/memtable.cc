#include "lsm/memtable.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"

namespace apmbench::lsm {

namespace {

constexpr uint8_t kFlagTombstone = 0x1;

/// Stack-or-heap buffer holding the `klen | key | seq` prefix of the entry
/// encoding, used to seek the skip list without allocating for typical key
/// sizes (APM keys are well under the inline capacity).
class LookupKey {
 public:
  LookupKey(const Slice& key, uint64_t seq) {
    const size_t needed = VarintLength(key.size()) + key.size() + 8;
    char* dst = needed <= sizeof(inline_) ? inline_
                                          : (heap_ = new char[needed]);
    start_ = dst;
    dst = EncodeVarint32(dst, static_cast<uint32_t>(key.size()));
    std::memcpy(dst, key.data(), key.size());
    EncodeFixed64(dst + key.size(), seq);
  }
  ~LookupKey() { delete[] heap_; }

  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;

  const char* entry() const { return start_; }

 private:
  const char* start_;
  char* heap_ = nullptr;
  char inline_[192];
};

}  // namespace

MemTable::MemTable(size_t arena_block_bytes)
    : arena_(arena_block_bytes), table_(&arena_) {}

MemTable::DecodedEntry MemTable::DecodeEntry(const char* p) {
  DecodedEntry entry;
  uint32_t klen = 0;
  // Entries are self-produced, so decode with a generous bound instead of a
  // real limit; a varint32 occupies at most 5 bytes.
  p = GetVarint32Ptr(p, p + 5, &klen);
  assert(p != nullptr);
  entry.key = Slice(p, klen);
  p += klen;
  entry.seq = DecodeFixed64(p);
  p += 8;
  entry.tombstone = (static_cast<uint8_t>(*p) & kFlagTombstone) != 0;
  p += 1;
  uint32_t vlen = 0;
  p = GetVarint32Ptr(p, p + 5, &vlen);
  assert(p != nullptr);
  entry.value = Slice(p, vlen);
  return entry;
}

int MemTable::EntryCompare::operator()(const char* a, const char* b) const {
  uint32_t aklen = 0, bklen = 0;
  const char* ak = GetVarint32Ptr(a, a + 5, &aklen);
  const char* bk = GetVarint32Ptr(b, b + 5, &bklen);
  assert(ak != nullptr && bk != nullptr);
  int c = Slice(ak, aklen).Compare(Slice(bk, bklen));
  if (c != 0) return c;
  // Newer versions sort first so a seek to (key, limit) lands on the
  // newest visible version.
  const uint64_t aseq = DecodeFixed64(ak + aklen);
  const uint64_t bseq = DecodeFixed64(bk + bklen);
  if (aseq > bseq) return -1;
  if (aseq < bseq) return 1;
  return 0;
}

void MemTable::Add(const Slice& key, const Slice& value, uint64_t seq,
                   bool tombstone) {
  const size_t vlen = tombstone ? 0 : value.size();
  const size_t bytes = VarintLength(key.size()) + key.size() + 8 + 1 +
                       VarintLength(vlen) + vlen;
  char* buf = arena_.Allocate(bytes);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(key.size()));
  std::memcpy(p, key.data(), key.size());
  p += key.size();
  EncodeFixed64(p, seq);
  p += 8;
  *p++ = tombstone ? static_cast<char>(kFlagTombstone) : 0;
  p = EncodeVarint32(p, static_cast<uint32_t>(vlen));
  if (vlen > 0) std::memcpy(p, value.data(), vlen);
  table_.Insert(buf, 0);
}

void MemTable::Put(const Slice& key, const Slice& value, uint64_t seq) {
  Add(key, value, seq, /*tombstone=*/false);
}

void MemTable::Delete(const Slice& key, uint64_t seq) {
  Add(key, Slice(), seq, /*tombstone=*/true);
}

MemTable::GetResult MemTable::Get(const Slice& key, std::string* value,
                                  uint64_t* seq, uint64_t seq_limit) const {
  // The newest version with sequence <= seq_limit is the first entry at or
  // after (key, seq_limit) in (key asc, seq desc) order.
  Table::Iterator iter(&table_);
  LookupKey lookup(key, seq_limit);
  iter.Seek(lookup.entry());
  if (!iter.Valid()) return GetResult::kAbsent;
  DecodedEntry entry = DecodeEntry(iter.key());
  if (entry.key.Compare(key) != 0) return GetResult::kAbsent;
  if (seq != nullptr) *seq = entry.seq;
  if (entry.tombstone) return GetResult::kDeleted;
  value->assign(entry.value.data(), entry.value.size());
  return GetResult::kFound;
}

class MemTableIterator final : public Iterator {
 public:
  MemTableIterator(const MemTable::Table* table, uint64_t seq_limit)
      : iter_(table), seq_limit_(seq_limit) {}

  bool Valid() const override { return iter_.Valid(); }
  void SeekToFirst() override {
    iter_.SeekToFirst();
    SkipInvisible();
  }
  void Seek(const Slice& target) override {
    // (target, kMaxSeq) sorts before every stored version of `target`.
    LookupKey lookup(target, MemTable::kMaxSeq);
    iter_.Seek(lookup.entry());
    SkipInvisible();
  }
  void Next() override {
    iter_.Next();
    SkipInvisible();
  }

  Slice key() const override { return entry_.key; }
  Slice value() const override { return entry_.value; }
  bool IsTombstone() const override { return entry_.tombstone; }
  uint64_t seq() const override { return entry_.seq; }
  Status status() const override { return Status::OK(); }

 private:
  void SkipInvisible() {
    while (iter_.Valid()) {
      entry_ = MemTable::DecodeEntry(iter_.key());
      if (entry_.seq <= seq_limit_) return;
      iter_.Next();
    }
  }

  MemTable::Table::Iterator iter_;
  MemTable::DecodedEntry entry_;
  const uint64_t seq_limit_;
};

std::unique_ptr<Iterator> MemTable::NewIterator(uint64_t seq_limit) const {
  return std::make_unique<MemTableIterator>(&table_, seq_limit);
}

}  // namespace apmbench::lsm
