#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/random.h"
#include "lsm/bloom.h"
#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "lsm/memtable.h"
#include "lsm/row.h"
#include "lsm/sstable.h"
#include "lsm/wal.h"
#include "tests/test_util.h"

namespace apmbench::lsm {
namespace {

using testutil::ScopedTempDir;

TEST(MemTableTest, PutGetDelete) {
  MemTable mem;
  mem.Put("key1", "value1", 1);
  std::string value;
  EXPECT_EQ(mem.Get("key1", &value), MemTable::GetResult::kFound);
  EXPECT_EQ(value, "value1");
  EXPECT_EQ(mem.Get("nope", &value), MemTable::GetResult::kAbsent);

  mem.Delete("key1", 2);
  uint64_t seq = 0;
  EXPECT_EQ(mem.Get("key1", &value, &seq), MemTable::GetResult::kDeleted);
  EXPECT_EQ(seq, 2u);
}

TEST(MemTableTest, OverwriteKeepsLatest) {
  MemTable mem;
  mem.Put("k", "v1", 1);
  mem.Put("k", "v2", 2);
  std::string value;
  EXPECT_EQ(mem.Get("k", &value), MemTable::GetResult::kFound);
  EXPECT_EQ(value, "v2");
  // The memtable is multi-version (insert-only so readers can run
  // lock-free against the writer): both versions are stored, the newest
  // wins on read, and older versions are visible at lower seq limits.
  EXPECT_EQ(mem.EntryCount(), 2u);
  EXPECT_EQ(mem.Get("k", &value, nullptr, /*seq_limit=*/1),
            MemTable::GetResult::kFound);
  EXPECT_EQ(value, "v1");
  EXPECT_EQ(mem.Get("k", &value, nullptr, /*seq_limit=*/0),
            MemTable::GetResult::kAbsent);
}

TEST(MemTableTest, IteratorOrderedWithSeqs) {
  MemTable mem;
  mem.Put("c", "3", 3);
  mem.Put("a", "1", 1);
  mem.Delete("b", 2);
  auto iter = mem.NewIterator();
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "a");
  EXPECT_FALSE(iter->IsTombstone());
  iter->Next();
  EXPECT_EQ(iter->key().ToString(), "b");
  EXPECT_TRUE(iter->IsTombstone());
  EXPECT_EQ(iter->seq(), 2u);
  iter->Next();
  EXPECT_EQ(iter->key().ToString(), "c");
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

TEST(WalTest, RoundTrip) {
  ScopedTempDir dir("wal");
  std::string path = dir.path() + "/test.log";
  Env* env = Env::Default();
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(path, &file).ok());
    LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord("record one", false).ok());
    ASSERT_TRUE(writer.AddRecord("record two", true).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::unique_ptr<LogReader> reader;
  ASSERT_TRUE(LogReader::Open(env, path, &reader).ok());
  std::string payload;
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "record one");
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "record two");
  EXPECT_FALSE(reader->ReadRecord(&payload));
}

TEST(WalTest, TornTailTruncates) {
  ScopedTempDir dir("wal2");
  std::string path = dir.path() + "/test.log";
  Env* env = Env::Default();
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(path, &file).ok());
    LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord("good", false).ok());
    ASSERT_TRUE(writer.AddRecord("will be torn", false).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Truncate the file mid-record.
  std::string data;
  ASSERT_TRUE(env->ReadFileToString(path, &data).ok());
  data.resize(data.size() - 3);
  ASSERT_TRUE(env->WriteStringToFile(path, Slice(data)).ok());

  std::unique_ptr<LogReader> reader;
  ASSERT_TRUE(LogReader::Open(env, path, &reader).ok());
  std::string payload;
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "good");
  EXPECT_FALSE(reader->ReadRecord(&payload));
}

TEST(WalTest, CorruptRecordStopsReplay) {
  ScopedTempDir dir("wal3");
  std::string path = dir.path() + "/test.log";
  Env* env = Env::Default();
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(path, &file).ok());
    LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord("first", false).ok());
    ASSERT_TRUE(writer.AddRecord("second", false).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::string data;
  ASSERT_TRUE(env->ReadFileToString(path, &data).ok());
  data[10] ^= 0x7f;  // flip a payload byte of the first record
  ASSERT_TRUE(env->WriteStringToFile(path, Slice(data)).ok());

  std::unique_ptr<LogReader> reader;
  ASSERT_TRUE(LogReader::Open(env, path, &reader).ok());
  std::string payload;
  EXPECT_FALSE(reader->ReadRecord(&payload));
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; i++) {
    keys.push_back("key" + std::to_string(i));
    builder.AddKey(keys.back());
  }
  std::string filter = builder.Finish();
  for (const auto& key : keys) {
    EXPECT_TRUE(BloomFilterMayMatch(filter, key));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; i++) {
    builder.AddKey("present" + std::to_string(i));
  }
  std::string filter = builder.Finish();
  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; i++) {
    if (BloomFilterMayMatch(filter, "absent" + std::to_string(i))) {
      false_positives++;
    }
  }
  // 10 bits/key gives ~1% FPR; allow generous slack.
  EXPECT_LT(false_positives, probes / 25);
}

TEST(BloomTest, EmptyFilterMatchesAll) {
  EXPECT_TRUE(BloomFilterMayMatch(Slice(), "anything"));
}

TEST(BlockCacheTest, InsertLookupEvict) {
  // One shard so the capacity/LRU arithmetic is exact (the sharded paths
  // are covered by cache_test.cc). Entries are charged their actual
  // footprint — payload capacity plus kEntryOverheadBytes — so first
  // measure one entry's charge, then size the cache for exactly two.
  BlockCache probe(1 << 20, /*shard_bits=*/0);
  probe.Insert(1, 0, std::string(40, 'x'));
  const size_t per_entry = probe.inserted_charged_bytes();
  ASSERT_GE(per_entry, 40 + BlockCache::kEntryOverheadBytes);

  BlockCache cache(2 * per_entry + per_entry / 2, /*shard_bits=*/0);
  cache.Insert(1, 0, std::string(40, 'x'));  // pin released immediately
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 999), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Fill beyond capacity (room for two entries): LRU (file 1) evicted.
  cache.Insert(2, 0, std::string(40, 'y'));
  cache.Insert(3, 0, std::string(40, 'z'));
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(3, 0), nullptr);
  EXPECT_LE(cache.charge(), cache.capacity());
  EXPECT_EQ(cache.evictions(), 1u);

  // Charge-accuracy accounting: payload bytes vs charged bytes.
  EXPECT_EQ(cache.inserted_payload_bytes(), 120u);
  EXPECT_GE(cache.inserted_charged_bytes(),
            3 * (40 + BlockCache::kEntryOverheadBytes));
}

TEST(BlockCacheTest, EvictFileRemovesAllBlocks) {
  BlockCache cache(1000);
  cache.Insert(7, 0, "aaa");
  cache.Insert(7, 10, "bbb");
  cache.Insert(8, 0, "ccc");
  cache.EvictFile(7);
  EXPECT_EQ(cache.Lookup(7, 0), nullptr);
  EXPECT_EQ(cache.Lookup(7, 10), nullptr);
  EXPECT_NE(cache.Lookup(8, 0), nullptr);
}

class SSTableTest : public ::testing::Test {
 protected:
  SSTableTest() : dir_("sst") {
    options_.dir = dir_.path();
    options_.block_size = 256;  // force multiple blocks
  }

  ScopedTempDir dir_;
  Options options_;
};

TEST_F(SSTableTest, BuildAndRead) {
  std::string path = dir_.path() + "/1.sst";
  TableBuilder builder(options_, Env::Default(), path);
  ASSERT_TRUE(builder.Open().ok());
  for (int i = 0; i < 500; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", i);
    ASSERT_TRUE(builder
                    .Add(key, "value" + std::to_string(i),
                         static_cast<uint64_t>(i + 1), false)
                    .ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.NumEntries(), 500u);
  EXPECT_EQ(builder.smallest_key(), "key00000");
  EXPECT_EQ(builder.largest_key(), "key00499");

  BlockCache cache(1 << 20);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Open(options_, Env::Default(), path, 1, &cache, &table).ok());

  // Point lookups.
  for (int i = 0; i < 500; i += 7) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", i);
    Table::GetResult result;
    std::string value;
    uint64_t seq = 0;
    ASSERT_TRUE(
        table->Get(ReadOptions(), key, &result, &value, &seq).ok());
    ASSERT_EQ(result, Table::GetResult::kFound) << key;
    EXPECT_EQ(value, "value" + std::to_string(i));
    EXPECT_EQ(seq, static_cast<uint64_t>(i + 1));
  }
  // Absent keys.
  Table::GetResult result;
  std::string value;
  ASSERT_TRUE(
      table->Get(ReadOptions(), "zzz", &result, &value, nullptr).ok());
  EXPECT_EQ(result, Table::GetResult::kAbsent);
}

TEST_F(SSTableTest, IteratorFullScanAndSeek) {
  std::string path = dir_.path() + "/2.sst";
  TableBuilder builder(options_, Env::Default(), path);
  ASSERT_TRUE(builder.Open().ok());
  for (int i = 0; i < 300; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(builder.Add(key, "v", static_cast<uint64_t>(i), i % 10 == 0)
                    .ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  BlockCache cache(1 << 20);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Open(options_, Env::Default(), path, 2, &cache, &table).ok());

  auto iter = table->NewIterator(ReadOptions());
  iter->SeekToFirst();
  int count = 0;
  std::string prev;
  int tombstones = 0;
  while (iter->Valid()) {
    EXPECT_GT(iter->key().ToString(), prev);
    prev = iter->key().ToString();
    if (iter->IsTombstone()) tombstones++;
    iter->Next();
    count++;
  }
  EXPECT_EQ(count, 300);
  EXPECT_EQ(tombstones, 30);
  EXPECT_TRUE(iter->status().ok());

  iter->Seek("k0150");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "k0150");
  iter->Seek("k01505");  // between keys
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "k0151");
  iter->Seek("zzzz");
  EXPECT_FALSE(iter->Valid());
}

TEST_F(SSTableTest, CorruptBlockDetected) {
  std::string path = dir_.path() + "/3.sst";
  TableBuilder builder(options_, Env::Default(), path);
  ASSERT_TRUE(builder.Open().ok());
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(builder.Add(key, "some value data", 1, false).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  // Flip a byte in the first data block.
  std::string data;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &data).ok());
  data[20] ^= 0x55;
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, Slice(data)).ok());

  BlockCache cache(1 << 20);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Open(options_, Env::Default(), path, 3, &cache, &table).ok());
  Table::GetResult result;
  std::string value;
  Status s = table->Get(ReadOptions(), "k0000", &result, &value, nullptr);
  EXPECT_TRUE(s.IsCorruption());
}

// --- v2 block format: prefix compression + restart points -----------------

// Encodes a v2 data-block payload: flags byte, varint seq, value bytes.
std::string DataPayload(uint64_t seq, const std::string& value,
                        bool tombstone = false) {
  std::string p;
  p.push_back(tombstone ? '\x01' : '\x00');
  PutVarint64(&p, seq);
  p.append(value);
  return p;
}

TEST(BlockV2Test, EmptyBlock) {
  BlockBuilder builder(4);
  EXPECT_TRUE(builder.empty());
  Slice raw = builder.Finish();
  EXPECT_GE(raw.size(), 8u);  // restart array (entry 0) + count

  BlockCursor cursor(raw);
  EXPECT_FALSE(cursor.SeekToFirst());
  EXPECT_FALSE(cursor.SeekToLast());
  EXPECT_FALSE(cursor.Seek("anything"));
  EXPECT_FALSE(cursor.corrupt());
}

TEST(BlockV2Test, SingleKeyBlock) {
  BlockBuilder builder(16);
  builder.Add("only", DataPayload(7, "val"));
  Slice raw = builder.Finish();

  BlockCursor cursor(raw);
  ASSERT_TRUE(cursor.SeekToFirst());
  EXPECT_EQ(cursor.key().ToString(), "only");
  EXPECT_EQ(cursor.value().ToString(), "val");
  EXPECT_EQ(cursor.seq(), 7u);
  EXPECT_FALSE(cursor.tombstone());
  EXPECT_FALSE(cursor.Next());

  ASSERT_TRUE(cursor.SeekToLast());
  EXPECT_EQ(cursor.key().ToString(), "only");

  ASSERT_TRUE(cursor.Seek("aaa"));  // before the key
  EXPECT_EQ(cursor.key().ToString(), "only");
  ASSERT_TRUE(cursor.Seek("only"));  // exact
  EXPECT_EQ(cursor.key().ToString(), "only");
  EXPECT_FALSE(cursor.Seek("onlyz"));  // past the end
  EXPECT_FALSE(cursor.corrupt());
}

TEST(BlockV2Test, SeekAcrossRestartBoundaries) {
  // A small restart interval makes almost every Seek cross a restart
  // boundary: the binary search must land on the floor restart and the
  // forward scan must rebuild prefix-compressed keys correctly.
  const int kInterval = 4;
  const int kKeys = 103;  // deliberately not a multiple of the interval
  BlockBuilder builder(kInterval);
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; i++) {
    char key[16];
    snprintf(key, sizeof(key), "user%04d", i * 2);  // gaps for between-seeks
    keys.push_back(key);
    builder.Add(key, DataPayload(static_cast<uint64_t>(i + 1), "v"));
  }
  Slice raw = builder.Finish();

  BlockCursor cursor(raw);
  for (int i = 0; i < kKeys; i++) {
    // Exact key.
    ASSERT_TRUE(cursor.Seek(keys[i])) << keys[i];
    EXPECT_EQ(cursor.key().ToString(), keys[i]);
    EXPECT_EQ(cursor.seq(), static_cast<uint64_t>(i + 1));
    // Between this key and the next: lands on the next.
    std::string between = keys[i] + "!";
    if (i + 1 < kKeys) {
      ASSERT_TRUE(cursor.Seek(between));
      EXPECT_EQ(cursor.key().ToString(), keys[i + 1]);
    } else {
      EXPECT_FALSE(cursor.Seek(between));
    }
  }
  ASSERT_TRUE(cursor.Seek(""));  // before everything
  EXPECT_EQ(cursor.key().ToString(), keys.front());
  EXPECT_FALSE(cursor.corrupt());

  // The same data with a restart on every entry (no prefix compression)
  // must be strictly larger: the shared "user" prefixes are elided.
  BlockBuilder uncompressed(1);
  for (const auto& key : keys) {
    uncompressed.Add(key, DataPayload(1, "v"));
  }
  EXPECT_LT(raw.size(), uncompressed.Finish().size());
}

TEST(BlockV2Test, SeekToLastAndFullIteration) {
  BlockBuilder builder(3);
  const int kKeys = 10;
  for (int i = 0; i < kKeys; i++) {
    builder.Add("k" + std::to_string(i),
                DataPayload(static_cast<uint64_t>(i), std::to_string(i)));
  }
  Slice raw = builder.Finish();

  BlockCursor cursor(raw);
  ASSERT_TRUE(cursor.SeekToLast());
  EXPECT_EQ(cursor.key().ToString(), "k9");
  EXPECT_EQ(cursor.value().ToString(), "9");
  EXPECT_FALSE(cursor.Next());

  int n = 0;
  for (bool ok = cursor.SeekToFirst(); ok; ok = cursor.Next(), void()) {
    EXPECT_EQ(cursor.key().ToString(), "k" + std::to_string(n));
    n++;
    if (n > kKeys) break;
  }
  EXPECT_EQ(n, kKeys);
  EXPECT_FALSE(cursor.corrupt());
}

TEST(BlockV2Test, KeysSharingFullPrefixes) {
  // Each key is a full prefix of the next, so non-restart entries store
  // zero or near-zero unshared bytes — the hardest case for the key
  // reconstruction buffer.
  std::vector<std::string> keys;
  std::string k;
  for (int i = 0; i < 12; i++) {
    k += static_cast<char>('a' + (i % 3));
    keys.push_back(k);
  }
  BlockBuilder builder(4);
  for (size_t i = 0; i < keys.size(); i++) {
    builder.Add(keys[i], DataPayload(i + 1, "v" + std::to_string(i)));
  }
  Slice raw = builder.Finish();

  BlockCursor cursor(raw);
  ASSERT_TRUE(cursor.SeekToFirst());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(cursor.Valid());
    EXPECT_EQ(cursor.key().ToString(), keys[i]);
    EXPECT_EQ(cursor.value().ToString(), "v" + std::to_string(i));
    cursor.Next();
  }
  EXPECT_FALSE(cursor.Valid());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(cursor.Seek(keys[i]));
    EXPECT_EQ(cursor.key().ToString(), keys[i]);
  }
  EXPECT_FALSE(cursor.corrupt());
}

TEST(BlockV2Test, InterleavedTombstones) {
  BlockBuilder builder(4);
  const int kKeys = 20;
  for (int i = 0; i < kKeys; i++) {
    char key[16];
    snprintf(key, sizeof(key), "row%03d", i);
    builder.Add(key, DataPayload(static_cast<uint64_t>(i + 1),
                                 i % 2 == 0 ? "live" : "",
                                 /*tombstone=*/i % 2 == 1));
  }
  Slice raw = builder.Finish();

  BlockCursor cursor(raw);
  int n = 0;
  for (bool ok = cursor.SeekToFirst(); ok; ok = cursor.Next()) {
    EXPECT_EQ(cursor.tombstone(), n % 2 == 1) << n;
    if (n % 2 == 0) {
      EXPECT_EQ(cursor.value().ToString(), "live");
    }
    n++;
  }
  EXPECT_EQ(n, kKeys);
  ASSERT_TRUE(cursor.Seek("row007"));
  EXPECT_TRUE(cursor.tombstone());
  EXPECT_EQ(cursor.seq(), 8u);
  ASSERT_TRUE(cursor.Seek("row008"));
  EXPECT_FALSE(cursor.tombstone());
  EXPECT_FALSE(cursor.corrupt());
}

TEST(BlockV2Test, IndexBlockPayloadsAreOpaque) {
  // Index blocks reuse the same format with binary 12-byte payloads; the
  // cursor must hand them back untouched (no data-payload decode).
  BlockBuilder builder(2);
  std::vector<std::string> payloads;
  for (int i = 0; i < 5; i++) {
    std::string p;
    PutFixed64(&p, static_cast<uint64_t>(i) * 4096);
    PutFixed32(&p, 512 + i);
    payloads.push_back(p);
    builder.Add("block" + std::to_string(i), p);
  }
  Slice raw = builder.Finish();

  BlockCursor cursor(raw, /*data_block=*/false);
  int n = 0;
  for (bool ok = cursor.SeekToFirst(); ok; ok = cursor.Next()) {
    ASSERT_LT(n, 5);
    EXPECT_EQ(cursor.payload().ToString(), payloads[n]);
    n++;
  }
  EXPECT_EQ(n, 5);
  EXPECT_FALSE(cursor.corrupt());
}

// --- table format ------------------------------------------------------------

TEST_F(SSTableTest, WriterEmitsFormatVersion2) {
  std::string path = dir_.path() + "/fmt.sst";
  TableBuilder builder(options_, Env::Default(), path);
  ASSERT_TRUE(builder.Open().ok());
  for (int i = 0; i < 300; i++) {
    char key[24];
    snprintf(key, sizeof(key), "common/prefix/%05d", i);
    ASSERT_TRUE(
        builder.Add(key, "value", static_cast<uint64_t>(i + 1), false).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  TableFooter footer;
  ASSERT_TRUE(ReadTableFooter(Env::Default(), path, &footer).ok());
  EXPECT_EQ(footer.format_version, kTableFormatV2);

  BlockCache cache(1 << 20);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Open(options_, Env::Default(), path, 2, &cache, &table).ok());
  for (int i = 0; i < 300; i += 17) {
    char key[24];
    snprintf(key, sizeof(key), "common/prefix/%05d", i);
    Table::GetResult result;
    std::string value;
    ASSERT_TRUE(table->Get(ReadOptions(), key, &result, &value, nullptr).ok());
    ASSERT_EQ(result, Table::GetResult::kFound) << key;
    EXPECT_EQ(value, "value");
  }
}

TEST_F(SSTableTest, PrefixCompressionShrinksTableAndIndex) {
  // Long keys with a heavy shared prefix: both the data blocks and the
  // index entries (last key per block) shrink once entries between
  // restart points share their predecessor's prefix. Interval 1 stores
  // every key in full.
  uint64_t sizes[2] = {0, 0};
  uint64_t index_sizes[2] = {0, 0};
  const int intervals[2] = {1, 16};
  for (int i = 0; i < 2; i++) {
    std::string path =
        dir_.path() + "/cmp" + std::to_string(intervals[i]) + ".sst";
    options_.block_restart_interval = intervals[i];
    TableBuilder builder(options_, Env::Default(), path);
    ASSERT_TRUE(builder.Open().ok());
    for (int k = 0; k < 2000; k++) {
      char key[48];
      snprintf(key, sizeof(key), "org.example.metrics.host%04d.cpu", k);
      ASSERT_TRUE(builder.Add(key, "8.25", 1, false).ok());
    }
    ASSERT_TRUE(builder.Finish().ok());
    TableFooter footer;
    ASSERT_TRUE(ReadTableFooter(Env::Default(), path, &footer).ok());
    sizes[i] = builder.FileSize();
    index_sizes[i] = footer.index_size;
  }
  EXPECT_LT(sizes[1], sizes[0]);
  EXPECT_LT(index_sizes[1], index_sizes[0]);
}

TEST_F(SSTableTest, FooterRejectsUnknownVersionAndMagic) {
  std::string path = dir_.path() + "/vt.sst";
  TableBuilder builder(options_, Env::Default(), path);
  ASSERT_TRUE(builder.Open().ok());
  ASSERT_TRUE(builder.Add("k", "v", 1, false).ok());
  ASSERT_TRUE(builder.Finish().ok());

  std::string data;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &data).ok());

  // Patch the footer's format_version (the fixed32 just before the
  // trailing fixed64 magic) to an unknown value.
  std::string future = data;
  std::string version99;
  PutFixed32(&version99, 99);
  future.replace(future.size() - 12, 4, version99);
  std::string future_path = dir_.path() + "/vt_future.sst";
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(future_path, Slice(future)).ok());

  TableFooter footer;
  Status s = ReadTableFooter(Env::Default(), future_path, &footer);
  EXPECT_TRUE(s.IsCorruption());
  BlockCache cache(1 << 20);
  std::unique_ptr<Table> table;
  EXPECT_TRUE(Table::Open(options_, Env::Default(), future_path, 11, &cache,
                          &table)
                  .IsCorruption());

  // Garbage magic fails the same way, and so does the retired plain-block
  // table magic: only "APMBNCH2" tables are readable.
  std::string retired_magic;
  PutFixed64(&retired_magic, 0x41504d424e434831ull);  // "APMBNCH1"
  uint64_t number = 12;
  for (const std::string& magic : {std::string("XXXXXXXX"), retired_magic}) {
    std::string bad_magic = data;
    bad_magic.replace(bad_magic.size() - 8, 8, magic);
    std::string magic_path =
        dir_.path() + "/vt_magic" + std::to_string(number) + ".sst";
    ASSERT_TRUE(
        Env::Default()->WriteStringToFile(magic_path, Slice(bad_magic)).ok());
    EXPECT_TRUE(ReadTableFooter(Env::Default(), magic_path, &footer)
                    .IsCorruption());
    EXPECT_TRUE(Table::Open(options_, Env::Default(), magic_path, number++,
                            &cache, &table)
                    .IsCorruption());
  }
}

// Footer field offsets, counted from the start of the 52-byte footer.
constexpr size_t kFooterBytes = 52;
constexpr size_t kIndexSizeAt = 8;
constexpr size_t kFilterOffsetAt = 12;
constexpr size_t kFilterSizeAt = 20;
constexpr size_t kReservedAt = 24;
constexpr size_t kFilterKindAt = 36;

/// Builds a small multi-block table at `path` and returns its bytes.
std::string BuildTableBytes(const Options& options, const std::string& path) {
  TableBuilder builder(options, Env::Default(), path);
  EXPECT_TRUE(builder.Open().ok());
  for (int i = 0; i < 200; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", i);
    EXPECT_TRUE(builder.Add(key, "value", 1, false).ok());
  }
  EXPECT_TRUE(builder.Finish().ok());
  std::string data;
  EXPECT_TRUE(Env::Default()->ReadFileToString(path, &data).ok());
  return data;
}

void PatchFixed32(std::string* data, size_t at, uint32_t value) {
  std::string encoded;
  PutFixed32(&encoded, value);
  data->replace(at, 4, encoded);
}

TEST_F(SSTableTest, WriterFillsReservedFooterFieldsAsEmptyExtent) {
  const std::string path = dir_.path() + "/reserved.sst";
  const std::string data = BuildTableBytes(options_, path);
  const size_t footer = data.size() - kFooterBytes;
  // index_off, 0: the empty extent earlier builds wrote with no prefix
  // bloom; then filter_kind, which marks a row filter.
  EXPECT_EQ(DecodeFixed64(data.data() + footer + kReservedAt),
            DecodeFixed64(data.data() + footer));
  EXPECT_EQ(DecodeFixed32(data.data() + footer + kReservedAt + 8), 0u);
  EXPECT_EQ(DecodeFixed32(data.data() + footer + kFilterKindAt),
            kRowFilterMarker);
  TableFooter parsed;
  ASSERT_TRUE(ReadTableFooter(Env::Default(), path, &parsed).ok());
  EXPECT_TRUE(parsed.row_filter);

  // Any other filter_kind (0 from earlier builds, a prefix length from
  // prefix-bloom builds) reads as a whole-key filter.
  for (uint32_t kind : {0u, 8u}) {
    std::string earlier = data;
    PatchFixed32(&earlier, footer + kFilterKindAt, kind);
    const std::string earlier_path =
        dir_.path() + "/kind" + std::to_string(kind) + ".sst";
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFile(earlier_path, Slice(earlier))
                    .ok());
    ASSERT_TRUE(ReadTableFooter(Env::Default(), earlier_path, &parsed).ok());
    EXPECT_FALSE(parsed.row_filter) << kind;
  }
}

/// The filter block of the table at `path`.
std::string FilterBlock(const std::string& path) {
  std::string data;
  EXPECT_TRUE(Env::Default()->ReadFileToString(path, &data).ok());
  TableFooter footer;
  EXPECT_TRUE(ReadTableFooter(Env::Default(), path, &footer).ok());
  return data.substr(footer.filter_offset, footer.filter_size);
}

// The filter gets each distinct row once, tombstones included; keys
// without a '\0' are their own rows, so their filter is the whole-key
// filter bit for bit.
TEST_F(SSTableTest, FilterHoldsEachRowOnce) {
  BloomFilterBuilder rows(options_.bloom_bits_per_key);
  const std::string cells_path = dir_.path() + "/cells.sst";
  {
    TableBuilder builder(options_, Env::Default(), cells_path);
    ASSERT_TRUE(builder.Open().ok());
    for (int r = 0; r < 50; r++) {
      char row[16];
      snprintf(row, sizeof(row), "row%03d", r);
      rows.AddKey(row);
      for (int q = 0; q < 5; q++) {
        const std::string key = RowStart(row) + "f:q" + std::to_string(q);
        ASSERT_TRUE(builder.Add(key, "v", 1, /*tombstone=*/r % 7 == 0).ok());
      }
    }
    ASSERT_TRUE(builder.Finish().ok());
  }
  EXPECT_EQ(FilterBlock(cells_path), rows.Finish());

  BloomFilterBuilder keys(options_.bloom_bits_per_key);
  const std::string plain_path = dir_.path() + "/plain.sst";
  {
    TableBuilder builder(options_, Env::Default(), plain_path);
    ASSERT_TRUE(builder.Open().ok());
    for (int i = 0; i < 250; i++) {
      char key[16];
      snprintf(key, sizeof(key), "user%05d", i);
      keys.AddKey(key);
      ASSERT_TRUE(builder.Add(key, "v", 1, false).ok());
    }
    ASSERT_TRUE(builder.Finish().ok());
  }
  EXPECT_EQ(FilterBlock(plain_path), keys.Finish());

  // Get checks a cell key's row against the row filter.
  BlockCache cache(1 << 20);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Open(options_, Env::Default(), cells_path, 3, &cache, &table)
          .ok());
  Table::GetResult result;
  std::string value;
  ASSERT_TRUE(table->Get(ReadOptions(), RowStart("row001") + "f:q3", &result,
                         &value, nullptr)
                  .ok());
  EXPECT_EQ(result, Table::GetResult::kFound);
  ASSERT_TRUE(table->Get(ReadOptions(), RowStart("row007") + "f:q0", &result,
                         &value, nullptr)
                  .ok());
  EXPECT_EQ(result, Table::GetResult::kDeleted);
  EXPECT_TRUE(table->MayContainRow("row001"));
  EXPECT_TRUE(table->MayContainRow("row007"));
}

TEST(RowTest, RowOfAndOneRowRanges) {
  EXPECT_EQ(RowOf("user1"), Slice("user1"));
  EXPECT_EQ(RowOf(RowStart("user1") + "f:a"), Slice("user1"));
  EXPECT_EQ(RowOf(Slice("\0x", 2)), Slice());

  Slice row;
  const std::string start = RowStart("user1");
  const std::string limit = RowLimit("user1");
  ASSERT_TRUE(RangeWithinOneRow(start, limit, &row));
  EXPECT_EQ(row, Slice("user1"));
  EXPECT_TRUE(RangeWithinOneRow(start + "f:b", RowStart("user1") + "f:c",
                                &row));
  // Ranges that may reach a second row.
  EXPECT_FALSE(RangeWithinOneRow("user1", limit, &row));     // no '\0'
  EXPECT_FALSE(RangeWithinOneRow(start, Slice(), &row));     // unbounded
  EXPECT_FALSE(RangeWithinOneRow(start, limit + "x", &row));
  EXPECT_FALSE(RangeWithinOneRow(start, "user1x", &row));
  EXPECT_FALSE(RangeWithinOneRow(start, "user2", &row));
  EXPECT_FALSE(RangeWithinOneRow(start, RowLimit("user10"), &row));
  // Empty ranges (limit <= start) hold no second row either.
  EXPECT_TRUE(RangeWithinOneRow(start, "user1", &row));
  EXPECT_TRUE(RangeWithinOneRow(start, "user0", &row));
}

// Table::Open validates every extent it reads from the file before
// allocating a buffer for it.
TEST_F(SSTableTest, OpenRejectsFooterExtentsPastTheFooter) {
  const std::string data = BuildTableBytes(options_, dir_.path() + "/ok.sst");
  const size_t footer = data.size() - kFooterBytes;
  BlockCache cache(1 << 20);
  uint64_t number = 20;
  struct Patch {
    size_t at;
    uint32_t value;
    const char* extent;
  };
  const uint32_t past_end = static_cast<uint32_t>(data.size());
  const Patch patches[] = {
      {kIndexSizeAt, 0xfffffff0u, "index extent"},
      {kIndexSizeAt, past_end, "index extent"},
      {kFilterSizeAt, 0xfffffff0u, "filter extent"},
      {kFilterOffsetAt, past_end, "filter extent"},
  };
  for (const Patch& patch : patches) {
    std::string bad = data;
    PatchFixed32(&bad, footer + patch.at, patch.value);
    const std::string path =
        dir_.path() + "/bad" + std::to_string(number) + ".sst";
    ASSERT_TRUE(Env::Default()->WriteStringToFile(path, Slice(bad)).ok());
    std::unique_ptr<Table> table;
    Status s =
        Table::Open(options_, Env::Default(), path, number++, &cache, &table);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find(patch.extent), std::string::npos)
        << s.ToString();
  }

  // An offset near 2^64 must not wrap around the bounds check.
  std::string wrapped = data;
  std::string huge;
  PutFixed64(&huge, ~0ull - 8);
  wrapped.replace(footer, 8, huge);
  const std::string path = dir_.path() + "/wrapped.sst";
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, Slice(wrapped)).ok());
  std::unique_ptr<Table> table;
  Status s =
      Table::Open(options_, Env::Default(), path, number, &cache, &table);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("index extent"), std::string::npos)
      << s.ToString();
}

TEST_F(SSTableTest, OpenRejectsIndexEntryPastTheDataBlocks) {
  const std::string data = BuildTableBytes(options_, dir_.path() + "/ok.sst");
  const size_t footer = data.size() - kFooterBytes;
  const uint64_t index_off = DecodeFixed64(data.data() + footer);
  const uint32_t index_sz = DecodeFixed32(data.data() + footer + kIndexSizeAt);
  // Locate the first index entry's payload (fixed64 offset, fixed32 span)
  // inside the file bytes.
  BlockCursor cursor(Slice(data.data() + index_off, index_sz),
                     /*data_block=*/false);
  ASSERT_TRUE(cursor.SeekToFirst());
  ASSERT_EQ(cursor.payload().size(), 12u);
  const size_t payload_at =
      static_cast<size_t>(cursor.payload().data() - data.data());

  BlockCache cache(1 << 20);
  uint64_t number = 30;
  // A 4 GiB span, and a span that runs into the filter block.
  for (uint32_t span : {0xfffffff0u, static_cast<uint32_t>(index_off)}) {
    std::string bad = data;
    PatchFixed32(&bad, payload_at + 8, span);
    const std::string path =
        dir_.path() + "/badentry" + std::to_string(number) + ".sst";
    ASSERT_TRUE(Env::Default()->WriteStringToFile(path, Slice(bad)).ok());
    std::unique_ptr<Table> table;
    Status s =
        Table::Open(options_, Env::Default(), path, number++, &cache, &table);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("data block extent"), std::string::npos)
        << s.ToString();
  }
}

class DBTest : public ::testing::Test {
 protected:
  DBTest() : dir_("lsmdb") {
    options_.dir = dir_.path();
    options_.memtable_bytes = 16 * 1024;  // small to force flushes
    options_.block_size = 512;
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, &db_).ok()); }
  void Reopen() {
    db_.reset();
    Open();
  }

  ScopedTempDir dir_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, PutGetDelete) {
  Open();
  ASSERT_TRUE(db_->Put("alpha", "1").ok());
  ASSERT_TRUE(db_->Put("beta", "2").ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "alpha", &value).ok());
  EXPECT_EQ(value, "1");
  EXPECT_TRUE(db_->Get(ReadOptions(), "gamma", &value).IsNotFound());
  ASSERT_TRUE(db_->Delete("alpha").ok());
  EXPECT_TRUE(db_->Get(ReadOptions(), "alpha", &value).IsNotFound());
}

TEST_F(DBTest, OverwriteAcrossFlush) {
  Open();
  ASSERT_TRUE(db_->Put("k", "old").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put("k", "new").ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ(value, "new");
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ(value, "new");
}

TEST_F(DBTest, DeleteShadowsFlushedValue) {
  Open();
  ASSERT_TRUE(db_->Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete("k").ok());
  ASSERT_TRUE(db_->Flush().ok());
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "k", &value).IsNotFound());
  // After major compaction, the tombstone is dropped and the key stays
  // deleted.
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_TRUE(db_->Get(ReadOptions(), "k", &value).IsNotFound());
}

TEST_F(DBTest, ScanMergesAllSources) {
  Open();
  // Some keys flushed, some in memtable, one deleted.
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        db_->Put("key" + std::to_string(i), "flushed" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put("key3", "updated3").ok());
  ASSERT_TRUE(db_->Delete("key5").ok());
  ASSERT_TRUE(db_->Put("key95", "fresh").ok());

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key3", 5, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].first, "key3");
  EXPECT_EQ(out[0].second, "updated3");
  EXPECT_EQ(out[1].first, "key4");
  EXPECT_EQ(out[2].first, "key6");  // key5 deleted
  EXPECT_EQ(out[3].first, "key7");
  EXPECT_EQ(out[4].first, "key8");
}

TEST_F(DBTest, BoundedScanStopsBeforeLimit) {
  Open();
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        db_->Put("key" + std::to_string(i), "flushed" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  // Newer memtable versions and tombstones beside the flushed table.
  ASSERT_TRUE(db_->Put("key3", "updated3").ok());
  ASSERT_TRUE(db_->Delete("key5").ok());
  ASSERT_TRUE(db_->Put("key7", "updated7").ok());
  ASSERT_TRUE(db_->Delete("key8").ok());

  using Rows = std::vector<std::pair<std::string, std::string>>;
  Rows out;
  // The bound is exclusive: key6 exists but is not returned.
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key3", "key6", 100, &out).ok());
  EXPECT_EQ(out, (Rows{{"key3", "updated3"}, {"key4", "flushed4"}}));

  // A key with a memtable and a table version yields the newest, once.
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key7", "key8", 100, &out).ok());
  EXPECT_EQ(out, (Rows{{"key7", "updated7"}}));

  // Tombstones inside the range hide their keys up to the bound.
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key5", "key6", 100, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key8", "key9", 100, &out).ok());
  EXPECT_TRUE(out.empty());

  // count still caps a bounded scan.
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key0", "key9", 2, &out).ok());
  EXPECT_EQ(out, (Rows{{"key0", "flushed0"}, {"key1", "flushed1"}}));

  // An empty bound means no bound.
  Rows unbounded;
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key3", Slice(), 100, &out).ok());
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key3", 100, &unbounded).ok());
  EXPECT_EQ(out, unbounded);
  EXPECT_EQ(out.size(), 5u);  // key3 key4 key6 key7 key9

  // A bound at or below start returns nothing.
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key5", "key2", 100, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(db_->Scan(ReadOptions(), "key4", "key4", 100, &out).ok());
  EXPECT_TRUE(out.empty());
}

// A bounded scan reads only blocks that can hold keys in range: tables
// wholly outside [start, limit) are never opened, and the merge stops at
// the first key >= limit instead of walking on through tombstones. Cost
// is counted in block-cache lookups (hits + misses).
TEST_F(DBTest, BoundedScanReadsOnlyBlocksInRange) {
  options_.memtable_bytes = 1 << 20;     // only explicit flushes
  options_.size_tiered_min_files = 16;   // keep every flushed table apart
  Open();
  auto lookups = [this] {
    DB::Stats stats = db_->GetStats();
    return stats.cache_hits + stats.cache_misses;
  };
  auto key = [](char range, int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%c%04d", range, i);
    return std::string(buf);
  };
  using Rows = std::vector<std::pair<std::string, std::string>>;
  Rows out;

  // Four flushed tables holding the ranges a, b, c and d.
  for (char range : {'a', 'b', 'c', 'd'}) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db_->Put(key(range, i), "value" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  uint64_t before = lookups();
  ASSERT_TRUE(
      db_->Scan(ReadOptions(), key('b', 50), key('b', 51), 100, &out).ok());
  EXPECT_EQ(out, (Rows{{key('b', 50), "value50"}}));
  // The b table's one block; tables a, c and d stay closed.
  EXPECT_EQ(lookups() - before, 1u);

  // 2000 keys deleted in a newer table, starting exactly at the bound.
  // That table also holds one live key below the bound, so the merge must
  // open it and stop at the first tombstone; the older table holding the
  // deleted values lies wholly at the bound and stays closed.
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(key('e', i), "doomed").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Delete(key('e', i)).ok());
  }
  ASSERT_TRUE(db_->Put(key('d', 100), "value100").ok());
  ASSERT_TRUE(db_->Flush().ok());
  before = lookups();
  ASSERT_TRUE(
      db_->Scan(ReadOptions(), key('d', 95), key('e', 0), 100, &out).ok());
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out.back(), (std::pair<std::string, std::string>(key('d', 100),
                                                             "value100")));
  // One block of the d table and one of the tombstone table.
  EXPECT_EQ(lookups() - before, 2u);
}

/// Cell key `row` + '\0' + "f:q<q>".
std::string Cell(const std::string& row, int q) {
  return RowStart(row) + "f:q" + std::to_string(q);
}

std::string RowName(int r) {
  char buf[16];
  snprintf(buf, sizeof(buf), "row%03d", r);
  return buf;
}

/// The cells of `row` in `db`, read with one one-row scan.
std::vector<std::pair<std::string, std::string>> ReadRow(
    DB* db, const std::string& row) {
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_TRUE(
      db->Scan(ReadOptions(), RowStart(row), RowLimit(row), 1000, &out).ok());
  return out;
}

/// The cells of `row` in `model`.
std::vector<std::pair<std::string, std::string>> ModelRow(
    const std::map<std::string, std::string>& model, const std::string& row) {
  return {model.lower_bound(RowStart(row)), model.lower_bound(RowLimit(row))};
}

// A one-row scan opens only the tables whose row filter admits the row.
// The three tables hold disjoint, interleaved rows, so every table's key
// range spans every row and only the filter tells them apart. Each table
// is one data block, so the owning table costs one block-cache lookup,
// and another table costs one only where its filter (rebuilt here bit for
// bit, see FilterHoldsEachRowOnce) gives a false positive.
TEST_F(DBTest, OneRowScanReadsOnlyTheTableHoldingTheRow) {
  options_.memtable_bytes = 1 << 20;     // only explicit flushes
  options_.size_tiered_min_files = 16;   // keep every flushed table apart
  options_.block_size = 64 * 1024;
  Open();
  auto lookups = [this] {
    DB::Stats stats = db_->GetStats();
    return stats.cache_hits + stats.cache_misses;
  };
  constexpr int kRows = 60;
  std::map<std::string, std::string> model;
  std::vector<std::string> filters;
  for (int t = 0; t < 3; t++) {
    BloomFilterBuilder filter(options_.bloom_bits_per_key);
    for (int r = t; r < kRows; r += 3) {
      filter.AddKey(RowName(r));
      for (int q = 0; q < 4; q++) {
        const std::string value = "v" + std::to_string(r * 10 + q);
        ASSERT_TRUE(db_->Put(Cell(RowName(r), q), value).ok());
        model[Cell(RowName(r), q)] = value;
      }
    }
    ASSERT_TRUE(db_->Flush().ok());
    filters.push_back(filter.Finish());
  }
  ASSERT_EQ(db_->GetStats().files_per_level[0], 3);
  // Filters other than table `owner`'s that admit `row`.
  auto false_positives = [&](const std::string& row, int owner) {
    uint64_t n = 0;
    for (int t = 0; t < 3; t++) {
      if (t != owner && BloomFilterMayMatch(filters[t], row)) n++;
    }
    return n;
  };

  uint64_t total_false_positives = 0;
  for (int r = 0; r < kRows; r++) {
    const std::string row = RowName(r);
    uint64_t before = lookups();
    EXPECT_EQ(ReadRow(db_.get(), row), ModelRow(model, row));
    EXPECT_EQ(lookups() - before, 1 + false_positives(row, r % 3)) << row;
    total_false_positives += false_positives(row, r % 3);
    // A row no table holds, inside every table's key range.
    if (r < 3 || r >= kRows - 3) continue;
    const std::string absent = row + "x";
    before = lookups();
    EXPECT_TRUE(ReadRow(db_.get(), absent).empty());
    EXPECT_EQ(lookups() - before, false_positives(absent, -1)) << absent;
    total_false_positives += false_positives(absent, -1);
  }
  EXPECT_LT(total_false_positives, 10u);
  // A scan that may cross rows still reads every table.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), RowStart(RowName(4)),
                        RowLimit(RowName(6)), 100, &out)
                  .ok());
  EXPECT_EQ(out.size(), 12u);
}

// Row reads under the filter skip: a row split between a table and the
// memtable, a row deleted by tombstones in a newer table, and rows whose
// names extend one another in different tables.
TEST_F(DBTest, OneRowScansAcrossTablesMatchTheModel) {
  options_.memtable_bytes = 1 << 20;
  options_.size_tiered_min_files = 16;
  Open();
  std::map<std::string, std::string> model;
  auto put = [&](const std::string& row, int q, const std::string& value) {
    ASSERT_TRUE(db_->Put(Cell(row, q), value).ok());
    model[Cell(row, q)] = value;
  };
  auto del = [&](const std::string& row, int q) {
    ASSERT_TRUE(db_->Delete(Cell(row, q)).ok());
    model.erase(Cell(row, q));
  };
  for (int q = 0; q < 3; q++) put("split", q, "old");
  for (int q = 0; q < 3; q++) put("doomed", q, "old");
  put("user1x", 0, "x");
  ASSERT_TRUE(db_->Flush().ok());
  for (int q = 0; q < 3; q++) del("doomed", q);
  put("user10", 0, "ten");
  ASSERT_TRUE(db_->Flush().ok());
  put("user1", 0, "one");
  ASSERT_TRUE(db_->Flush().ok());
  put("split", 1, "new");
  put("split", 3, "new");

  auto check = [&]() {
    for (const char* row : {"split", "doomed", "user1", "user1x", "user10",
                            "user", "user2"}) {
      EXPECT_EQ(ReadRow(db_.get(), row), ModelRow(model, row)) << row;
    }
    for (const auto& [key, value] : model) {
      std::string got;
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &got).ok());
      EXPECT_EQ(got, value);
    }
    std::string got;
    EXPECT_TRUE(db_->Get(ReadOptions(), Cell("doomed", 1), &got).IsNotFound());
  };
  ASSERT_EQ(ModelRow(model, "split").size(), 4u);
  EXPECT_TRUE(ModelRow(model, "doomed").empty());
  check();
  Reopen();
  check();
  ASSERT_TRUE(db_->CompactAll().ok());
  check();
}

// The streaming Scan over a DB holding a live memtable, an immutable
// memtable (its flush held at a gate) and a table at once: the visitor
// sees exactly what the vector form returns, newest versions only, and a
// visitor that returns false after k entries is called exactly k times.
TEST_F(DBTest, StreamingScanMatchesVectorFormAcrossAllSources) {
  testutil::TableGateEnv env(Env::Default());
  options_.env = &env;
  options_.size_tiered_min_files = 16;
  env.GateCreation(1);  // the immutable memtable's flush
  env.gate()->Close();
  Open();
  using Rows = std::vector<std::pair<std::string, std::string>>;
  std::map<std::string, std::string> model;
  auto key = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    return std::string(buf);
  };
  auto put = [&](int i, const std::string& value) {
    ASSERT_TRUE(db_->Put(key(i), value).ok());
    model[key(i)] = value;
  };
  auto del = [&](int i) {
    ASSERT_TRUE(db_->Delete(key(i)).ok());
    model.erase(key(i));
  };

  for (int i = 0; i < 100; i++) put(i, "table" + std::to_string(i));
  ASSERT_TRUE(db_->Flush().ok());

  // Overwrite and delete table keys until the memtable rotates; the write
  // that rotates it lands in the new live memtable.
  const std::string pad(200, 'p');
  uint64_t last_bytes = db_->GetStats().memtable_bytes;
  for (int i = 0;; i++) {
    ASSERT_LT(i, 1000) << "memtable never rotated";
    if (i % 3 == 0) {
      del(i % 100);
    } else {
      put(i % 100, "imm" + std::to_string(i) + pad);
    }
    const uint64_t bytes = db_->GetStats().memtable_bytes;
    if (bytes < last_bytes) break;
    last_bytes = bytes;
  }
  // Live memtable: shadow table and immutable versions (one key twice),
  // delete a live key, and add keys past the table's range.
  put(1, "live1-old");
  put(1, "live1");
  put(2, "live2");
  del(4);
  put(150, "live150");
  put(151, "live151");
  del(151);
  // The immutable memtable's flush has its table open and is held there.
  for (int i = 0; i < 100000 && env.gate()->blocked() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(env.gate()->blocked(), 1);

  auto stream = [&](const Slice& start, const Slice& limit, int stop_after,
                    Rows* out) {
    out->clear();
    int calls = 0;
    Status s = db_->Scan(ReadOptions(), start, limit,
                         [&](const Slice& k, const Slice& v) {
                           out->emplace_back(k.ToString(), v.ToString());
                           return ++calls < stop_after;
                         });
    EXPECT_EQ(static_cast<int>(out->size()), calls);
    return s;
  };
  auto expected = [&](const std::string& start, const std::string& limit) {
    Rows rows;
    for (auto it = model.lower_bound(start);
         it != model.end() && (limit.empty() || it->first < limit); ++it) {
      rows.emplace_back(it->first, it->second);
    }
    return rows;
  };

  const std::vector<std::pair<std::string, std::string>> ranges = {
      {"", ""},
      {key(0), key(10)},
      {key(3), key(4)},
      {key(4), key(5)},
      {key(50), ""},
      {key(99), key(151)},
      {key(151), ""}};
  for (const auto& [start, limit] : ranges) {
    SCOPED_TRACE(start + ".." + limit);
    Rows streamed, collected;
    ASSERT_TRUE(stream(start, limit, INT32_MAX, &streamed).ok());
    ASSERT_TRUE(
        db_->Scan(ReadOptions(), start, limit, INT32_MAX, &collected).ok());
    EXPECT_EQ(streamed, collected);
    EXPECT_EQ(streamed, expected(start, limit));
  }

  const Rows all = expected("", "");
  ASSERT_GT(all.size(), 10u);
  for (int k : {1, 2, 7, static_cast<int>(all.size())}) {
    SCOPED_TRACE(k);
    Rows streamed;
    ASSERT_TRUE(stream(Slice(), Slice(), k, &streamed).ok());
    EXPECT_EQ(streamed, Rows(all.begin(), all.begin() + k));
  }

  env.gate()->Open();
  ASSERT_TRUE(db_->Flush().ok());
  Rows streamed;
  ASSERT_TRUE(stream(Slice(), Slice(), INT32_MAX, &streamed).ok());
  EXPECT_EQ(streamed, all);
}

TEST_F(DBTest, VerifyIntegrityComparesTableSizeWithManifest) {
  Open();
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put("key" + std::to_string(i), "value").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->VerifyIntegrity().ok());

  std::vector<std::string> children;
  ASSERT_TRUE(Env::Default()->GetChildren(dir_.path(), &children).ok());
  std::string name;
  for (const std::string& child : children) {
    if (child.size() > 4 && child.substr(child.size() - 4) == ".sst") {
      name = child;
    }
  }
  ASSERT_FALSE(name.empty());
  const std::string path = dir_.path() + "/" + name;
  std::string data;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &data).ok());
  const size_t manifest_size = data.size();
  data.append(7, 'x');
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, Slice(data)).ok());

  Status s = db_->VerifyIntegrity();
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  const uint64_t number = std::stoull(name.substr(0, name.size() - 4));
  const std::string msg = s.ToString();
  EXPECT_NE(msg.find("table " + std::to_string(number) + " "),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find(std::to_string(manifest_size + 7)), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("manifest says " + std::to_string(manifest_size)),
            std::string::npos)
      << msg;
}

TEST_F(DBTest, RecoversFromWal) {
  Open();
  ASSERT_TRUE(db_->Put("persist1", "a").ok());
  ASSERT_TRUE(db_->Put("persist2", "b").ok());
  ASSERT_TRUE(db_->Delete("persist1").ok());
  Reopen();
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "persist1", &value).IsNotFound());
  ASSERT_TRUE(db_->Get(ReadOptions(), "persist2", &value).ok());
  EXPECT_EQ(value, "b");
}

TEST_F(DBTest, RecoversFlushedData) {
  Open();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put("key" + std::to_string(i),
                         std::string(50, 'v'))
                    .ok());
  }
  Reopen();
  std::string value;
  for (int i = 0; i < 2000; i += 101) {
    ASSERT_TRUE(db_->Get(ReadOptions(), "key" + std::to_string(i), &value)
                    .ok())
        << i;
    EXPECT_EQ(value, std::string(50, 'v'));
  }
}

TEST_F(DBTest, SizeTieredCompactionReducesFileCount) {
  options_.size_tiered_min_files = 4;
  Open();
  Random rng(5);
  for (int i = 0; i < 8000; i++) {
    ASSERT_TRUE(db_->Put("key" + std::to_string(rng.Uniform(4000)),
                         std::string(40, 'x'))
                    .ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  // Give compactions a chance to run, then force the rest.
  ASSERT_TRUE(db_->CompactAll().ok());
  DB::Stats stats = db_->GetStats();
  EXPECT_GE(stats.num_flushes, 2u);
  EXPECT_GE(stats.num_compactions, 1u);
  // Major compaction leaves a single table.
  int total_files = 0;
  for (int files : stats.files_per_level) total_files += files;
  EXPECT_EQ(total_files, 1);
  // Data still correct.
  std::string value;
  Status s = db_->Get(ReadOptions(), "key1", &value);
  EXPECT_TRUE(s.ok() || s.IsNotFound());
}

TEST_F(DBTest, SizeTieredEscapesAdmissionStall) {
  // Liveness regression: geometric file sizes defeat STCS similarity
  // bucketing (every bucket stays a singleton), so once L0 reaches the
  // stop trigger no ordinary pick exists — and with writers hard-blocked
  // no flush can ever complete a bucket. The escape valve must merge the
  // smallest files anyway and unblock the stalled writer; without it the
  // rotation below waits forever.
  options_.size_tiered_min_files = 4;
  options_.level0_slowdown_trigger = 0;
  options_.level0_stop_trigger = 6;
  Open();
  std::vector<size_t> sizes = {1000, 3000, 9000, 27000, 81000, 243000};
  for (size_t i = 0; i < sizes.size(); i++) {
    std::string key = "g" + std::to_string(i);
    ASSERT_TRUE(db_->Put(key, std::string(sizes[i], 'a' + i)).ok());
    ASSERT_TRUE(db_->Flush().ok());
  }
  // Overfill the memtable, then write again: the second put must rotate,
  // which passes through the stop-trigger gate and blocks until the
  // escape compaction brings the L0 count back down.
  ASSERT_TRUE(db_->Put("big", std::string(20 * 1024, 'z')).ok());
  ASSERT_TRUE(db_->Put("tiny", "t").ok());
  DB::Stats stats = db_->GetStats();
  EXPECT_GE(stats.stall_escape_compactions, 1u);
  std::string value;
  for (size_t i = 0; i < sizes.size(); i++) {
    ASSERT_TRUE(db_->Get(ReadOptions(), "g" + std::to_string(i), &value).ok());
    EXPECT_EQ(value.size(), sizes[i]);
    EXPECT_EQ(value[0], static_cast<char>('a' + i));
  }
  ASSERT_TRUE(db_->Get(ReadOptions(), "big", &value).ok());
  EXPECT_EQ(value.size(), 20u * 1024);
  ASSERT_TRUE(db_->Get(ReadOptions(), "tiny", &value).ok());
  EXPECT_EQ(value, "t");
}

TEST_F(DBTest, LeveledCompactionKeepsDataCorrect) {
  options_.compaction_style = CompactionStyle::kLeveled;
  options_.level0_compaction_trigger = 2;
  options_.level1_max_bytes = 64 * 1024;
  Open();
  std::map<std::string, std::string> model;
  Random rng(6);
  for (int i = 0; i < 6000; i++) {
    std::string key = "key" + std::to_string(rng.Uniform(3000));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db_->Put(key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->Flush().ok());
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    EXPECT_EQ(value, expected) << key;
  }
}

TEST_F(DBTest, PropertyRandomOpsAgainstModel) {
  Open();
  std::map<std::string, std::string> model;
  Random rng(99);
  for (int i = 0; i < 15000; i++) {
    int op = static_cast<int>(rng.Uniform(10));
    std::string key = "k" + std::to_string(rng.Uniform(500));
    if (op < 6) {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(db_->Put(key, value).ok());
      model[key] = value;
    } else if (op < 8) {
      db_->Delete(key);
      model.erase(key);
    } else if (op < 9) {
      std::string value;
      Status s = db_->Get(ReadOptions(), key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
        EXPECT_EQ(value, it->second);
      }
    } else {
      std::vector<std::pair<std::string, std::string>> got;
      ASSERT_TRUE(db_->Scan(ReadOptions(), key, 10, &got).ok());
      auto it = model.lower_bound(key);
      for (const auto& [got_key, got_value] : got) {
        ASSERT_NE(it, model.end());
        EXPECT_EQ(got_key, it->first);
        EXPECT_EQ(got_value, it->second);
        ++it;
      }
    }
  }
  // Survive a reopen and re-verify a sample.
  Reopen();
  int checked = 0;
  for (const auto& [key, expected] : model) {
    if (++checked % 7 != 0) continue;
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    EXPECT_EQ(value, expected);
  }
}

TEST_F(DBTest, DiskUsageGrowsWithData) {
  Open();
  uint64_t before = 0, after = 0;
  ASSERT_TRUE(db_->DiskUsage(&before).ok());
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db_->Put("key" + std::to_string(i), std::string(100, 'd'))
                    .ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->DiskUsage(&after).ok());
  EXPECT_GT(after, before + 50 * 1000);
}

TEST_F(DBTest, RequiresDirOption) {
  Options bad;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(bad, &db).IsInvalidArgument());
}

// Only the "APMMANF2" manifest is readable: a MANIFEST carrying the retired
// "APMMANF1" magic under a valid checksum fails Open with Corruption.
TEST_F(DBTest, RejectsRetiredManifestMagic) {
  Open();
  ASSERT_TRUE(db_->Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();

  const std::string manifest = dir_.path() + "/MANIFEST";
  std::string body;
  ASSERT_TRUE(Env::Default()->ReadFileToString(manifest, &body).ok());
  ASSERT_GT(body.size(), 12u);
  std::string magic;
  PutFixed64(&magic, 0x41504d4d414e4631ull);  // "APMMANF1"
  body.replace(0, 8, magic);
  std::string crc;
  PutFixed32(&crc, MaskCrc(Crc32c(body.data(), body.size() - 4)));
  body.replace(body.size() - 4, 4, crc);
  ASSERT_TRUE(Env::Default()->WriteStringToFile(manifest, Slice(body)).ok());

  std::unique_ptr<DB> db;
  Status s = DB::Open(options_, &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("bad manifest magic"), std::string::npos)
      << s.ToString();
}

// Flush accounting: a memtable has one arena, and the arena charges whole
// blocks, so a stream of tiny keys can overshoot write_buffer_size by at
// most one arena block (plus the block-vector bookkeeping the arena also
// counts).
TEST_F(DBTest, TinyKeysCannotOvershootWriteBuffer) {
  options_.memtable_bytes = 16 * 1024;
  options_.arena_block_bytes = 1024;  // under the memtable_bytes / 4 clamp
  Open();
  uint64_t max_observed = 0;
  for (int i = 0; i < 4000; i++) {
    char key[12];
    snprintf(key, sizeof(key), "t%06d", i);
    ASSERT_TRUE(db_->Put(key, "x").ok());
    max_observed = std::max(max_observed, db_->GetStats().memtable_bytes);
  }
  EXPECT_GT(db_->GetStats().num_flushes, 0u);
  EXPECT_LE(max_observed,
            options_.memtable_bytes + options_.arena_block_bytes + 128);
}

// The inverse accounting hazard: a memtable_bytes smaller than one arena
// block must not flush after every write. DB::Open clamps the block size
// to max(256, memtable_bytes / 4), so even a 2 KiB write buffer batches a
// few dozen entries per flush instead of one, and the overshoot stays
// within one clamped block.
TEST_F(DBTest, TinyMemtableDoesNotFlushPerPut) {
  options_.memtable_bytes = 2 * 1024;
  options_.arena_block_bytes = 4 * 1024;  // bigger than the whole buffer
  Open();
  const int kPuts = 300;
  uint64_t max_observed = 0;
  for (int i = 0; i < kPuts; i++) {
    char key[12];
    snprintf(key, sizeof(key), "c%06d", i);
    ASSERT_TRUE(db_->Put(key, "x").ok());
    max_observed = std::max(max_observed, db_->GetStats().memtable_bytes);
  }
  DB::Stats stats = db_->GetStats();
  EXPECT_GT(stats.num_flushes, 0u);
  // Unclamped, every put rotates the memtable (~300 flushes); clamped,
  // each 2 KiB buffer holds a few dozen 20-something-byte entries.
  EXPECT_LT(stats.num_flushes, kPuts / 4u);
  // The clamped block is 2 KiB / 4 = 512 bytes; an unclamped 4 KiB block
  // alone would exceed this bound.
  EXPECT_LE(max_observed, options_.memtable_bytes + 512 + 128);
}

}  // namespace
}  // namespace apmbench::lsm

// Separate file-scope test: real crash recovery. The child process opens
// the database, writes, and dies without any cleanup (_exit skips
// destructors and buffered-file flushing beyond what each Put already
// pushed to the OS); the parent then recovers from whatever reached the
// filesystem.
#include <sys/wait.h>
#include <unistd.h>

namespace apmbench::lsm {
namespace {

TEST(CrashRecoveryTest, SurvivesProcessKill) {
  ScopedTempDir dir("lsm-crash");
  const int kRecords = 3000;

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: write and die hard.
    Options options;
    options.dir = dir.path();
    options.memtable_bytes = 32 * 1024;  // force a few flushes too
    std::unique_ptr<DB> db;
    if (!DB::Open(options, &db).ok()) _exit(2);
    for (int i = 0; i < kRecords; i++) {
      if (!db->Put("key" + std::to_string(i), "value" + std::to_string(i))
               .ok()) {
        _exit(3);
      }
    }
    _exit(0);  // no destructors, no clean close
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  // Parent: recover and verify everything the child acknowledged.
  Options options;
  options.dir = dir.path();
  options.memtable_bytes = 32 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  std::string value;
  for (int i = 0; i < kRecords; i += 37) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
}

TEST(CrashRecoveryTest, SurvivesKillDuringDeletes) {
  ScopedTempDir dir("lsm-crash2");
  // Seed data in a clean first generation.
  {
    Options options;
    options.dir = dir.path();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, &db).ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db->Put("key" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Options options;
    options.dir = dir.path();
    std::unique_ptr<DB> db;
    if (!DB::Open(options, &db).ok()) _exit(2);
    for (int i = 0; i < 500; i += 2) {
      if (!db->Delete("key" + std::to_string(i)).ok()) _exit(3);
    }
    _exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  Options options;
  options.dir = dir.path();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  std::string value;
  for (int i = 0; i < 500; i++) {
    Status s = db->Get(ReadOptions(), "key" + std::to_string(i), &value);
    if (i % 2 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << i;
    } else {
      EXPECT_TRUE(s.ok()) << i;
    }
  }
}

TEST(EdgeCaseTest, BinaryKeysAndValues) {
  ScopedTempDir dir("lsm-binary");
  Options options;
  options.dir = dir.path();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  std::string key("k\0\x01\xff mid", 8);
  std::string value("\0\0\xfe binary", 9);
  ASSERT_TRUE(db->Put(Slice(key), Slice(value)).ok());
  ASSERT_TRUE(db->Flush().ok());
  std::string out;
  ASSERT_TRUE(db->Get(ReadOptions(), Slice(key), &out).ok());
  EXPECT_EQ(out, value);
}

TEST(EdgeCaseTest, EmptyValueRoundTrip) {
  ScopedTempDir dir("lsm-empty");
  Options options;
  options.dir = dir.path();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  ASSERT_TRUE(db->Put("key", "").ok());
  std::string out = "sentinel";
  ASSERT_TRUE(db->Get(ReadOptions(), "key", &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(db->Flush().ok());
  out = "sentinel";
  ASSERT_TRUE(db->Get(ReadOptions(), "key", &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(EdgeCaseTest, ScanPastEndAndEmptyDb) {
  ScopedTempDir dir("lsm-scan-edge");
  Options options;
  options.dir = dir.path();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db->Scan(ReadOptions(), "anything", 10, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Scan(ReadOptions(), "zzz", 10, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(db->Scan(ReadOptions(), "", 10, &out).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(ConcurrencyTest, ParallelWritersAndReaders) {
  ScopedTempDir dir("lsm-conc");
  Options options;
  options.dir = dir.path();
  options.memtable_bytes = 64 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());

  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 3000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      Random rng(static_cast<uint64_t>(t) + 1);
      std::string value;
      for (int i = 0; i < kOpsPerThread; i++) {
        std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i % 500);
        int op = static_cast<int>(rng.Uniform(10));
        if (op < 6) {
          if (!db->Put(key, "v" + std::to_string(i)).ok()) failures++;
        } else if (op < 8) {
          Status s = db->Get(ReadOptions(), key, &value);
          if (!s.ok() && !s.IsNotFound()) failures++;
        } else if (op < 9) {
          std::vector<std::pair<std::string, std::string>> out;
          if (!db->Scan(ReadOptions(), key, 5, &out).ok()) failures++;
        } else {
          Status s = db->Delete(key);
          if (!s.ok()) failures++;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // The database remains consistent after the storm.
  ASSERT_TRUE(db->CompactAll().ok());
  std::string value;
  Status s = db->Get(ReadOptions(), "t0-0", &value);
  EXPECT_TRUE(s.ok() || s.IsNotFound());
}

}  // namespace
}  // namespace apmbench::lsm

namespace apmbench::lsm {
namespace {

TEST(WriteBatchTest, AppliesAtomicallyAndInOrder) {
  ScopedTempDir dir("lsm-batch");
  Options options;
  options.dir = dir.path();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());

  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  EXPECT_EQ(batch.Count(), 4u);
  ASSERT_TRUE(db->Write(batch).ok());

  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "a", &value).IsNotFound());
  ASSERT_TRUE(db->Get(ReadOptions(), "b", &value).ok());
  EXPECT_EQ(value, "2");
  ASSERT_TRUE(db->Get(ReadOptions(), "c", &value).ok());
  EXPECT_EQ(value, "3");

  batch.Clear();
  EXPECT_EQ(batch.Count(), 0u);
  ASSERT_TRUE(db->Write(batch).ok());  // empty batch is a no-op
}

TEST(WriteBatchTest, RecoversAtomically) {
  ScopedTempDir dir("lsm-batch2");
  Options options;
  options.dir = dir.path();
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, &db).ok());
    for (int i = 0; i < 200; i++) {
      WriteBatch batch;
      for (int f = 0; f < 5; f++) {
        batch.Put("row" + std::to_string(i) + "/f" + std::to_string(f),
                  "v" + std::to_string(i));
      }
      ASSERT_TRUE(db->Write(batch).ok());
    }
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  // Every recovered row has all five cells.
  std::string value;
  for (int i = 0; i < 200; i += 13) {
    for (int f = 0; f < 5; f++) {
      ASSERT_TRUE(db->Get(ReadOptions(),
                          "row" + std::to_string(i) + "/f" +
                              std::to_string(f),
                          &value)
                      .ok())
          << i << " " << f;
    }
  }
}

TEST(WriteBatchTest, CrashLeavesWholeRowsOnly) {
  // Rows written via batches are all-or-nothing across a hard kill.
  ScopedTempDir dir("lsm-batch3");
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Options options;
    options.dir = dir.path();
    std::unique_ptr<DB> db;
    if (!DB::Open(options, &db).ok()) _exit(2);
    for (int i = 0; i < 500; i++) {
      WriteBatch batch;
      for (int f = 0; f < 5; f++) {
        batch.Put("row" + std::to_string(i) + "/f" + std::to_string(f), "v");
      }
      if (!db->Write(batch).ok()) _exit(3);
    }
    _exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  Options options;
  options.dir = dir.path();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  std::string value;
  for (int i = 0; i < 500; i++) {
    // Either the whole row or none of it.
    int present = 0;
    for (int f = 0; f < 5; f++) {
      if (db->Get(ReadOptions(),
                  "row" + std::to_string(i) + "/f" + std::to_string(f),
                  &value)
              .ok()) {
        present++;
      }
    }
    EXPECT_TRUE(present == 0 || present == 5) << "row " << i << " torn";
  }
}

}  // namespace
}  // namespace apmbench::lsm

namespace apmbench::lsm {
namespace {

TEST(VerifyIntegrityTest, CleanDatabasePasses) {
  ScopedTempDir dir("lsm-verify");
  Options options;
  options.dir = dir.path();
  options.memtable_bytes = 16 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), std::string(40, 'v')).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST(VerifyIntegrityTest, DetectsBitRot) {
  ScopedTempDir dir("lsm-verify2");
  Options options;
  options.dir = dir.path();
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, &db).ok());
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(db->Put("key" + std::to_string(i), std::string(60, 'v')).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  // Flip one byte in the middle of the (single) SSTable.
  std::vector<std::string> children;
  ASSERT_TRUE(Env::Default()->GetChildren(dir.path(), &children).ok());
  std::string sst;
  for (const auto& name : children) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      sst = dir.path() + "/" + name;
    }
  }
  ASSERT_FALSE(sst.empty());
  std::string data;
  ASSERT_TRUE(Env::Default()->ReadFileToString(sst, &data).ok());
  data[data.size() / 3] ^= 0x40;
  ASSERT_TRUE(Env::Default()->WriteStringToFile(sst, Slice(data)).ok());

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  EXPECT_TRUE(db->VerifyIntegrity().IsCorruption());
}

}  // namespace
}  // namespace apmbench::lsm

namespace apmbench::lsm {
namespace {

TEST(LeveledCompactionTest, DataMigratesToDeeperLevels) {
  ScopedTempDir dir("lsm-levels");
  Options options;
  options.dir = dir.path();
  options.compaction_style = CompactionStyle::kLeveled;
  options.memtable_bytes = 16 * 1024;
  options.level0_compaction_trigger = 2;
  options.level1_max_bytes = 48 * 1024;  // tiny budgets force deep levels
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  Random rng(44);
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(rng.Uniform(10000)),
                        std::string(48, 'd'))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  // The downward migration runs on background threads; on a slow or
  // single-core machine (TSan especially) the compactor may still hold a
  // backlog when the writer stops, so give it bounded time to settle
  // before inspecting the shape (no manual trigger — the point is that
  // *background* leveled compaction pushes data down on its own).
  int deepest = 0;
  for (int wait_ms = 0; wait_ms < 60000; wait_ms += 100) {
    DB::Stats stats = db->GetStats();
    deepest = 0;
    for (size_t level = 0; level < stats.files_per_level.size(); level++) {
      if (stats.files_per_level[level] > 0) deepest = static_cast<int>(level);
    }
    if (deepest >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(deepest, 2) << "expected data below level 1";
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  // Everything still readable.
  std::string value;
  Status s = db->Get(ReadOptions(), "key1", &value);
  EXPECT_TRUE(s.ok() || s.IsNotFound());
}

TEST(EdgeCaseTest, SharedPrefixKeysScanInOrder) {
  ScopedTempDir dir("lsm-prefix");
  Options options;
  options.dir = dir.path();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  // Keys that are prefixes of each other exercise Slice::Compare's
  // shorter-is-smaller rule through memtable, SSTable, and merge paths.
  for (const char* key : {"a", "aa", "aaa", "aaaa", "ab", "b"}) {
    ASSERT_TRUE(db->Put(key, std::string("v-") + key).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db->Scan(ReadOptions(), "a", 10, &out).ok());
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].first, "a");
  EXPECT_EQ(out[1].first, "aa");
  EXPECT_EQ(out[2].first, "aaa");
  EXPECT_EQ(out[3].first, "aaaa");
  EXPECT_EQ(out[4].first, "ab");
  EXPECT_EQ(out[5].first, "b");
}

}  // namespace
}  // namespace apmbench::lsm

namespace apmbench::lsm {
namespace {

TEST(SnapshotIteratorTest, PointInTimeViewUnderConcurrentWrites) {
  ScopedTempDir dir("lsm-snap");
  Options options;
  options.dir = dir.path();
  options.memtable_bytes = 64 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());

  const int kInitial = 2000;
  for (int i = 0; i < kInitial; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(db->Put(key, "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->Delete("k000100").ok());

  auto iter = db->NewSnapshotIterator(ReadOptions());

  // Hammer the database while iterating the snapshot.
  std::atomic<bool> stop{false};
  std::thread writer([&]() {
    Random rng(5);
    int i = kInitial;
    while (!stop.load(std::memory_order_relaxed)) {
      char key[16];
      snprintf(key, sizeof(key), "k%06d", i++);
      db->Put(key, "new");
      db->Delete("k" + std::to_string(rng.Uniform(100000)));
    }
  });

  int count = 0;
  std::string prev;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    std::string key = iter->key().ToString();
    EXPECT_GT(key, prev);
    EXPECT_NE(key, "k000100");  // deleted before the snapshot
    prev = key;
    count++;
  }
  EXPECT_TRUE(iter->status().ok());
  EXPECT_EQ(count, kInitial - 1);  // nothing written after creation appears

  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // Seek works on snapshots too.
  iter->Seek("k000500");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "k000500");
}

TEST(SnapshotIteratorTest, SpansMemtableAndTables) {
  ScopedTempDir dir("lsm-snap2");
  Options options;
  options.dir = dir.path();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  ASSERT_TRUE(db->Put("flushed", "1").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("inmem", "2").ok());
  ASSERT_TRUE(db->Put("flushed", "updated").ok());  // shadows the table

  auto iter = db->NewSnapshotIterator(ReadOptions());
  std::map<std::string, std::string> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    seen[iter->key().ToString()] = iter->value().ToString();
  }
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen["flushed"], "updated");
  EXPECT_EQ(seen["inmem"], "2");
}

/// Rewrites every table in `options.dir` the way an earlier build laid it
/// out: data blocks, a bloom filter over whole keys (tombstones
/// included), then, when `prefix_bloom_length` > 0, a prefix filter block
/// named by the reserved footer fields, then the index and a footer whose
/// filter_kind is `prefix_bloom_length`. With 0 the reserved fields are
/// index_off, 0, 0, as the last build before row filters wrote them.
/// Data-block offsets do not move. Returns the number of tables.
int RewriteTablesAsEarlierBuild(const Options& options,
                                uint32_t prefix_bloom_length) {
  std::vector<std::string> children;
  EXPECT_TRUE(Env::Default()->GetChildren(options.dir, &children).ok());
  int rewritten = 0;
  for (const std::string& name : children) {
    if (name.size() < 4 || name.substr(name.size() - 4) != ".sst") continue;
    const std::string path = options.dir + "/" + name;
    BloomFilterBuilder whole_keys(options.bloom_bits_per_key);
    {
      std::unique_ptr<Table> table;
      EXPECT_TRUE(
          Table::Open(options, Env::Default(), path, 1, nullptr, &table).ok());
      if (table == nullptr) return rewritten;
      std::unique_ptr<Iterator> iter = table->NewIterator(ReadOptions());
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        whole_keys.AddKey(iter->key());
      }
      EXPECT_TRUE(iter->status().ok());
    }
    std::string data;
    EXPECT_TRUE(Env::Default()->ReadFileToString(path, &data).ok());
    TableFooter footer;
    EXPECT_TRUE(ReadTableFooter(Env::Default(), path, &footer).ok());
    EXPECT_GT(footer.filter_size, 0u);

    std::string old_layout = data.substr(0, footer.filter_offset);
    const std::string filter = whole_keys.Finish();
    old_layout += filter;
    const uint64_t prefix_off = old_layout.size();
    if (prefix_bloom_length > 0) {
      BloomFilterBuilder prefix_filter(10);
      prefix_filter.AddKey("grp00/00");
      old_layout += prefix_filter.Finish();
    }
    const uint64_t index_off = old_layout.size();
    old_layout += data.substr(footer.index_offset, footer.index_size);
    PutFixed64(&old_layout, index_off);
    PutFixed32(&old_layout, footer.index_size);
    PutFixed64(&old_layout, footer.filter_offset);
    PutFixed32(&old_layout, static_cast<uint32_t>(filter.size()));
    PutFixed64(&old_layout, prefix_bloom_length > 0 ? prefix_off : index_off);
    PutFixed32(&old_layout, static_cast<uint32_t>(index_off - prefix_off));
    PutFixed32(&old_layout, prefix_bloom_length);
    old_layout += data.substr(data.size() - 12);  // format_version, magic
    EXPECT_TRUE(
        Env::Default()->WriteStringToFile(path, Slice(old_layout)).ok());
    rewritten++;
  }
  return rewritten;
}

/// Number of tables in `dir` whose footer marks a row filter, and of all
/// tables.
std::pair<int, int> RowMarkedTables(const std::string& dir) {
  std::vector<std::string> children;
  EXPECT_TRUE(Env::Default()->GetChildren(dir, &children).ok());
  std::pair<int, int> counts{0, 0};
  for (const std::string& name : children) {
    if (name.size() < 4 || name.substr(name.size() - 4) != ".sst") continue;
    TableFooter footer;
    EXPECT_TRUE(ReadTableFooter(Env::Default(), dir + "/" + name, &footer).ok());
    if (footer.row_filter) counts.first++;
    counts.second++;
  }
  return counts;
}

/// Writes plain keys and the cells of 30 rows (row005 deleted by
/// tombstones in a later table) into a database in `options.dir`,
/// rewrites its tables as an earlier build with `prefix_bloom_length`
/// wrote them, and checks that Get, full scans, prefix-crossing scans and
/// one-row scans read them correctly, before and after compaction turns
/// them into row-marked tables.
void CheckTablesOfAnEarlierBuild(const Options& options,
                                 uint32_t prefix_bloom_length) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, &db).ok());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 600; i++) {
    char key[16];
    snprintf(key, sizeof(key), "grp%02d/%04d", i % 7, i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db->Put(key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db->Flush().ok());
  for (int t = 0; t < 3; t++) {
    for (int r = t; r < 30; r += 3) {
      for (int q = 0; q < 3; q++) {
        const std::string value = "c" + std::to_string(r * 10 + q);
        ASSERT_TRUE(db->Put(Cell(RowName(r), q), value).ok());
        model[Cell(RowName(r), q)] = value;
      }
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  for (int q = 0; q < 3; q++) {
    ASSERT_TRUE(db->Delete(Cell(RowName(5), q)).ok());
    model.erase(Cell(RowName(5), q));
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Close().ok());
  db.reset();

  ASSERT_GT(RewriteTablesAsEarlierBuild(options, prefix_bloom_length), 0);
  EXPECT_EQ(RowMarkedTables(options.dir).first, 0);

  auto check_contents = [&]() {
    for (const auto& [key, value] : model) {
      std::string got;
      ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
      EXPECT_EQ(got, value);
    }
    std::string got;
    EXPECT_TRUE(db->Get(ReadOptions(), Cell(RowName(5), 0), &got).IsNotFound());
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(db->Scan(ReadOptions(), "", 10000, &rows).ok());
    const std::vector<std::pair<std::string, std::string>> expected(
        model.begin(), model.end());
    EXPECT_EQ(rows, expected);
    // A scan starting inside one prefix runs on past it.
    ASSERT_TRUE(db->Scan(ReadOptions(), "grp03/", 100, &rows).ok());
    ASSERT_EQ(rows.size(), 100u);
    EXPECT_EQ(rows.back().first.substr(0, 5), "grp04");
    for (int r = 0; r < 32; r++) {
      EXPECT_EQ(ReadRow(db.get(), RowName(r)), ModelRow(model, RowName(r)))
          << RowName(r);
    }
  };
  ASSERT_TRUE(DB::Open(options, &db).ok());
  check_contents();
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  check_contents();
  // After a reopen (which drops the compacted-away files) every table is
  // one the compaction wrote.
  ASSERT_TRUE(db->Close().ok());
  ASSERT_TRUE(DB::Open(options, &db).ok());
  const std::pair<int, int> marked = RowMarkedTables(options.dir);
  EXPECT_GT(marked.second, 0);
  EXPECT_EQ(marked.first, marked.second);
  check_contents();
}

// Tables written by builds that supported prefix blooms carry a prefix
// filter block between the bloom filter and the index, described by the
// footer's now-reserved fields, and a whole-key filter. This build
// ignores the prefix block and never checks a row against that filter;
// such a database must open, read, scan and compact as before.
TEST_F(DBTest, OpensTablesCarryingAPrefixFilterBlock) {
  CheckTablesOfAnEarlierBuild(options_, /*prefix_bloom_length=*/8);
}

// Tables of the last build before row filters: a whole-key filter and
// reserved footer fields index_off, 0, 0.
TEST_F(DBTest, OpensTablesCarryingAWholeKeyFilter) {
  CheckTablesOfAnEarlierBuild(options_, /*prefix_bloom_length=*/0);
}

}  // namespace
}  // namespace apmbench::lsm
