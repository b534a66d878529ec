#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/properties.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "tests/test_util.h"

namespace apmbench {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");

  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Aborted().IsAborted());
}

TEST(StatusTest, ResultHoldsValueOrError) {
  Result<int> ok_result(42);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);

  Result<int> err_result(Status::IOError("disk gone"));
  ASSERT_FALSE(err_result.ok());
  EXPECT_TRUE(err_result.status().IsIOError());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_TRUE(s.StartsWith("hel"));
  EXPECT_FALSE(s.StartsWith("help"));
  s.RemovePrefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Comparison) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  // Prefix ordering.
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
  EXPECT_TRUE(Slice("a") < Slice("b"));
}

TEST(SliceTest, EmbeddedNulBytes) {
  std::string a("a\0b", 3);
  std::string b("a\0c", 3);
  EXPECT_LT(Slice(a).Compare(Slice(b)), 0);
  EXPECT_EQ(Slice(a).size(), 3u);
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Slice in(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xdeadbeef);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTrip) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 16383, 16384,
                                  UINT32_MAX, UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t decoded;
    ASSERT_TRUE(GetVarint64(&in, &decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 1ull << 20,
                                          1ull << 40, UINT64_MAX}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v)) << v;
  }
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("hello"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  Slice in(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
}

TEST(CodingTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 300);
  buf.resize(1);  // cut the second byte of the varint
  Slice in(buf);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));

  Slice short_fixed("ab");
  uint32_t v32;
  EXPECT_FALSE(GetFixed32(&short_fixed, &v32));
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C of "123456789" is 0xE3069283 (Castagnoli reference value).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, ExtendMatchesWhole) {
  const char* data = "the quick brown fox";
  uint32_t whole = Crc32c(data, 19);
  uint32_t part = Crc32c(data, 9);
  // Crc32cExtend is not a streaming CRC of concatenation in the usual
  // sense unless implemented so; verify it is.
  EXPECT_EQ(Crc32cExtend(part, data + 9, 10), whole);
}

TEST(Crc32Test, Rfc3720Vectors) {
  // RFC 3720 appendix B.4 test patterns, checked on both the dispatched
  // path (hardware on SSE4.2 CPUs) and the table loop.
  std::string zeros(32, '\0');
  std::string ones(32, '\xff');
  std::string ascending, descending;
  for (int i = 0; i < 32; i++) {
    ascending.push_back(static_cast<char>(i));
    descending.push_back(static_cast<char>(31 - i));
  }
  const std::pair<const std::string*, uint32_t> cases[] = {
      {&zeros, 0x8A9136AAu},
      {&ones, 0x62A8AB43u},
      {&ascending, 0x46DD794Eu},
      {&descending, 0x113FDB5Cu},
  };
  for (const auto& [data, want] : cases) {
    EXPECT_EQ(Crc32c(data->data(), data->size()), want);
    EXPECT_EQ(Crc32cExtendPortable(0, data->data(), data->size()), want);
  }
}

TEST(Crc32Test, DispatchedMatchesTableAtEveryLengthAndAlignment) {
  Random rnd(301);
  std::string buf(4100 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Uniform(256));
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t n = 0; n <= 4100; n++) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(p, n), Crc32cExtendPortable(0, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32Test, ExtendMatchesWholeAtEverySplit) {
  Random rnd(302);
  std::string buf(1000, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Uniform(256));
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split++) {
    const uint32_t head = Crc32c(buf.data(), split);
    ASSERT_EQ(Crc32cExtend(head, buf.data() + split, buf.size() - split),
              whole)
        << "split " << split;
    ASSERT_EQ(Crc32cExtendPortable(Crc32cExtendPortable(0, buf.data(), split),
                                   buf.data() + split, buf.size() - split),
              whole)
        << "split " << split;
  }
}

TEST(Crc32Test, MaskRoundTrip) {
  uint32_t crc = Crc32c("payload", 7);
  EXPECT_NE(MaskCrc(crc), crc);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
}

TEST(HashTest, Murmur64KnownBehavior) {
  // Deterministic and spread: differing keys give differing hashes.
  uint64_t h1 = MurmurHash64A("SHARD-0-NODE-0", 14, 0x1234ABCD);
  uint64_t h2 = MurmurHash64A("SHARD-0-NODE-1", 14, 0x1234ABCD);
  uint64_t h1_again = MurmurHash64A("SHARD-0-NODE-0", 14, 0x1234ABCD);
  EXPECT_EQ(h1, h1_again);
  EXPECT_NE(h1, h2);
}

TEST(HashTest, Murmur64TailBytes) {
  // Exercise every tail length 0..7.
  const char* data = "abcdefghijklmnop";
  std::vector<uint64_t> hashes;
  for (size_t len = 8; len <= 15; len++) {
    hashes.push_back(MurmurHash64A(data, len, 0));
  }
  for (size_t i = 0; i < hashes.size(); i++) {
    for (size_t j = i + 1; j < hashes.size(); j++) {
      EXPECT_NE(hashes[i], hashes[j]);
    }
  }
}

TEST(HashTest, FnvMatchesYcsbConstant) {
  // FNV-1a 64 of 0 must be stable (YCSB key scattering depends on it).
  EXPECT_EQ(FnvHash64(0), FnvHash64(0));
  EXPECT_NE(FnvHash64(1), FnvHash64(2));
}

TEST(RandomTest, UniformBounds) {
  Random rng(1);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.Uniform(7), 7u);
  }
}

TEST(RandomTest, Deterministic) {
  Random a(99), b(99);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, ExponentialMean) {
  Random rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; i++) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(ZipfianTest, RangeAndSkew) {
  Random rng(3);
  ZipfianGenerator zipf(0, 1000);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    uint64_t v = zipf.Next(&rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Item 0 should be by far the most popular (zipfian head).
  EXPECT_GT(counts[0], n / 20);
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(ZipfianTest, ScrambledCoversSpace) {
  Random rng(4);
  ScrambledZipfianGenerator zipf(0, 1000);
  uint64_t max_seen = 0;
  for (int i = 0; i < 10000; i++) {
    uint64_t v = zipf.Next(&rng);
    ASSERT_LT(v, 1000u);
    max_seen = std::max(max_seen, v);
  }
  // Hot items are scattered: we should see values in the upper half.
  EXPECT_GT(max_seen, 900u);
}

TEST(PropertiesTest, TypedGetters) {
  Properties props;
  props.Set("a", "17");
  props.Set("b", "0.25");
  props.Set("c", "true");
  props.Set("d", "hello");
  EXPECT_EQ(props.GetInt("a"), 17);
  EXPECT_DOUBLE_EQ(props.GetDouble("b"), 0.25);
  EXPECT_TRUE(props.GetBool("c"));
  EXPECT_EQ(props.GetString("d"), "hello");
  EXPECT_EQ(props.GetInt("missing", -1), -1);
  EXPECT_TRUE(props.Contains("a"));
  EXPECT_FALSE(props.Contains("zz"));
}

TEST(PropertiesTest, ParseArg) {
  Properties props;
  EXPECT_TRUE(props.ParseArg("key=value").ok());
  EXPECT_EQ(props.GetString("key"), "value");
  EXPECT_TRUE(props.ParseArg("eq=a=b").ok());
  EXPECT_EQ(props.GetString("eq"), "a=b");
  EXPECT_FALSE(props.ParseArg("novalue").ok());
  EXPECT_FALSE(props.ParseArg("=x").ok());
}

TEST(PropertiesTest, LoadFileAndMerge) {
  testutil::ScopedTempDir dir("props");
  std::string path = dir.path() + "/test.properties";
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(
                      path, Slice("# comment\n\nkey1=v1\n  key2=v2  \n"))
                  .ok());
  Properties props;
  ASSERT_TRUE(props.LoadFile(path).ok());
  EXPECT_EQ(props.GetString("key1"), "v1");
  EXPECT_EQ(props.GetString("key2"), "v2");

  Properties other;
  other.Set("key1", "override");
  props.Merge(other);
  EXPECT_EQ(props.GetString("key1"), "override");
}

TEST(EnvTest, WriteReadRoundTrip) {
  testutil::ScopedTempDir dir("env");
  std::string path = dir.path() + "/file.bin";
  Env* env = Env::Default();
  ASSERT_TRUE(env->WriteStringToFile(path, Slice("hello world")).ok());
  EXPECT_TRUE(env->FileExists(path));
  std::string data;
  ASSERT_TRUE(env->ReadFileToString(path, &data).ok());
  EXPECT_EQ(data, "hello world");
  uint64_t size = 0;
  ASSERT_TRUE(env->GetFileSize(path, &size).ok());
  EXPECT_EQ(size, 11u);
}

TEST(EnvTest, AppendableFilePreservesContents) {
  testutil::ScopedTempDir dir("env2");
  std::string path = dir.path() + "/log";
  Env* env = Env::Default();
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env->NewAppendableFile(path, &f).ok());
    ASSERT_TRUE(f->Append(Slice("one")).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env->NewAppendableFile(path, &f).ok());
    EXPECT_EQ(f->Size(), 3u);
    ASSERT_TRUE(f->Append(Slice("two")).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  std::string data;
  ASSERT_TRUE(env->ReadFileToString(path, &data).ok());
  EXPECT_EQ(data, "onetwo");
}

TEST(EnvTest, DirectorySizeAndChildren) {
  testutil::ScopedTempDir dir("env3");
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirIfMissing(dir.path() + "/sub/deeper").ok());
  ASSERT_TRUE(
      env->WriteStringToFile(dir.path() + "/a.bin", Slice("12345")).ok());
  ASSERT_TRUE(
      env->WriteStringToFile(dir.path() + "/sub/deeper/b.bin", Slice("123"))
          .ok());
  uint64_t bytes = 0;
  ASSERT_TRUE(env->GetDirectorySize(dir.path(), &bytes).ok());
  EXPECT_EQ(bytes, 8u);
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren(dir.path(), &children).ok());
  EXPECT_EQ(children.size(), 2u);
}

TEST(EnvTest, RandomAccessRead) {
  testutil::ScopedTempDir dir("env4");
  std::string path = dir.path() + "/data";
  Env* env = Env::Default();
  ASSERT_TRUE(env->WriteStringToFile(path, Slice("0123456789")).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &f).ok());
  char scratch[4];
  Slice result;
  ASSERT_TRUE(f->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "3456");
  // Read past EOF returns fewer bytes.
  ASSERT_TRUE(f->Read(8, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "89");
}

TEST(EnvTest, RandomRWFile) {
  testutil::ScopedTempDir dir("env5");
  std::string path = dir.path() + "/rw";
  Env* env = Env::Default();
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TRUE(env->NewRandomRWFile(path, &f).ok());
  ASSERT_TRUE(f->Write(0, Slice("aaaa")).ok());
  ASSERT_TRUE(f->Write(8, Slice("bbbb")).ok());
  char scratch[12];
  Slice result;
  ASSERT_TRUE(f->Read(0, 12, &result, scratch).ok());
  EXPECT_EQ(result.size(), 12u);
  EXPECT_EQ(result.ToString().substr(0, 4), "aaaa");
  EXPECT_EQ(result.ToString().substr(8, 4), "bbbb");
}

}  // namespace
}  // namespace apmbench

namespace apmbench {
namespace {

TEST(EnvTest, ErrorPaths) {
  Env* env = Env::Default();
  std::string data;
  Status s = env->ReadFileToString("/nonexistent/path/file", &data);
  EXPECT_FALSE(s.ok());
  uint64_t size;
  EXPECT_TRUE(env->GetFileSize("/nonexistent/file", &size).IsNotFound());
  std::unique_ptr<RandomAccessFile> f;
  EXPECT_FALSE(env->NewRandomAccessFile("/nonexistent/file", &f).ok());
  EXPECT_FALSE(env->RenameFile("/nonexistent/a", "/nonexistent/b").ok());
  // Removing a missing directory tree is not an error (idempotent).
  EXPECT_TRUE(env->RemoveDirRecursively("/tmp/apmbench-never-existed").ok());
}

TEST(PropertiesTest, MalformedNumbersFallBackGracefully) {
  Properties props;
  props.Set("n", "not-a-number");
  EXPECT_EQ(props.GetInt("n", 5), 0);  // strtoll semantics: parses 0
  props.Set("d", "abc");
  EXPECT_EQ(props.GetDouble("d", 1.5), 0.0);
  props.Set("b", "maybe");
  EXPECT_FALSE(props.GetBool("b", false));
}

TEST(ArenaTest, BumpAllocationWithinBlock) {
  Arena arena(1024);
  EXPECT_EQ(arena.MemoryUsage(), 0u);
  EXPECT_EQ(arena.BlockCount(), 0u);

  char* a = arena.Allocate(100);
  char* b = arena.Allocate(100);
  ASSERT_NE(a, nullptr);
  // Sequential small allocations bump within one block.
  EXPECT_EQ(b, a + 100);
  EXPECT_EQ(arena.BlockCount(), 1u);
  // Usage charges the whole block up front (plus vector bookkeeping), so
  // it is a true upper bound on heap bytes held.
  EXPECT_GE(arena.MemoryUsage(), 1024u);
  EXPECT_LT(arena.MemoryUsage(), 1024u + 64u);

  // The returned memory is writable across the full span.
  std::memset(a, 0xab, 200);
}

TEST(ArenaTest, AlignedAllocationsAreAligned) {
  Arena arena(512);
  arena.Allocate(1);  // misalign the bump pointer
  for (int i = 0; i < 50; i++) {
    char* p = arena.AllocateAligned(24);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t),
              0u);
    arena.Allocate(3);  // re-misalign before the next one
  }
}

TEST(ArenaTest, LargeAllocationGetsOwnBlock) {
  Arena arena(1024);
  char* small = arena.Allocate(200);
  for (int i = 0; i < 3; i++) arena.Allocate(200);  // 800 used, 224 left
  ASSERT_EQ(arena.BlockCount(), 1u);
  size_t before = arena.MemoryUsage();
  // Doesn't fit the remainder and is > block/4: sized exactly, in its own
  // block, leaving the current bump block intact for small allocations.
  char* big = arena.Allocate(600);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.BlockCount(), 2u);
  EXPECT_GE(arena.MemoryUsage(), before + 600);
  EXPECT_LT(arena.MemoryUsage(), before + 600 + 64);
  std::memset(big, 0xcd, 600);
  // The first block keeps serving small allocations from its remainder.
  char* small2 = arena.Allocate(100);
  EXPECT_EQ(small2, small + 800);
  EXPECT_EQ(arena.BlockCount(), 2u);
}

TEST(ArenaTest, MemoryUsageGrowsBlockAtATime) {
  const size_t kBlock = 1024;
  Arena arena(kBlock);
  size_t last = 0;
  for (int i = 0; i < 200; i++) {
    arena.Allocate(64);
    size_t usage = arena.MemoryUsage();
    ASSERT_GE(usage, last);
    // Tiny allocations can only ever add one block at a time, so usage
    // never jumps by more than block + bookkeeping.
    ASSERT_LE(usage - last, kBlock + 64);
    last = usage;
  }
  EXPECT_EQ(arena.BlockCount(), (200 * 64 + kBlock - 1) / kBlock);
}

TEST(ArenaTest, AllocationsDoNotOverlap) {
  Arena arena(256);
  std::vector<std::pair<char*, size_t>> spans;
  Random rng(42);
  for (int i = 0; i < 300; i++) {
    size_t n = 1 + rng.Uniform(100);
    char* p = i % 3 == 0 ? arena.AllocateAligned(n) : arena.Allocate(n);
    std::memset(p, static_cast<int>(i & 0xff), n);
    spans.emplace_back(p, n);
  }
  // Every span still holds its fill pattern: nothing was recycled.
  for (size_t i = 0; i < spans.size(); i++) {
    for (size_t j = 0; j < spans[i].second; j++) {
      ASSERT_EQ(static_cast<unsigned char>(spans[i].first[j]), i & 0xff)
          << "span " << i << " byte " << j;
    }
  }
}

TEST(RandomTest, UniformDoubleRange) {
  Random rng(9);
  for (int i = 0; i < 1000; i++) {
    double v = rng.UniformDouble(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

}  // namespace
}  // namespace apmbench
