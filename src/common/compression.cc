#include "common/compression.h"

#include <cstring>
#include <vector>

#include "common/coding.h"

namespace apmbench {

bool ParseCompressionType(const std::string& name, CompressionType* type) {
  if (name == "none") {
    *type = CompressionType::kNone;
  } else if (name == "lz") {
    *type = CompressionType::kLz;
  } else {
    return false;
  }
  return true;
}

}  // namespace apmbench

namespace apmbench::lz {

namespace {

constexpr int kHashBits = 14;
constexpr size_t kHashSize = 1u << kHashBits;

inline uint32_t Load32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

inline uint32_t HashQuad(uint32_t v) {
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

/// Emits a literal run [begin, end), splitting at the 128-byte token cap.
void EmitLiterals(const char* begin, const char* end, std::string* out) {
  while (begin < end) {
    size_t run = static_cast<size_t>(end - begin);
    if (run > 128) run = 128;
    out->push_back(static_cast<char>(run - 1));
    out->append(begin, run);
    begin += run;
  }
}

}  // namespace

size_t MaxCompressedLength(size_t raw_len) {
  // Worst case: all literals, one control byte per 128 bytes, plus the
  // varint header.
  return raw_len + raw_len / 128 + 16;
}

void Compress(const Slice& input, std::string* out) {
  out->clear();
  out->reserve(MaxCompressedLength(input.size()));
  PutVarint64(out, input.size());
  const char* base = input.data();
  const size_t n = input.size();
  if (n < kMinMatch) {
    EmitLiterals(base, base + n, out);
    return;
  }

  // table[h] = most recent position whose 4-byte hash is h.
  std::vector<uint32_t> table(kHashSize, 0);
  std::vector<bool> valid(kHashSize, false);

  size_t pos = 0;
  size_t literal_start = 0;
  const size_t limit = n - kMinMatch + 1;
  while (pos < limit) {
    uint32_t quad = Load32(base + pos);
    uint32_t hash = HashQuad(quad);
    size_t candidate = table[hash];
    bool hit = valid[hash] && candidate < pos &&
               Load32(base + candidate) == quad;
    table[hash] = static_cast<uint32_t>(pos);
    valid[hash] = true;
    if (!hit) {
      pos++;
      continue;
    }
    // Extend the match.
    size_t match_len = kMinMatch;
    size_t max_len = n - pos;
    if (max_len > kMaxMatch) max_len = kMaxMatch;
    while (match_len < max_len &&
           base[candidate + match_len] == base[pos + match_len]) {
      match_len++;
    }
    EmitLiterals(base + literal_start, base + pos, out);
    out->push_back(
        static_cast<char>(0x80 | (match_len - kMinMatch)));
    PutVarint32(out, static_cast<uint32_t>(pos - candidate));
    pos += match_len;
    literal_start = pos;
  }
  EmitLiterals(base + literal_start, base + n, out);
}

bool Uncompress(const Slice& input, std::string* out) {
  out->clear();
  Slice in = input;
  uint64_t raw_len;
  if (!GetVarint64(&in, &raw_len)) return false;
  // Guard against absurd headers on corrupt data (1 GB cap).
  if (raw_len > (1ull << 30)) return false;
  out->reserve(raw_len);
  while (!in.empty()) {
    uint8_t control = static_cast<uint8_t>(in[0]);
    in.RemovePrefix(1);
    if (control < 0x80) {
      size_t run = static_cast<size_t>(control) + 1;
      if (in.size() < run || out->size() + run > raw_len) return false;
      out->append(in.data(), run);
      in.RemovePrefix(run);
    } else {
      size_t match_len = static_cast<size_t>(control & 0x7f) + kMinMatch;
      uint32_t distance;
      if (!GetVarint32(&in, &distance) || distance == 0 ||
          distance > out->size() || out->size() + match_len > raw_len) {
        return false;
      }
      // Byte-by-byte: overlapping copies (distance < match_len) repeat
      // the pattern, as in every LZ decoder.
      size_t from = out->size() - distance;
      for (size_t i = 0; i < match_len; i++) {
        out->push_back((*out)[from + i]);
      }
    }
  }
  return out->size() == raw_len;
}

}  // namespace apmbench::lz
