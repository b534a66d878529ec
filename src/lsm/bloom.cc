#include "lsm/bloom.h"

#include <cmath>

#include "common/hash.h"

namespace apmbench::lsm {

namespace {

uint32_t BloomHash(const Slice& key) {
  return MurmurHash3_32(key.data(), key.size(), 0xbc9f1d34);
}

}  // namespace

BloomFilterBuilder::BloomFilterBuilder(int bits_per_key)
    : bits_per_key_(bits_per_key) {
  // k = ln(2) * bits/key minimizes the false-positive rate.
  num_probes_ = static_cast<int>(bits_per_key * 0.69);
  if (num_probes_ < 1) num_probes_ = 1;
  if (num_probes_ > 30) num_probes_ = 30;
}

void BloomFilterBuilder::AddKey(const Slice& key) {
  key_hashes_.push_back(BloomHash(key));
}

std::string BloomFilterBuilder::Finish() {
  size_t bits = key_hashes_.size() * static_cast<size_t>(bits_per_key_);
  if (bits < 64) bits = 64;
  size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;

  std::string result(bytes, '\0');
  for (uint32_t h : key_hashes_) {
    // Double hashing: h, then rotate by delta per probe.
    uint32_t delta = (h >> 17) | (h << 15);
    for (int i = 0; i < num_probes_; i++) {
      uint32_t bit = h % bits;
      result[bit / 8] |= static_cast<char>(1 << (bit % 8));
      h += delta;
    }
  }
  result.push_back(static_cast<char>(num_probes_));
  return result;
}

bool BloomFilterMayMatch(const Slice& filter, const Slice& key) {
  if (filter.size() < 2) return true;
  size_t bytes = filter.size() - 1;
  size_t bits = bytes * 8;
  int probes = filter[filter.size() - 1];
  if (probes <= 0 || probes > 30) return true;

  uint32_t h = BloomHash(key);
  uint32_t delta = (h >> 17) | (h << 15);
  for (int i = 0; i < probes; i++) {
    uint32_t bit = h % bits;
    if ((filter[bit / 8] & (1 << (bit % 8))) == 0) return false;
    h += delta;
  }
  return true;
}

}  // namespace apmbench::lsm
