#ifndef APMBENCH_LSM_BLOOM_H_
#define APMBENCH_LSM_BLOOM_H_

#include <string>
#include <vector>

#include "common/slice.h"

namespace apmbench::lsm {

/// Standard double-hashed bloom filter as used per SSTable (Cassandra and
/// HBase both keep one bloom filter per table to skip files on reads).
class BloomFilterBuilder {
 public:
  explicit BloomFilterBuilder(int bits_per_key);

  void AddKey(const Slice& key);

  /// Serializes the filter over all added keys; format is
  /// [bitmap bytes][1-byte probe count].
  std::string Finish();

 private:
  int bits_per_key_;
  int num_probes_;
  std::vector<uint32_t> key_hashes_;
};

/// Returns true when `key` may be in the set encoded by `filter` (never a
/// false negative). An empty filter matches everything.
bool BloomFilterMayMatch(const Slice& filter, const Slice& key);

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_BLOOM_H_
