#ifndef APMBENCH_COMMON_COMPRESSION_H_
#define APMBENCH_COMMON_COMPRESSION_H_

#include <cstdint>
#include <string>

#include "common/slice.h"

namespace apmbench {

/// Block compression codecs. The paper's Section 8 lists measuring the
/// impact of compression as future work; the LSM engine's data blocks can
/// be compressed with the LZ codec below (see lsm::Options::compression
/// and bench/ablation_compression).
enum class CompressionType : uint8_t {
  kNone = 0,
  kLz = 1,
};

/// Parses a codec name as given on a command line ("none" or "lz");
/// false for any other name.
bool ParseCompressionType(const std::string& name, CompressionType* type);

/// A byte-oriented LZ77 compressor in the spirit of Snappy/LZ4: greedy
/// hash-chain matching of 4-byte sequences, literals and back-references
/// interleaved, no entropy stage — built for speed on small storage
/// blocks, not for ratio.
///
/// Stream format:
///   varint64 raw_length
///   token*:
///     control byte C < 0x80: literal run of C+1 bytes follows
///     control byte C >= 0x80: match of length (C & 0x7f) + kMinMatch,
///                             followed by varint32 back-distance (>= 1)
namespace lz {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 127 + kMinMatch;

/// Compresses `input` into `*out` (replacing its contents).
void Compress(const Slice& input, std::string* out);

/// Decompresses into `*out`; false on malformed or truncated input.
/// Never reads or writes out of bounds on corrupt data.
bool Uncompress(const Slice& input, std::string* out);

/// Upper bound on Compress output size for `raw_len` input bytes.
size_t MaxCompressedLength(size_t raw_len);

}  // namespace lz

}  // namespace apmbench

#endif  // APMBENCH_COMMON_COMPRESSION_H_
