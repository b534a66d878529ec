#ifndef APMBENCH_COMMON_CRC32_H_
#define APMBENCH_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace apmbench {

/// CRC-32C (Castagnoli) used to checksum log records, SSTable blocks and
/// net frames. Uses the SSE4.2 crc32 instruction when the CPU has it
/// (checked once at run time) and a byte-wise table otherwise; both give
/// identical values.
uint32_t Crc32c(const char* data, size_t n);

/// Extends `init_crc` (a previous Crc32c result) over `data[0, n)`.
uint32_t Crc32cExtend(uint32_t init_crc, const char* data, size_t n);

/// The table-driven Crc32cExtend, whatever the CPU. Exposed so tests can
/// check the hardware path against it.
uint32_t Crc32cExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// Masked CRC as stored on disk. Storing raw CRCs of data that itself
/// embeds CRCs is error prone, so on-disk checksums are masked.
uint32_t MaskCrc(uint32_t crc);
uint32_t UnmaskCrc(uint32_t masked);

}  // namespace apmbench

#endif  // APMBENCH_COMMON_CRC32_H_
