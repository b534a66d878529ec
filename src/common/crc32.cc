#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace apmbench {

namespace {

constexpr uint32_t kCrc32cPoly = 0x82f63b78;  // reversed Castagnoli

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

constexpr uint32_t kMaskDelta = 0xa282ead8u;

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes exactly this polynomial. Compiled
// for SSE4.2 by attribute only, so the rest of the binary still runs on
// CPUs without it; ChooseExtend calls this only after checking the CPU.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t init_crc, const char* data, size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  const char* p = data;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; n--, p++) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

ExtendFn ChooseExtend() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cExtendSse42;
#endif
  return Crc32cExtendPortable;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Crc32cExtend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

uint32_t Crc32c(const char* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - kMaskDelta;
  return (rot >> 17) | (rot << 15);
}

}  // namespace apmbench
