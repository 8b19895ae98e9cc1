#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace pig {
namespace {

// The word loads below read the input as little-endian u32s.
static_assert(std::endian::native == std::endian::little,
              "Crc32Extend's slicing-by-8 loop assumes a little-endian host");

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Reflected CRC-32, polynomial 0xEDB88320 (IEEE). Table 0 is the classic
// byte-at-a-time table; table k advances a byte's contribution through k
// further zero bytes, so eight lookups fold in one 8-byte word.
constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const void* data, size_t size) {
  const auto& t = kTables;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Extend(0, data, size);
}

}  // namespace pig
