// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320, the zlib/gzip
// checksum) for WAL record and snapshot integrity. Slicing-by-8: eight
// constexpr 256-entry tables fold one 8-byte word per step, with a
// byte-at-a-time tail. Same polynomial and the same values as the plain
// bytewise table loop, so the on-disk format does not depend on which
// one wrote it. Portable C++ with no external dependencies; the WAL
// cares about detecting torn writes and bit rot on replay, not
// cryptographic strength.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pig {

/// One-shot CRC-32 over `size` bytes.
uint32_t Crc32(const void* data, size_t size);

/// Incremental form: feed `crc` from a previous call (start from 0).
uint32_t Crc32Extend(uint32_t crc, const void* data, size_t size);

}  // namespace pig
