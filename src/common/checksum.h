// CRC32C (Castagnoli) used to protect every on-disk structure.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>

namespace raefs {

/// Compute CRC32C over a byte range, continuing from `seed` (pass 0 to
/// start a fresh checksum). Portable software slicing-by-8: eight table
/// lookups per 8 input bytes, with no CPU-specific path.
uint32_t crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

/// Convenience overload for raw buffers.
uint32_t crc32c(const void* data, size_t len, uint32_t seed = 0);

}  // namespace raefs
