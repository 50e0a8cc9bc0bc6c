#include "common/checksum.h"

#include <array>

namespace raefs {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC32C polynomial

// Slicing-by-8: table[0] is the classic bytewise table; table[k][i] is the
// CRC of byte i followed by k zero bytes, so eight table lookups fold
// eight input bytes into the CRC at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t crc32c(std::span<const uint8_t> data, uint32_t seed) {
  const auto& t = kTables;
  uint32_t crc = ~seed;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ load_le32(p);
    uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  }
  return ~crc;
}

uint32_t crc32c(const void* data, size_t len, uint32_t seed) {
  return crc32c(
      std::span<const uint8_t>(static_cast<const uint8_t*>(data), len), seed);
}

}  // namespace raefs
