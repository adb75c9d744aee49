#include "util/crc32.h"

#include <array>

namespace hignn {

namespace {

using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320, built once
// at first use. tables[0] is the bytewise table; tables[s][i] is the state
// change of byte i followed by s zero bytes, so one step folds 8 bytes
// with 8 independent lookups.
const SliceTables& Crc32Tables() {
  static const SliceTables tables = [] {
    SliceTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (size_t s = 1; s < t.size(); ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

// Little-endian word of bytes p[0..3], composed from bytes so the result
// does not depend on the host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Extend(uint32_t state, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const SliceTables& t = Crc32Tables();
  for (; len >= 8; len -= 8, bytes += 8) {
    const uint32_t lo = state ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
  }
  for (; len > 0; --len, ++bytes) {
    state = (state >> 8) ^ t[0][(state ^ *bytes) & 0xFFu];
  }
  return state;
}

}  // namespace hignn
