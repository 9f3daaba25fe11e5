#include "util/crc32.h"

namespace selnet::util {

namespace {

/// Slice-by-8 lookup tables for the reflected polynomial, built once on
/// first use. t[0] is the classic bytewise table; t[k][b] is the CRC of byte
/// b followed by k zero bytes, so eight input bytes fold into the running
/// CRC with eight independent lookups instead of eight dependent ones.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
      }
    }
  }
};

/// Little-endian load, independent of the host's byte order (compilers fold
/// it into one load on little-endian targets).
inline uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const Crc32Tables tables;
  const auto& t = tables.t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace selnet::util
