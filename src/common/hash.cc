#include "common/hash.h"

#include <array>

namespace muppet {

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t SeededHash(std::string_view data, uint64_t seed) {
  return Mix64(Fnv1a64(data) ^ Mix64(seed));
}

namespace {

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320. Table 0 is
// the classic bytewise table; entry i of table k is the CRC of byte i
// followed by k zero bytes, so eight lookups advance the CRC eight bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

// Little-endian load, independent of host byte order and alignment.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const CrcTables kT = MakeCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kT[7][lo & 0xFF] ^ kT[6][(lo >> 8) & 0xFF] ^
        kT[5][(lo >> 16) & 0xFF] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFF] ^
        kT[2][(hi >> 8) & 0xFF] ^ kT[1][(hi >> 16) & 0xFF] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kT[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace muppet
