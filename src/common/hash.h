// Hash functions used for event routing (hash ring), bloom filters, and
// checksums. All are implemented from scratch and deterministic across runs,
// which the engines rely on: every worker must compute the same
// <key, destination function> -> worker mapping (paper §4.1).
#ifndef MUPPET_COMMON_HASH_H_
#define MUPPET_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace muppet {

// FNV-1a 64-bit. Fast, good-enough dispersion for routing keys.
uint64_t Fnv1a64(std::string_view data);

// 64-bit avalanche mix (SplitMix64 finalizer). Use to derive independent
// hash functions from one base hash: Mix64(h ^ seed_i).
uint64_t Mix64(uint64_t x);

// Seeded hash for bloom filters and two-choice queue selection.
uint64_t SeededHash(std::string_view data, uint64_t seed);

// CRC32 (IEEE, reflected polynomial 0xEDB88320; slicing-by-8 tables).
// Guards wire frames, WAL and changelog records and SSTable blocks
// against corruption.
uint32_t Crc32(std::string_view data);

// Combine two hashes (boost-style), for hashing composite keys such as
// <event key, destination function>.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace muppet

#endif  // MUPPET_COMMON_HASH_H_
