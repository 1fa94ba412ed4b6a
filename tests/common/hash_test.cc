#include "common/hash.h"

#include <set>
#include <string>

#include "gtest/gtest.h"

namespace muppet {
namespace {

TEST(HashTest, Fnv1a64KnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, Fnv1a64Deterministic) {
  EXPECT_EQ(Fnv1a64("muppet"), Fnv1a64("muppet"));
  EXPECT_NE(Fnv1a64("muppet"), Fnv1a64("muppit"));
}

TEST(HashTest, Mix64Avalanches) {
  // Nearby inputs should produce wildly different outputs.
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
  // At least half the bits should flip for adjacent inputs, on average.
  int total_flips = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    total_flips += __builtin_popcountll(Mix64(i) ^ Mix64(i + 1));
  }
  EXPECT_GT(total_flips / 100, 20);
}

TEST(HashTest, SeededHashVariesWithSeed) {
  EXPECT_NE(SeededHash("key", 1), SeededHash("key", 2));
  EXPECT_EQ(SeededHash("key", 7), SeededHash("key", 7));
}

TEST(HashTest, Crc32KnownVectors) {
  // CRC-32 (IEEE 802.3) check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(HashTest, Crc32DetectsSingleBitFlip) {
  std::string data(100, 'a');
  const uint32_t original = Crc32(data);
  data[50] = 'b';
  EXPECT_NE(Crc32(data), original);
}

// Bytewise reference CRC32, written independently of the library's tables.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

// Every length 0-300 at every start offset 0-7: covers the eight-byte
// loop, the bytewise tail and unaligned loads.
TEST(HashTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::string buf(300 + 8, '\0');
  uint64_t x = 12345;
  for (char& c : buf) {
    x = Mix64(x);
    c = static_cast<char>(x & 0xFF);
  }
  const auto* base = reinterpret_cast<const unsigned char*>(buf.data());
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(std::string_view(buf.data() + off, len)),
                ReferenceCrc32(base + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(HashTest, RoutingDispersion) {
  // Keys should spread roughly evenly over a small modulus — the property
  // worker routing relies on.
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {0};
  for (int i = 0; i < 8000; ++i) {
    counts[Fnv1a64("user" + std::to_string(i)) % kBuckets]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

}  // namespace
}  // namespace muppet
