// Crc32 (common/crc32.h) against the one-byte-per-step reference it must
// match bit for bit: every WAL, checkpoint and spill checksum on disk was
// written by that loop.
#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace gbmqo {
namespace {

uint32_t BytewiseCrc32(const uint8_t* p, size_t n, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseAtRandomLengthsAndOffsets) {
  std::mt19937_64 rng(17);
  std::vector<uint8_t> buf(4096 + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t start = rng() % 16;  // misaligned starts
    const size_t len = trial < 64 ? static_cast<size_t>(trial)
                                  : rng() % (buf.size() - start);
    const uint32_t seed = trial % 3 == 0 ? 0u : static_cast<uint32_t>(rng());
    ASSERT_EQ(Crc32(buf.data() + start, len, seed),
              BytewiseCrc32(buf.data() + start, len, seed))
        << "start " << start << " len " << len << " seed " << seed;
  }
}

TEST(Crc32Test, ChainsAcrossSplits) {
  std::mt19937_64 rng(29);
  std::vector<uint8_t> buf(1000);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
  const uint32_t whole = Crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, BytewiseCrc32(buf.data(), buf.size()));
  for (size_t split = 0; split <= buf.size(); split += 37) {
    const uint32_t head = Crc32(buf.data(), split);
    EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace gbmqo
