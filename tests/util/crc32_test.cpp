// CRC-32 contract: the IEEE check value, chunking invariance, and a
// differential against a test-local byte-at-a-time reference at every
// length up to 4 KiB and every start alignment modulo 8 (the slicing-by-8
// kernel switches between its 8-byte step and its byte tail there).
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace gorilla::util {
namespace {

constexpr std::array<std::uint8_t, 9> kCheckInput = {'1', '2', '3', '4', '5',
                                                     '6', '7', '8', '9'};
static_assert(crc32(kCheckInput) == 0xcbf43926u);
static_assert(crc32({}) == 0u);

/// The classic single-table walk, bit-built per call: the reference the
/// shipped kernel must match byte for byte.
class ReferenceCrc32 {
 public:
  ReferenceCrc32() {
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table_[n] = c;
    }
  }
  void update(std::uint8_t b) {
    state_ = table_[(state_ ^ b) & 0xffu] ^ (state_ >> 8);
  }
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::array<std::uint32_t, 256> table_{};
  std::uint32_t state_ = 0xffffffffu;
};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(Crc32Test, CheckValueAndEmptyInput) {
  EXPECT_EQ(crc32(kCheckInput), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
  Crc32 c;
  EXPECT_EQ(c.value(), 0u);
  c.update({});
  EXPECT_EQ(c.value(), 0u);
  // A golden that crosses the 8-byte step: 32 zero bytes (the same value
  // as zlib's crc32).
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32(zeros), 0x190a55adu);
}

TEST(Crc32Test, ChunkingDoesNotChangeTheValue) {
  const std::vector<std::uint8_t> data = random_bytes(20000, 31);
  const std::uint32_t whole = crc32(data);
  Rng rng(32);
  for (int trial = 0; trial < 200; ++trial) {
    Crc32 c;
    std::size_t pos = 0;
    while (pos < data.size()) {
      // Mostly short pieces (byte tail and 8-byte steps interleave), with
      // an occasional long one.
      const std::size_t cap = rng.next() % 8 == 0 ? 4096 : 17;
      const std::size_t len =
          std::min<std::size_t>(rng.next() % (cap + 1), data.size() - pos);
      c.update(std::span<const std::uint8_t>(data).subspan(pos, len));
      pos += len;
    }
    ASSERT_EQ(c.value(), whole) << "trial " << trial;
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 4096;
  const std::vector<std::uint8_t> data = random_bytes(kMaxLen + 8, 33);
  for (std::size_t align = 0; align < 8; ++align) {
    const auto from = std::span<const std::uint8_t>(data).subspan(align);
    ReferenceCrc32 ref;  // advanced one byte per length: O(n) reference
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(crc32(from.first(len)), ref.value())
          << "align " << align << " len " << len;
      ref.update(from[len]);
    }
  }
}

}  // namespace
}  // namespace gorilla::util
