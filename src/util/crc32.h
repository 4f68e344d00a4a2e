// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for artifact
// integrity framing.
//
// GORCOLv2 sections carry a CRC over their payload so a torn write, a
// flipped bit on disk, or a truncated copy is detected at load time instead
// of silently replaying garbage into an analysis. Checksumming is on the
// replay hot path: every GORCOLv3 byte is checked twice (the section CRC at
// load, the block CRC as the block is decoded). A byte-at-a-time table
// walk ran at about 310 MB/s, 0.15 s per pass over the 47 MB fig03
// artifact, as much as LZ decode. So update() is slicing-by-8: each 8-byte
// step is two 4-byte loads and eight independent table lookups (about
// 1.7 GB/s, BM_Crc32), and only the last len % 8 bytes take the byte walk.
// The tables are built at compile time and everything stays constexpr, so
// tests can pin golden values with static_assert.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace gorilla::util {

namespace detail {

/// kCrc32Tables[0] is the classic byte table; kCrc32Tables[k][n] is the
/// register contribution of byte n followed by k zero bytes, so the byte
/// k positions before the end of an 8-byte step is folded by table k.
constexpr std::array<std::array<std::uint32_t, 256>, 8>
make_crc32_tables() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = t[k - 1][n];
      t[k][n] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();

}  // namespace detail

/// Incremental CRC-32 accumulator: feed byte ranges in any chunking, read
/// value() at any point (chunking does not change the result).
class Crc32 {
 public:
  constexpr void update(std::span<const std::uint8_t> data) noexcept {
    const auto& t = detail::kCrc32Tables;
    std::uint32_t c = state_;
    std::size_t i = 0;
    for (; data.size() - i >= 8; i += 8) {
      const auto step = data.subspan(i).first<8>();
      const std::uint32_t lo = c ^ load_u32le(step.first<4>());
      const std::uint32_t hi = load_u32le(step.last<4>());
      c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
          t[0][hi >> 24];
    }
    for (; i < data.size(); ++i) c = t[0][(c ^ data[i]) & 0xffu] ^ (c >> 8);
    state_ = c;
  }

  [[nodiscard]] constexpr std::uint32_t value() const noexcept {
    return state_ ^ 0xffffffffu;
  }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot convenience over a whole buffer.
[[nodiscard]] constexpr std::uint32_t crc32(
    std::span<const std::uint8_t> data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace gorilla::util
