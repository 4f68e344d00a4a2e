// In-repo byte-oriented block codec for GORCOLv3 section payloads.
//
// An LZ4-style greedy match/literal scheme (token + literals + 16-bit
// back-reference), applied independently per fixed-size block. Each block
// carries its own uncompressed length and a CRC-32 over the stored bytes,
// so a torn or corrupt file degrades at BLOCK granularity: the loader keeps
// the longest run of intact blocks instead of discarding a whole section.
// Matches never cross a block boundary — every block decodes on its own,
// which is what makes both the prefix recovery and the streaming cursor
// possible.
//
// The codec is deterministic (fixed hash table, greedy parse, no
// heuristics keyed on timing or addresses): the same input always yields
// the same stored bytes, so recorded artifacts stay byte-comparable across
// runs and hosts. No external compression library is involved.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gorilla::util {

/// Uncompressed bytes per block. 64 KiB keeps the back-reference window in
/// 16 bits and bounds the streaming cursor's scratch memory.
inline constexpr std::size_t kBlockRawSize = 64 * 1024;

/// Per-block frame: u32le raw length, u32le stored-body length, u32le
/// CRC-32 of the stored body, u8 method (0 = stored verbatim, 1 = LZ).
inline constexpr std::size_t kBlockHeaderSize = 13;

/// Destination bytes past a block's raw length that let the LZ decoder
/// copy short literal runs and matches in whole 16-byte strides all the
/// way to the end of the block. The decoder writes there but never past
/// the destination it is given; without the slack the last few copies of
/// a block are exact instead.
inline constexpr std::size_t kBlockDecodeSlack = 16;

/// Compresses `raw` into a self-framed block stream. Empty input yields an
/// empty stream. Output is deterministic; incompressible blocks fall back
/// to stored-verbatim, so expansion is bounded by the per-block header.
[[nodiscard]] std::vector<std::uint8_t> block_compress(
    std::span<const std::uint8_t> raw);

/// Decodes an entire block stream, appending to `out`. False when the
/// stream is torn, CRC-damaged, or malformed — `out` then holds the bytes
/// of every intact leading block (the same prefix scan_blocks reports).
[[nodiscard]] bool block_decompress(std::span<const std::uint8_t> stored,
                                    std::vector<std::uint8_t>& out);

/// What a validation walk over a block stream saw. The stream's longest
/// usable prefix is `stored_prefix` stored bytes = `blocks` whole blocks =
/// `raw_prefix` decodable bytes.
struct BlockScan {
  std::size_t blocks = 0;          ///< intact leading blocks
  std::uint64_t raw_prefix = 0;    ///< uncompressed bytes they decode to
  std::size_t stored_prefix = 0;   ///< stored bytes they occupy
  bool complete = false;           ///< every byte accounted for, all CRCs good
  bool crc_failed = false;         ///< stopped on a checksum mismatch
                                   ///< (false + !complete = torn frame)
};

/// Validates framing + CRCs without decompressing (no allocation).
[[nodiscard]] BlockScan scan_blocks(
    std::span<const std::uint8_t> stored) noexcept;

/// Forward-only one-block-at-a-time decoder over a borrowed stored stream.
/// Drives the zero-copy streaming path: callers pull one block into their
/// scratch buffer as needed instead of inflating the whole section.
class BlockCursor {
 public:
  constexpr explicit BlockCursor(
      std::span<const std::uint8_t> stored) noexcept
      : stored_(stored) {}

  /// Decodes the next block into the front of `dst`, a window the caller
  /// has already allocated, and returns its raw length. `dst` needs room
  /// for the block (at most kBlockRawSize bytes); with kBlockDecodeSlack
  /// more, the decoder may use them as over-copy slack. 0 at the end of
  /// the stream or on damage (check damaged() to distinguish); a window too
  /// small for the block counts as damage.
  std::size_t next(std::span<std::uint8_t> dst);

  /// Decodes the next block, appending exactly its raw bytes to `out`.
  /// False at the end of the stream or on damage; `out` then keeps its
  /// size.
  bool next(std::vector<std::uint8_t>& out);

  /// True when every stored byte was consumed without damage.
  [[nodiscard]] constexpr bool exhausted() const noexcept {
    return !damaged_ && off_ == stored_.size();
  }
  [[nodiscard]] constexpr bool damaged() const noexcept { return damaged_; }

 private:
  std::span<const std::uint8_t> stored_;
  std::size_t off_ = 0;
  bool damaged_ = false;
};

}  // namespace gorilla::util
