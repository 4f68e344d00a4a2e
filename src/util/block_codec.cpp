#include "util/block_codec.h"

#include <algorithm>
#include <optional>

#include "util/bytes.h"
#include "util/crc32.h"

namespace gorilla::util {

namespace {

constexpr std::size_t kMinMatch = 4;
// 16K-entry last-position table: fixed size + greedy parse keeps the
// encoder deterministic; ratio/speed tuning must never change the format.
constexpr int kHashBits = 14;
constexpr std::uint32_t kHashMul = 2654435761u;  // Knuth multiplicative

[[nodiscard]] std::uint32_t hash4(std::uint32_t v) noexcept {
  return (v * kHashMul) >> (32 - kHashBits);
}

/// Appends a span without a ranged insert (GCC 12's object-size analysis
/// misreads insert-from-span as an overflowing memmove under -Werror).
void append_bytes(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> b) {
  const std::size_t base = out.size();
  out.resize(base + b.size());
  std::copy_n(b.begin(), b.size(), out.begin() + static_cast<std::ptrdiff_t>(base));
}

/// LZ4-style length extension: a run of 255s plus a terminator < 255.
void put_ext_len(std::vector<std::uint8_t>& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

/// Reads a length extension at `ip`, adding it into `len`. False on a torn
/// extension or an absurd (malformed) total.
[[nodiscard]] bool read_ext_len(std::span<const std::uint8_t> body,
                                std::size_t& ip, std::size_t& len) {
  std::uint8_t b = 0;
  do {
    if (ip >= body.size()) return false;
    b = body[ip++];
    len += b;
    if (len > 2 * kBlockRawSize) return false;  // cannot fit in one block
  } while (b == 255);
  return true;
}

/// One sequence: token (lit nibble | match nibble), literal run, 16-bit
/// back-reference offset, match length. A literals-only tail is emitted by
/// the caller with no offset — end-of-block is "input exhausted after the
/// literal run".
void emit_sequence(std::vector<std::uint8_t>& out,
                   std::span<const std::uint8_t> lits, std::size_t offset,
                   std::size_t mlen) {
  const std::size_t ml = mlen - kMinMatch;
  out.push_back(static_cast<std::uint8_t>(
      (std::min<std::size_t>(lits.size(), 15) << 4) |
      std::min<std::size_t>(ml, 15)));
  if (lits.size() >= 15) put_ext_len(out, lits.size() - 15);
  append_bytes(out, lits);
  ByteWriter(out).u16le(static_cast<std::uint16_t>(offset));
  if (ml >= 15) put_ext_len(out, ml - 15);
}

void emit_final_literals(std::vector<std::uint8_t>& out,
                         std::span<const std::uint8_t> lits) {
  out.push_back(static_cast<std::uint8_t>(
      std::min<std::size_t>(lits.size(), 15) << 4));
  if (lits.size() >= 15) put_ext_len(out, lits.size() - 15);
  append_bytes(out, lits);
}

/// Greedy single-pass parse over one block. Matches reference earlier
/// bytes of the SAME block only, so each block decodes independently.
std::vector<std::uint8_t> lz_compress_block(std::span<const std::uint8_t> in,
                                            std::vector<std::int32_t>& table) {
  std::fill(table.begin(), table.end(), -1);
  std::vector<std::uint8_t> out;
  out.reserve(in.size() / 2 + 32);
  const std::size_t n = in.size();
  std::size_t i = 0;
  std::size_t anchor = 0;
  while (i + kMinMatch <= n) {
    const std::uint32_t seq = *load_u32le(in, i);
    const std::uint32_t h = hash4(seq);
    const std::int32_t cand = table[h];
    table[h] = static_cast<std::int32_t>(i);
    if (cand >= 0) {
      const auto cpos = static_cast<std::size_t>(cand);
      if (*load_u32le(in, cpos) == seq) {
        std::size_t mlen = kMinMatch;
        while (i + mlen < n && in[i + mlen] == in[cpos + mlen]) ++mlen;
        emit_sequence(out, in.subspan(anchor, i - anchor), i - cpos, mlen);
        i += mlen;
        anchor = i;
        continue;
      }
    }
    ++i;
  }
  emit_final_literals(out, in.subspan(anchor));
  return out;
}

/// Fixed-size copy between non-overlapping ranges; a constant count
/// compiles to one unaligned load/store pair per 8 or 16 bytes.
template <std::size_t N>
void copy_fixed(std::uint8_t* dst, const std::uint8_t* src) noexcept {
  std::copy_n(src, N, dst);
}

/// Copies a `len`-byte match from `off` bytes behind `dst`; `room` counts
/// the destination bytes from `dst` to the end of the window (>= len).
///
/// Offsets below 8 are run extensions whose source overlaps the bytes this
/// copy produces, so they go byte by byte and each byte sees the one just
/// written. From offset 8 (16) up, an 8-byte (16-byte) stride never reads
/// a byte it has not yet written. With kBlockDecodeSlack bytes of room
/// past the match, the last stride runs over its end (at most 15 bytes,
/// rewritten by the next sequence); closer to the end of the destination
/// the copy is exact: whole 8-byte strides, then a tail shorter than the
/// offset.
void copy_match(std::uint8_t* dst, std::size_t off, std::size_t len,
                std::size_t room) noexcept {
  const std::uint8_t* src = dst - off;
  if (off < 8) {
    for (std::size_t k = 0; k < len; ++k) dst[k] = src[k];
    return;
  }
  const std::uint8_t* const end = dst + len;
  if (room - len >= kBlockDecodeSlack) {
    if (off >= 16) {
      do {
        copy_fixed<16>(dst, src);
        dst += 16;
        src += 16;
      } while (dst < end);
    } else {
      do {
        copy_fixed<8>(dst, src);
        dst += 8;
        src += 8;
      } while (dst < end);
    }
    return;
  }
  for (; end - dst >= 8; dst += 8, src += 8) copy_fixed<8>(dst, src);
  std::copy(src, src + (end - dst), dst);
}

/// Decodes one LZ block body into dst[0, raw_len) (dst.size() >= raw_len).
/// dst[raw_len, dst.size()) is over-copy slack: short literal runs and
/// matches are copied in whole strides while at least kBlockDecodeSlack
/// bytes of dst remain past them, and every copy is exact after that, so
/// nothing outside dst is ever written. Every bound is checked before the
/// copy it guards; false on any inconsistency (dst contents unspecified).
[[nodiscard]] bool lz_decompress_block(std::span<const std::uint8_t> body,
                                       std::size_t raw_len,
                                       std::span<std::uint8_t> dst) {
  const std::uint8_t* const in = body.data();
  std::uint8_t* const out = dst.data();
  const std::size_t iend = body.size();
  std::size_t ip = 0;
  std::size_t op = 0;
  while (ip < iend) {
    const std::uint8_t tok = in[ip++];
    std::size_t lit = tok >> 4;
    if (lit == 15 && !read_ext_len(body, ip, lit)) return false;
    if (lit > iend - ip || lit > raw_len - op) return false;
    if (lit <= 16 && iend - ip >= 16 && dst.size() - op >= 16) {
      copy_fixed<16>(out + op, in + ip);
    } else {
      std::copy_n(in + ip, lit, out + op);
    }
    ip += lit;
    op += lit;
    if (ip == iend) return op == raw_len;  // literals-only tail ends it
    const auto offset = load_u16le(body, ip);
    if (!offset) return false;
    ip += 2;
    std::size_t mlen = tok & 0xf;
    if (mlen == 15 && !read_ext_len(body, ip, mlen)) return false;
    mlen += kMinMatch;
    const std::size_t off = *offset;
    if (off == 0 || off > op || mlen > raw_len - op) return false;
    copy_match(out + op, off, mlen, dst.size() - op);
    op += mlen;
  }
  return false;  // a block always ends on a literal run
}

struct BlockFrame {
  std::size_t raw_len = 0;
  std::size_t body_len = 0;
  std::uint32_t crc = 0;
  std::uint8_t method = 0;
};

/// Parses + sanity-checks one block header at `off`, including that the
/// declared body fits in the remaining stored bytes. nullopt = torn or
/// malformed frame.
[[nodiscard]] std::optional<BlockFrame> parse_frame(
    std::span<const std::uint8_t> stored, std::size_t off) noexcept {
  ByteReader r(stored.subspan(off));
  BlockFrame f;
  f.raw_len = r.u32le();
  f.body_len = r.u32le();
  f.crc = r.u32le();
  f.method = r.u8();
  if (!r.ok()) return std::nullopt;
  if (f.raw_len == 0 || f.raw_len > kBlockRawSize || f.method > 1) {
    return std::nullopt;
  }
  if (f.body_len > stored.size() - off - kBlockHeaderSize) return std::nullopt;
  if (f.method == 0 && f.body_len != f.raw_len) return std::nullopt;
  return f;
}

}  // namespace

std::vector<std::uint8_t> block_compress(std::span<const std::uint8_t> raw) {
  std::vector<std::uint8_t> out;
  if (raw.empty()) return out;
  std::vector<std::int32_t> table(std::size_t{1} << kHashBits);
  std::vector<std::uint8_t> body;
  for (std::size_t pos = 0; pos < raw.size(); pos += kBlockRawSize) {
    const auto chunk =
        raw.subspan(pos, std::min(kBlockRawSize, raw.size() - pos));
    body = lz_compress_block(chunk, table);
    std::uint8_t method = 1;
    if (body.size() >= chunk.size()) {  // incompressible: store verbatim
      body.clear();
      append_bytes(body, chunk);
      method = 0;
    }
    ByteWriter w(out);
    w.u32le(static_cast<std::uint32_t>(chunk.size()));
    w.u32le(static_cast<std::uint32_t>(body.size()));
    w.u32le(crc32(body));
    w.u8(method);
    append_bytes(out, body);
  }
  return out;
}

std::size_t BlockCursor::next(std::span<std::uint8_t> dst) {
  if (damaged_ || off_ == stored_.size()) return 0;
  const auto frame = parse_frame(stored_, off_);
  bool ok = frame && frame->raw_len <= dst.size();
  if (ok) {
    const auto body =
        stored_.subspan(off_ + kBlockHeaderSize, frame->body_len);
    ok = crc32(body) == frame->crc;
    if (ok && frame->method == 0) {
      std::copy(body.begin(), body.end(), dst.begin());
    } else if (ok) {
      ok = lz_decompress_block(body, frame->raw_len, dst);
    }
  }
  if (!ok) {
    damaged_ = true;
    return 0;
  }
  off_ += kBlockHeaderSize + frame->body_len;
  return frame->raw_len;
}

bool BlockCursor::next(std::vector<std::uint8_t>& out) {
  if (damaged_ || off_ == stored_.size()) return false;
  // Size the append from the header alone; next(span) re-parses the frame
  // and makes every check. No slack: the tail of the block copies exactly.
  const auto frame = parse_frame(stored_, off_);
  const std::size_t base = out.size();
  out.resize(base + (frame ? frame->raw_len : 0));
  if (next(std::span<std::uint8_t>(out).subspan(base)) == 0) {
    out.resize(base);
    return false;
  }
  return true;
}

bool block_decompress(std::span<const std::uint8_t> stored,
                      std::vector<std::uint8_t>& out) {
  BlockCursor cursor(stored);
  while (cursor.next(out)) {
  }
  return cursor.exhausted();
}

BlockScan scan_blocks(std::span<const std::uint8_t> stored) noexcept {
  // Framing-level validation only: headers consistent, bodies present,
  // CRCs good. A malformed LZ body with a valid CRC (a buggy writer, not
  // disk damage) is still caught later by the bounds-checked decoder.
  BlockScan scan;
  std::size_t off = 0;
  while (off < stored.size()) {
    const auto frame = parse_frame(stored, off);
    if (!frame) return scan;
    const auto body = stored.subspan(off + kBlockHeaderSize, frame->body_len);
    if (crc32(body) != frame->crc) {
      scan.crc_failed = true;
      return scan;
    }
    off += kBlockHeaderSize + frame->body_len;
    ++scan.blocks;
    scan.raw_prefix += frame->raw_len;
    scan.stored_prefix = off;
  }
  scan.complete = true;
  return scan;
}

}  // namespace gorilla::util
