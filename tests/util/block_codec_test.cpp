// Block codec contract: compress→decompress is the identity for every
// input shape we can think of (randomized differential + adversarial
// patterns), the stream is deterministic, damage is detected instead of
// decoded, and the scan/cursor views agree with the one-shot decoder. The
// strided decoder is also checked against a test-local copy of the
// byte-at-a-time decoder it replaced, on valid and malformed bodies.
#include "util/block_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace gorilla::util {
namespace {

std::vector<std::uint8_t> round_trip(std::span<const std::uint8_t> raw) {
  const std::vector<std::uint8_t> stored = block_compress(raw);
  std::vector<std::uint8_t> back;
  EXPECT_TRUE(block_decompress(stored, back));
  return back;
}

/// The byte-at-a-time LZ block decoder as it shipped before the strided
/// one, kept here as the oracle: appends exactly `raw_len` bytes to `out`,
/// or restores `out` and returns false.
bool reference_decode(std::span<const std::uint8_t> body, std::size_t raw_len,
                      std::vector<std::uint8_t>& out) {
  const auto read_ext = [&body](std::size_t& ip, std::size_t& len) {
    std::uint8_t b = 0;
    do {
      if (ip >= body.size()) return false;
      b = body[ip++];
      len += b;
      if (len > 2 * kBlockRawSize) return false;
    } while (b == 255);
    return true;
  };
  const std::size_t base = out.size();
  out.resize(base + raw_len);
  const std::size_t iend = body.size();
  const std::size_t oend = base + raw_len;
  std::size_t ip = 0;
  std::size_t op = base;
  bool ok = false;
  while (ip < iend) {
    const std::uint8_t tok = body[ip++];
    std::size_t lit = tok >> 4;
    if (lit == 15 && !read_ext(ip, lit)) break;
    if (lit > iend - ip || lit > oend - op) break;
    for (std::size_t k = 0; k < lit; ++k) out[op++] = body[ip++];
    if (ip == iend) {
      ok = op == oend;
      break;
    }
    const auto offset = load_u16le(body, ip);
    if (!offset) break;
    ip += 2;
    std::size_t mlen = tok & 0xf;
    if (mlen == 15 && !read_ext(ip, mlen)) break;
    mlen += 4;
    const std::size_t off = *offset;
    if (off == 0 || off > op - base || mlen > oend - op) break;
    for (std::size_t k = 0; k < mlen; ++k, ++op) out[op] = out[op - off];
  }
  if (!ok) out.resize(base);
  return ok;
}

/// Hand-built LZ block body: sequences of (literals, offset, match length)
/// and a closing literal run, encoded exactly as the format specifies.
class BodyBuilder {
 public:
  BodyBuilder& seq(const std::vector<std::uint8_t>& lits, std::size_t off,
                   std::size_t mlen) {
    const std::size_t ml = mlen - 4;
    token(lits.size(), ml);
    body_.insert(body_.end(), lits.begin(), lits.end());
    body_.push_back(static_cast<std::uint8_t>(off & 0xff));
    body_.push_back(static_cast<std::uint8_t>(off >> 8));
    if (ml >= 15) ext(ml - 15);
    raw_ += lits.size() + mlen;
    return *this;
  }
  std::vector<std::uint8_t> finish(const std::vector<std::uint8_t>& lits) {
    token(lits.size(), 0);
    body_.insert(body_.end(), lits.begin(), lits.end());
    raw_ += lits.size();
    return body_;
  }
  [[nodiscard]] std::size_t raw_len() const { return raw_; }

 private:
  void token(std::size_t lit, std::size_t ml) {
    body_.push_back(static_cast<std::uint8_t>(
        (std::min<std::size_t>(lit, 15) << 4) | std::min<std::size_t>(ml, 15)));
    if (lit >= 15) ext(lit - 15);
  }
  void ext(std::size_t len) {
    for (; len >= 255; len -= 255) body_.push_back(255);
    body_.push_back(static_cast<std::uint8_t>(len));
  }
  std::vector<std::uint8_t> body_;
  std::size_t raw_ = 0;
};

/// One LZ frame (method 1) around `body` with a correct CRC, so only the
/// decoder can reject it.
std::vector<std::uint8_t> lz_frame(const std::vector<std::uint8_t>& body,
                                   std::size_t raw_len) {
  std::vector<std::uint8_t> frame;
  ByteWriter w(frame);
  w.u32le(static_cast<std::uint32_t>(raw_len));
  w.u32le(static_cast<std::uint32_t>(body.size()));
  w.u32le(crc32(body));
  w.u8(1);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Decodes one hand-built body through every path the shipped decoder has
/// (vector append with no slack, an exact-size window, a window with the
/// over-copy slack) and checks each against the reference: same verdict,
/// same bytes, and on rejection the vector keeps its entry size.
void expect_matches_reference(const std::vector<std::uint8_t>& body,
                              std::size_t raw_len, const std::string& what) {
  const std::vector<std::uint8_t> prefix = {0xde, 0xad, 0xbe};
  std::vector<std::uint8_t> want = prefix;
  const bool want_ok = reference_decode(body, raw_len, want);
  const std::vector<std::uint8_t> frame = lz_frame(body, raw_len);

  std::vector<std::uint8_t> got = prefix;
  EXPECT_EQ(block_decompress(frame, got), want_ok) << what;
  EXPECT_EQ(got, want) << what;

  for (const std::size_t slack : {std::size_t{0}, kBlockDecodeSlack}) {
    // A window of exactly raw_len + slack bytes on the heap: ASan sees any
    // write past it.
    std::vector<std::uint8_t> window(raw_len + slack);
    BlockCursor cursor{std::span<const std::uint8_t>(frame)};
    const std::size_t n = cursor.next(std::span<std::uint8_t>(window));
    EXPECT_EQ(n, want_ok ? raw_len : 0) << what << " slack " << slack;
    EXPECT_EQ(cursor.damaged(), !want_ok) << what << " slack " << slack;
    if (want_ok) {
      EXPECT_TRUE(std::equal(window.begin(),
                             window.begin() + static_cast<std::ptrdiff_t>(n),
                             want.begin() + 3))
          << what << " slack " << slack;
    }
  }
}

void expect_identity(const std::vector<std::uint8_t>& raw,
                     const std::string& what) {
  const std::vector<std::uint8_t> back = round_trip(raw);
  ASSERT_EQ(back.size(), raw.size()) << what;
  EXPECT_EQ(back, raw) << what;
}

TEST(BlockCodecTest, EmptyInputYieldsEmptyStream) {
  EXPECT_TRUE(block_compress({}).empty());
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(block_decompress({}, out));
  EXPECT_TRUE(out.empty());
  const BlockScan scan = scan_blocks({});
  EXPECT_TRUE(scan.complete);
  EXPECT_EQ(scan.blocks, 0u);
}

TEST(BlockCodecTest, AdversarialPatternsRoundTrip) {
  // Shapes chosen to stress the token format: runs (RLE-like overlapping
  // matches), literals-only noise, match/literal boundaries at the 15
  // nibble cutoffs, block-boundary straddles, and length-extension runs.
  expect_identity(std::vector<std::uint8_t>(1, 0x42), "single byte");
  expect_identity(std::vector<std::uint8_t>(3, 0xaa), "below min match");
  expect_identity(std::vector<std::uint8_t>(4, 0xaa), "exactly min match");
  expect_identity(std::vector<std::uint8_t>(19, 0x55), "match len 15 cutoff");
  expect_identity(std::vector<std::uint8_t>(273, 0x55), "match ext run");
  expect_identity(std::vector<std::uint8_t>(kBlockRawSize, 0),
                  "one full zero block");
  expect_identity(std::vector<std::uint8_t>(kBlockRawSize + 1, 0),
                  "block boundary straddle");
  expect_identity(std::vector<std::uint8_t>(3 * kBlockRawSize - 1, 0x7f),
                  "multi-block minus one");

  // Literal-length cutoffs: N incompressible bytes then a long run.
  Rng rng(1);
  for (const std::size_t lits : {14u, 15u, 16u, 269u, 270u, 271u}) {
    std::vector<std::uint8_t> mixed;
    for (std::size_t i = 0; i < lits; ++i) {
      mixed.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    mixed.insert(mixed.end(), 100, 0xee);
    expect_identity(mixed, "lits=" + std::to_string(lits));
  }

  // Periodic data at every small period (offset = period matches).
  for (std::size_t period = 1; period <= 20; ++period) {
    std::vector<std::uint8_t> wave(5000);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      wave[i] = static_cast<std::uint8_t>(i % period);
    }
    expect_identity(wave, "period=" + std::to_string(period));
  }
}

TEST(BlockCodecTest, RandomizedDifferentialIdentity) {
  // 10k random inputs sweeping size, alphabet, and repetitiveness; every
  // single one must round-trip exactly. Deterministic seed, so a failure
  // reproduces.
  Rng rng(0xb10cc0dec);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::size_t size = static_cast<std::size_t>(rng.next() % 2048);
    // Alphabet width 1..256 controls compressibility; small widths force
    // dense matching, width 256 is mostly literals.
    const std::uint64_t width = 1 + rng.next() % 256;
    std::vector<std::uint8_t> raw(size);
    for (auto& b : raw) {
      b = static_cast<std::uint8_t>(rng.next() % width);
    }
    // A third of the trials splice in a copied slice so long-range matches
    // appear at random offsets.
    if (size > 64 && trial % 3 == 0) {
      const std::size_t from = rng.next() % (size / 2);
      const std::size_t len = 1 + rng.next() % (size / 4);
      for (std::size_t i = 0; i + from + len < size && i < len; ++i) {
        raw[from + len + i] = raw[from + i];
      }
    }
    const std::vector<std::uint8_t> back = round_trip(raw);
    ASSERT_EQ(back, raw) << "trial " << trial << " size " << size;
  }
}

TEST(BlockCodecTest, CompressionIsDeterministic) {
  std::vector<std::uint8_t> raw(200000);
  Rng rng(7);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next() % 17);
  EXPECT_EQ(block_compress(raw), block_compress(raw));
}

TEST(BlockCodecTest, RepetitiveDataActuallyShrinks) {
  std::vector<std::uint8_t> raw(100000);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>((i / 9) % 37);
  }
  const auto stored = block_compress(raw);
  EXPECT_LT(stored.size(), raw.size() / 2);
}

TEST(BlockCodecTest, IncompressibleDataExpandsOnlyByHeaders) {
  std::vector<std::uint8_t> raw(3 * kBlockRawSize);
  Rng rng(9);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next());
  const auto stored = block_compress(raw);
  EXPECT_LE(stored.size(), raw.size() + 3 * kBlockHeaderSize);
  expect_identity(raw, "incompressible");
}

TEST(BlockCodecTest, ScanAndCursorAgreeWithDecompress) {
  std::vector<std::uint8_t> raw(kBlockRawSize * 2 + 777);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>((i * 31) % 101);
  }
  const auto stored = block_compress(raw);
  const BlockScan scan = scan_blocks(stored);
  EXPECT_TRUE(scan.complete);
  EXPECT_EQ(scan.blocks, 3u);
  EXPECT_EQ(scan.raw_prefix, raw.size());
  EXPECT_EQ(scan.stored_prefix, stored.size());

  BlockCursor cursor{std::span<const std::uint8_t>(stored)};
  std::vector<std::uint8_t> streamed;
  std::size_t blocks = 0;
  while (cursor.next(streamed)) ++blocks;
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_FALSE(cursor.damaged());
  EXPECT_EQ(blocks, 3u);
  EXPECT_EQ(streamed, raw);
}

TEST(BlockCodecTest, DamageIsDetectedAtTheDamagedBlock) {
  std::vector<std::uint8_t> raw(kBlockRawSize + 500);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>((i / 5) % 19);
  }
  auto stored = block_compress(raw);
  // Flip one byte in the LAST block's body; block 0 must survive.
  stored[stored.size() - 7] ^= 0x10;
  const BlockScan scan = scan_blocks(stored);
  EXPECT_FALSE(scan.complete);
  EXPECT_TRUE(scan.crc_failed);
  EXPECT_EQ(scan.blocks, 1u);
  EXPECT_EQ(scan.raw_prefix, kBlockRawSize);

  std::vector<std::uint8_t> out;
  EXPECT_FALSE(block_decompress(stored, out));
  ASSERT_EQ(out.size(), kBlockRawSize);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), raw.begin()));

  // Torn frames (no CRC involved) are reported as torn, not corrupt.
  const std::span<const std::uint8_t> torn(stored.data(),
                                           stored.size() - 30);
  const BlockScan torn_scan = scan_blocks(torn);
  EXPECT_FALSE(torn_scan.complete);
  EXPECT_FALSE(torn_scan.crc_failed);
  EXPECT_EQ(torn_scan.blocks, 1u);
}

TEST(BlockCodecTest, MalformedFramesAreRejectedNotDecoded) {
  // A frame whose declared body length overruns the stream.
  std::vector<std::uint8_t> bogus(kBlockHeaderSize + 2, 0);
  bogus[0] = 16;              // raw_len = 16
  bogus[4] = 200;             // body_len = 200 > remaining
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(block_decompress(bogus, out));
  // raw_len = 0 is invalid (empty blocks are never emitted).
  std::vector<std::uint8_t> zero(kBlockHeaderSize, 0);
  EXPECT_FALSE(block_decompress(zero, out));
  // Unknown method byte.
  std::vector<std::uint8_t> method(kBlockHeaderSize + 1, 0);
  method[0] = 1;   // raw_len 1
  method[4] = 1;   // body_len 1
  method[12] = 9;  // method 9 does not exist
  EXPECT_FALSE(block_decompress(method, out));
}

TEST(BlockCodecTest, StridedDecoderMatchesBytewiseReferenceOnOverlaps) {
  // Offsets 1-17 straddle both stride switches (8 and 16); long matches at
  // small offsets are run extensions that read bytes the same copy wrote.
  // The closing literal run puts the match end from 0 to 20 bytes before
  // the block end, so the exact copies near the end run too.
  Rng rng(0x0ff5e7);
  for (std::size_t off = 1; off <= 17; ++off) {
    for (const std::size_t mlen :
         {4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 18u, 19u, 24u, 31u, 32u, 33u,
          100u, 300u, 1000u}) {
      for (const std::size_t tail : {0u, 1u, 7u, 15u, 16u, 20u}) {
        BodyBuilder b;
        b.seq(random_bytes(rng, off + rng.next() % 20), off, mlen);
        b.seq(random_bytes(rng, rng.next() % 3), off, mlen);
        const auto body = b.finish(random_bytes(rng, tail));
        expect_matches_reference(body, b.raw_len(),
                                 "off " + std::to_string(off) + " mlen " +
                                     std::to_string(mlen) + " tail " +
                                     std::to_string(tail));
      }
    }
  }
}

TEST(BlockCodecTest, StridedDecoderMatchesBytewiseReferenceOnRandomBodies) {
  // Random valid sequences over whole blocks (literal runs 0-40, offsets
  // anywhere in the produced bytes, matches 4-300), then the same bodies
  // with bytes flipped: the verdict and every decoded byte must agree with
  // the reference, whether the damage is caught or decodes to other bytes.
  Rng rng(0x5eed5);
  for (int trial = 0; trial < 300; ++trial) {
    BodyBuilder b;
    std::size_t produced = 0;
    const std::size_t target = 1 + rng.next() % (kBlockRawSize - 20);
    while (true) {
      const std::size_t lit = rng.next() % 41;
      const std::size_t room = target - std::min(target, produced + lit);
      if (produced + lit == 0 || room < 4 + 20) break;
      const std::size_t off =
          1 + (rng.next() % 2 == 0 ? rng.next() % 20
                                   : rng.next() % std::min<std::size_t>(
                                                      produced + lit, 65535));
      const std::size_t mlen = 4 + rng.next() % std::min<std::size_t>(
                                           297, room - 4 - 20 + 1);
      b.seq(random_bytes(rng, lit), std::min(off, produced + lit), mlen);
      produced += lit + mlen;
    }
    // At least one closing literal: frames never declare an empty block.
    const auto body = b.finish(random_bytes(rng, 1 + rng.next() % 19));
    const std::string what = "trial " + std::to_string(trial);
    expect_matches_reference(body, b.raw_len(), what);

    auto damaged = body;
    for (int flips = 0; flips < 3; ++flips) {
      damaged[rng.next() % damaged.size()] ^=
          static_cast<std::uint8_t>(1 + rng.next() % 255);
    }
    expect_matches_reference(damaged, b.raw_len(), what + " damaged");
  }
}

TEST(BlockCodecTest, MalformedBodiesAreRejectedAsBefore) {
  // Every case has a valid CRC, so only the decoder's bounds checks stand
  // between the body and the output. Each must be rejected by the
  // reference and the shipped decoder alike, leaving the vector at its
  // entry size.
  Rng rng(3);
  const auto lits = [&rng](std::size_t n) { return random_bytes(rng, n); };
  struct Case {
    std::string what;
    std::vector<std::uint8_t> body;
    std::size_t raw_len;
  };
  std::vector<Case> cases;
  {
    BodyBuilder b;  // offset 4 with only 3 bytes produced
    b.seq(lits(3), 4, 8);
    cases.push_back({"offset beyond produced", b.finish(lits(2)), b.raw_len()});
  }
  {
    BodyBuilder b;  // offset 0
    b.seq(lits(3), 0, 8);
    cases.push_back({"offset zero", b.finish(lits(2)), b.raw_len()});
  }
  {
    BodyBuilder b;  // a 40-byte match declared into a 20-byte block
    b.seq(lits(4), 1, 40);
    cases.push_back({"match past raw_len", b.finish({}), 20});
  }
  {
    BodyBuilder b;  // a 30-byte literal tail declared into a 10-byte block
    cases.push_back({"literal run past raw_len", b.finish(lits(30)), 10});
  }
  {
    BodyBuilder b;  // the literal tail is shorter than the block
    cases.push_back({"literal tail short of raw_len", b.finish(lits(30)), 31});
  }
  {
    // Token says 15+ literals, extension is a run of 255s the body ends in.
    std::vector<std::uint8_t> body = {0xf0, 255, 255};
    cases.push_back({"torn literal length extension", body, 600});
  }
  {
    // A match-length extension torn after the offset.
    std::vector<std::uint8_t> body = {0x4f, 1, 2, 3, 4, 4, 0, 255};
    cases.push_back({"torn match length extension", body, 600});
  }
  {
    std::vector<std::uint8_t> body = {0x40, 1, 2};  // 4 literals, 2 present
    cases.push_back({"literal run past body end", body, 4});
  }
  {
    std::vector<std::uint8_t> body = {0x40, 1, 2, 3, 4, 1};  // 1 offset byte
    cases.push_back({"torn offset", body, 12});
  }
  {
    BodyBuilder b;  // ends on a match: no closing literal token
    b.seq(lits(4), 4, 8);
    auto body = b.finish({});
    body.pop_back();
    cases.push_back({"ends on a match", body, b.raw_len()});
  }
  for (const Case& c : cases) {
    std::vector<std::uint8_t> ref = {7, 7};
    EXPECT_FALSE(reference_decode(c.body, c.raw_len, ref)) << c.what;
    EXPECT_EQ(ref.size(), 2u) << c.what;
    expect_matches_reference(c.body, c.raw_len, c.what);
    std::vector<std::uint8_t> out = {7, 7};
    EXPECT_FALSE(block_decompress(lz_frame(c.body, c.raw_len), out))
        << c.what;
    EXPECT_EQ(out.size(), 2u) << c.what;
  }
}

TEST(BlockCodecTest, WindowTooSmallForTheBlockIsDamage) {
  const std::vector<std::uint8_t> raw(1000, 0x11);
  const auto stored = block_compress(raw);
  std::vector<std::uint8_t> window(999);
  BlockCursor cursor{std::span<const std::uint8_t>(stored)};
  EXPECT_EQ(cursor.next(std::span<std::uint8_t>(window)), 0u);
  EXPECT_TRUE(cursor.damaged());
}

}  // namespace
}  // namespace gorilla::util
