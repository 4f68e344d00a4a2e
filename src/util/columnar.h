// Compact columnar serialization for recorded event streams.
//
// A ColumnWriter appends varint/zigzag/fixed-width values to one named
// column buffer; a ColumnArchive bundles the columns into a sectioned file
// behind an opaque caller-defined header. All byte-level encoding rides on
// ByteReader/ByteWriter (the tree's one sanctioned byte<->integer seam), so
// the artifact format inherits the same sticky-truncation discipline as the
// wire parsers: a short or corrupt file reads as !ok(), never as garbage.
//
// GORCOLv3 adds an in-repo block codec (util/block_codec.h): section
// payloads are stored as independently framed 64 KiB compressed blocks,
// and ColumnReader decodes them block-by-block from the borrowed stored
// bytes — the archive never inflates a whole file (or section) to a
// vector unless ColumnArchive::inflate() is explicitly asked to trade
// memory for flat-decode speed.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/block_codec.h"
#include "util/bytes.h"

namespace gorilla::util {

class ThreadPool;

/// ZigZag maps signed to unsigned so small-magnitude values varint-encode
/// short regardless of sign.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Append-only typed column. Owns its byte buffer; freely movable.
class ColumnWriter {
 public:
  void put_u8(std::uint8_t v) { ByteWriter(buf_).u8(v); }
  void put_u16(std::uint16_t v) { ByteWriter(buf_).u16le(v); }
  void put_u32(std::uint32_t v) { ByteWriter(buf_).u32le(v); }

  void put_varint(std::uint64_t v) {
    ByteWriter w(buf_);
    while (v >= 0x80) {
      w.u8(static_cast<std::uint8_t>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    w.u8(static_cast<std::uint8_t>(v));
  }

  void put_zigzag(std::int64_t v) { put_varint(zigzag_encode(v)); }

  void put_f64(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    ByteWriter w(buf_);
    w.u32le(static_cast<std::uint32_t>(bits));
    w.u32le(static_cast<std::uint32_t>(bits >> 32));
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buf_;
  }
  /// Moves the encoded bytes out (the writer is empty afterwards).
  [[nodiscard]] std::vector<std::uint8_t> take_buffer() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Forward-only typed reads over one column. Failure is sticky: after any
/// short, overlong, or block-damaged read, ok() stays false and every
/// further get returns 0.
///
/// Two sources: a flat borrowed span (v1/v2 payloads, inflated sections),
/// or a GORCOLv3 block stream decoded one block at a time into an internal
/// window — the streaming path borrows the stored bytes and never
/// materializes the whole section. Values split across a block boundary
/// are handled by carrying the unread tail (at most a few bytes) into the
/// next window.
class ColumnReader {
 public:
  explicit ColumnReader(std::span<const std::uint8_t> data) noexcept
      : win_(data) {}

  struct BlocksTag {};
  /// Streaming reader over block-compressed stored bytes (borrowed).
  ColumnReader(BlocksTag, std::span<const std::uint8_t> stored) noexcept
      : cursor_(stored), streaming_(true) {}

  // The window is self-referential: moving is safe (the heap buffer stays
  // put across moves), copying would alias another reader's window.
  ColumnReader(const ColumnReader&) = delete;
  ColumnReader& operator=(const ColumnReader&) = delete;
  ColumnReader(ColumnReader&&) noexcept = default;
  ColumnReader& operator=(ColumnReader&&) noexcept = default;

  [[nodiscard]] bool ok() const noexcept { return !bad_; }
  [[nodiscard]] bool at_end() const noexcept {
    return win_.size() - pos_ == 0 && (!streaming_ || cursor_.exhausted());
  }

  std::uint8_t get_u8() noexcept {
    if (!ensure(1)) return fail();
    return win_[pos_++];
  }

  std::uint16_t get_u16() noexcept {
    if (!ensure(2)) return fail();
    const std::uint16_t v = *load_u16le(win_, pos_);
    pos_ += 2;
    return v;
  }

  std::uint32_t get_u32() noexcept {
    if (!ensure(4)) return fail();
    const std::uint32_t v = *load_u32le(win_, pos_);
    pos_ += 4;
    return v;
  }

  std::uint64_t get_varint() noexcept {
    if (bad_) return 0;
    std::uint64_t v = 0;
    int n = decode_varint(win_, pos_, v);
    if (n == 0) {
      // Truncated-in-window or genuinely bad: widen to a full 10-byte view
      // (pulling blocks as needed), then the verdict is final.
      while (win_.size() - pos_ < 10 && refill()) {
      }
      n = decode_varint(win_, pos_, v);
      if (n == 0) return fail();
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::int64_t get_zigzag() noexcept { return zigzag_decode(get_varint()); }

  double get_f64() noexcept {
    if (!ensure(8)) return 0.0;
    const std::uint64_t lo = *load_u32le(win_, pos_);
    const std::uint64_t hi = *load_u32le(win_, pos_ + 4);
    pos_ += 8;
    return std::bit_cast<double>((hi << 32) | lo);
  }

 private:
  std::uint8_t fail() noexcept {
    bad_ = true;
    return 0;
  }

  [[nodiscard]] bool ensure(std::size_t n) noexcept {
    if (bad_) return false;
    while (win_.size() - pos_ < n) {
      if (!refill()) {
        bad_ = true;
        return false;
      }
    }
    return true;
  }

  /// Moves the unread tail to the front of the window and decodes the
  /// next block straight behind it. False at stream end or damage.
  bool refill() noexcept {
    if (!streaming_ || bad_) return false;
    if (!window_) {
      // Allocated once per reader and never zero-filled: the decoder
      // writes every byte the reader is then allowed to see.
      window_ = std::make_unique_for_overwrite<std::uint8_t[]>(kWindowBytes);
    }
    const std::size_t tail = win_.size() - pos_;
    if (pos_ > 0) {
      std::copy(win_.begin() + static_cast<std::ptrdiff_t>(pos_), win_.end(),
                window_.get());
    }
    const std::size_t got =
        cursor_.next(std::span<std::uint8_t>(window_.get() + tail,
                                              kWindowBytes - tail));
    win_ = std::span<const std::uint8_t>(window_.get(), tail + got);
    pos_ = 0;
    return got > 0;
  }

  /// A refill carries fewer than 10 unread bytes (reads ask for at most a
  /// 10-byte varint), then one block, then the decoder's over-copy slack.
  static constexpr std::size_t kWindowBytes =
      16 + kBlockRawSize + kBlockDecodeSlack;

  std::span<const std::uint8_t> win_;
  std::size_t pos_ = 0;
  std::unique_ptr<std::uint8_t[]> window_;
  BlockCursor cursor_{std::span<const std::uint8_t>{}};
  bool streaming_ = false;
  bool bad_ = false;
};

/// What a prefix-tolerant archive read saw. `sections_ok` sections were
/// recovered intact; reading stopped at the first CRC failure
/// (`crc_failures` = 1) or short read (`truncated_at` = stream offset of
/// the first field that could not be fully read). `complete` means every
/// declared section was present and valid — the file is whole.
///
/// For GORCOLv3 block-compressed sections, damage degrades at block
/// granularity: the longest run of intact blocks is kept as a PARTIAL
/// trailing section (`partial_section`, name in `damaged_section`) and the
/// first bad block is pinpointed by index and absolute file offset.
struct ArchiveReadReport {
  std::size_t sections_ok = 0;
  std::size_t crc_failures = 0;
  std::optional<std::uint64_t> truncated_at;
  bool header_ok = false;
  bool complete = false;
  bool partial_section = false;
  std::string damaged_section;
  std::optional<std::size_t> bad_block;
  std::optional<std::uint64_t> bad_block_offset;
};

/// A named-section container: opaque header + ordered named columns.
///
/// On-disk format GORCOLv3: magic "GORCOLv3", u32le header length, header
/// bytes, u32le header CRC-32, u32le section count, then per section a u8
/// name length, the name, a u8 storage kind (0 = raw, 1 = block stream),
/// a u64be stored length, a u64be uncompressed length, a u32le CRC-32 of
/// the stored bytes, and the stored bytes. Block streams are framed by
/// util/block_codec.h (64 KiB blocks, per-block length + CRC), so a torn
/// tail degrades per BLOCK, not per section. v2 (raw sections + CRCs) and
/// v1 (no CRCs) are still readable; writers emit v3 unless `version` is
/// set to 2 (kept for size-comparison tooling).
struct ColumnArchive {
  enum class SectionStorage : std::uint8_t { kRaw = 0, kBlocks = 1 };

  struct Section {
    std::string name;
    /// Payload for kRaw; block-codec stored bytes for kBlocks.
    std::vector<std::uint8_t> bytes;
    SectionStorage storage = SectionStorage::kRaw;
    /// Uncompressed payload length (== bytes.size() for kRaw).
    std::uint64_t raw_len = 0;

    Section() = default;
    Section(std::string n, std::vector<std::uint8_t> b)
        : name(std::move(n)), bytes(std::move(b)), raw_len(bytes.size()) {}
    friend bool operator==(const Section&, const Section&) = default;
  };

  std::vector<std::uint8_t> header;
  std::vector<Section> sections;
  /// Container version this archive serializes as (after a load: the
  /// version it was read from). Decoders key transform handling off this.
  int version = 3;

  /// Section by name; nullptr when absent.
  [[nodiscard]] const Section* find(std::string_view name) const noexcept;

  /// Typed reader over a section's payload: flat for raw sections,
  /// streaming block-by-block for compressed ones. Absent name reads as an
  /// empty column.
  [[nodiscard]] ColumnReader column(std::string_view name) const noexcept;

  /// Decompresses every block-stored section in place (across `pool` when
  /// given — sections are independent). Purely a speed/memory trade:
  /// reads are byte-identical before and after.
  void inflate(ThreadPool* pool = nullptr);

  /// Serializes as GORCOLv3 (or legacy v2 when version == 2); false when
  /// the sink fails mid-write (the stream then holds an undefined partial
  /// prefix — discard it).
  [[nodiscard]] bool save(std::ostream& out) const;

  /// Strict load (v1/v2/v3): nullopt on bad magic, truncation, any CRC
  /// mismatch, or a malformed section table.
  [[nodiscard]] static std::optional<ColumnArchive> load(std::istream& in);

  /// Prefix-tolerant load (v1/v2/v3): requires a valid magic/header, then
  /// consumes the longest run of intact sections — plus, for a v3
  /// compressed section torn or corrupted mid-stream, the longest run of
  /// intact blocks within it. nullopt only when not even the header
  /// survives. Details of what was recovered land in *report (optional).
  [[nodiscard]] static std::optional<ColumnArchive> load_prefix(
      std::istream& in, ArchiveReadReport* report = nullptr);

  /// Atomic file write: serializes to `path + ".tmp"`, flushes + fsyncs,
  /// then renames over `path`. On any failure the temp file is removed and
  /// the previous contents of `path` are untouched. False on failure.
  [[nodiscard]] bool save_file(const std::string& path) const;
  [[nodiscard]] static std::optional<ColumnArchive> load_file(
      const std::string& path);
  [[nodiscard]] static std::optional<ColumnArchive> load_file_prefix(
      const std::string& path, ArchiveReadReport* report = nullptr);
};

}  // namespace gorilla::util
