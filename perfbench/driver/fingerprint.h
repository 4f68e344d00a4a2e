// Order-sensitive FNV-1a-style digests of a pass's results, for the
// benchmark's result check: the same study must fingerprint identically at
// --jobs 1, at --jobs 4 and after a replay of its artifact.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace gorilla::perfbench {

class Fingerprint {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void text(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// One FNV-1a step per 64-bit word (flow tables hold millions of words),
  /// with the high half folded down so every input bit reaches every
  /// later step.
  void u64(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x100000001b3ULL;
    h_ ^= h_ >> 32;
  }
  /// Exact bit pattern: two results match only when every double matches.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace gorilla::perfbench
