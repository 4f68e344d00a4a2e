#include "ntp/mode6.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>

#include "util/bytes.h"

namespace gorilla::ntp {

std::vector<std::uint8_t> serialize(const ControlPacket& p) {
  std::vector<std::uint8_t> out;
  out.reserve(p.total_bytes());
  util::ByteWriter w(out);
  w.u8(make_li_vn_mode(0, p.version, Mode::kControl));
  std::uint8_t rem = static_cast<std::uint8_t>(p.opcode) & 0x1f;
  if (p.response) rem |= 0x80;
  if (p.error) rem |= 0x40;
  if (p.more) rem |= 0x20;
  w.u8(rem);
  w.u16be(p.sequence);
  w.u16be(p.status);
  w.u16be(p.association_id);
  w.u16be(p.offset);
  w.u16be(static_cast<std::uint16_t>(p.data.size()));
  w.bytes(p.data);
  w.pad_to(4);
  return out;
}

std::optional<ControlPacket> parse_control_packet(
    std::span<const std::uint8_t> raw) {
  util::ByteReader r(raw);
  const std::uint8_t b0 = r.u8();
  if (r.truncated() ||
      (b0 & 0x7) != static_cast<std::uint8_t>(Mode::kControl)) {
    return std::nullopt;
  }
  ControlPacket p;
  p.version = (b0 >> 3) & 0x7;
  const std::uint8_t rem = r.u8();
  p.response = rem & 0x80;
  p.error = rem & 0x40;
  p.more = rem & 0x20;
  p.opcode = static_cast<ControlOp>(rem & 0x1f);
  p.sequence = r.u16be();
  p.status = r.u16be();
  p.association_id = r.u16be();
  p.offset = r.u16be();
  const std::uint16_t count = r.u16be();
  const auto data = r.take(count);
  if (!r.ok()) return std::nullopt;  // short header or declared count > body
  p.data.assign(data.begin(), data.end());
  return p;
}

ControlPacket make_version_request(std::uint16_t sequence) {
  ControlPacket p;
  p.opcode = ControlOp::kReadVariables;
  p.sequence = sequence;
  return p;
}

std::string SystemVariables::render() const {
  // Appended piecewise into one reserved buffer: a world server renders
  // this once per version probe (DESIGN.md §3g). to_chars with a precision
  // formats exactly as printf's %.3f.
  auto fixed3 = [](std::string& out, double value) {
    char num[64];
    const auto res = std::to_chars(num, num + sizeof num, value,
                                   std::chars_format::fixed, 3);
    out.append(num, res.ptr);
  };
  std::string out;
  out.reserve(256 + version.size() + 32 * extras.size());
  out.append("version=\"").append(version);
  out.append("\", processor=\"").append(processor);
  out.append("\", system=\"").append(system);
  out.append("\", leap=").append(std::to_string(leap));
  out.append(", stratum=").append(std::to_string(stratum));
  out.append(", rootdelay=");
  fixed3(out, rootdelay_ms);
  out.append(", rootdisp=");
  fixed3(out, rootdisp_ms);
  for (const auto& [key, value] : extras) {
    out.append(", ").append(key).append("=").append(value);
  }
  return out;
}

std::map<std::string, std::string> parse_variable_list(const std::string& text) {
  std::map<std::string, std::string> vars;
  std::size_t pos = 0;
  while (pos < text.size()) {
    // Skip separators.
    while (pos < text.size() && (text[pos] == ',' || text[pos] == ' ' ||
                                 text[pos] == '\r' || text[pos] == '\n')) {
      ++pos;
    }
    const std::size_t eq = text.find('=', pos);
    if (eq == std::string::npos) break;
    std::string key = text.substr(pos, eq - pos);
    pos = eq + 1;
    std::string value;
    if (pos < text.size() && text[pos] == '"') {
      const std::size_t close = text.find('"', pos + 1);
      if (close == std::string::npos) break;
      value = text.substr(pos + 1, close - pos - 1);
      pos = close + 1;
    } else {
      const std::size_t comma = text.find(',', pos);
      value = text.substr(pos, comma == std::string::npos ? std::string::npos
                                                          : comma - pos);
      pos = comma == std::string::npos ? text.size() : comma;
    }
    if (!key.empty()) vars.emplace(std::move(key), std::move(value));
  }
  return vars;
}

std::vector<ControlPacket> make_readvar_response(
    const SystemVariables& vars, std::uint16_t request_sequence) {
  const std::string text = vars.render();
  std::vector<ControlPacket> fragments;
  std::size_t offset = 0;
  do {
    const std::size_t chunk =
        std::min(kControlMaxDataBytes, text.size() - offset);
    ControlPacket p;
    p.response = true;
    p.opcode = ControlOp::kReadVariables;
    p.sequence = request_sequence;
    p.offset = static_cast<std::uint16_t>(offset);
    p.data.assign(text.begin() + static_cast<std::ptrdiff_t>(offset),
                  text.begin() + static_cast<std::ptrdiff_t>(offset + chunk));
    offset += chunk;
    p.more = offset < text.size();
    fragments.push_back(std::move(p));
  } while (offset < text.size());
  return fragments;
}

std::optional<std::string> reassemble_readvar(
    std::span<const ControlPacket> fragments) {
  // Loop-faulted responders (§3.4 megas) resend the whole fragment chain;
  // deduplicate by offset, keeping the last copy, then require contiguity.
  std::map<std::uint16_t, const ControlPacket*> by_offset;
  for (const auto& f : fragments) by_offset[f.offset] = &f;
  std::string out;
  const ControlPacket* last = nullptr;
  for (const auto& [offset, f] : by_offset) {
    if (offset != out.size()) return std::nullopt;  // gap or overlap
    out.append(f->data.begin(), f->data.end());
    last = f;
  }
  if (last != nullptr && last->more) return std::nullopt;
  return out;
}

}  // namespace gorilla::ntp
