// Population models for NTP server identity strings (§3.3, Table 2).
//
// The version-command census in the paper reports three distinct system-
// string distributions: the overall NTP population (cisco-dominated), the
// monlist amplifier pool (linux-dominated), and the mega-amplifier pool
// (linux/junos). It also reports that 19% of servers are unsynchronized
// (stratum 16) and that most version strings carry old compile years.
// This module samples server identities from those published distributions.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "ntp/mode6.h"
#include "util/rng.h"

namespace gorilla::ntp {

/// Which published column of Table 2 to draw the system string from.
enum class SystemPool : std::uint8_t {
  kAllNtp,        ///< every version responder (cisco 48%, unix 31%, ...)
  kAllAmplifiers, ///< monlist amplifiers (linux 80%, bsd 11%, ...)
  kMega,          ///< mega amplifiers (linux 44%, junos 36%, ...)
  /// The non-amplifier remainder, derived so that mixing it with the
  /// amplifier pool at the amplifiers' population share reproduces the
  /// kAllNtp column: overwhelmingly network devices and classic unix.
  kNonAmplifier,
};

/// Every distinct system string of the Table 2 pools, interned so a world
/// server stores a one-byte id rather than a std::string.
inline constexpr std::array<std::string_view, 13> kSystemNames = {
    "cisco", "unix",     "linux",    "bsd", "junos",  "sun",    "darwin",
    "vmkernel", "windows", "secureos", "qnx", "cygwin", "isilon",
};

/// The interned system string for an id from sample_system_id().
[[nodiscard]] std::string_view system_name(std::uint8_t id);

/// One (system string id, probability weight) row of Table 2.
struct SystemWeight {
  std::uint8_t id;
  double weight;
};

/// The rows of Table 2 for a pool, in the paper's order.
[[nodiscard]] std::span<const SystemWeight> system_string_distribution(
    SystemPool pool);

/// Samples a system string's interned id from a pool's distribution; one
/// uniform01() draw, no allocation.
[[nodiscard]] std::uint8_t sample_system_id(SystemPool pool, util::Rng& rng);

/// Samples an ntpd compile year matching §3.3: 13% before 2004, 23% before
/// 2010, 48% before 2011, 59% before 2012, 79% before 2013, rest 2013-14.
[[nodiscard]] int sample_compile_year(util::Rng& rng);

/// Samples a stratum: 19% stratum 16 (unsynchronized), else 1..6 with the
/// bulk at 2-3.
[[nodiscard]] int sample_stratum(util::Rng& rng);

/// Every random value behind one server's READVAR variables, in the order
/// the generator draws them (DESIGN.md §3g). Fields past `terse` are drawn
/// only by full ntpd installs, and those past `full` only by the half of
/// them that dump daemon statistics.
struct SystemVariableDraws {
  int patch = 0;
  int day = 0;
  int month = 0;
  int build = 0;
  int point = 0;
  double rootdelay_ms = 0.0;
  double rootdisp_ms = 0.0;
  std::array<int, 4> refid{};
  int stamp_millis = 0;
  int stamp_second = 0;
  int stamp_minute = 0;
  int stamp_hour = 0;
  int stamp_day = 0;
  int stamp_month = 0;
  std::uint32_t stamp_fraction = 0;
  std::uint32_t stamp_seconds = 0;
  bool terse = false;
  double offset = 0.0;
  double sys_jitter = 0.0;
  bool full = false;
  std::int64_t peer = 0;
  std::int64_t tc = 0;
  double frequency = 0.0;
  double clk_jitter = 0.0;
  double clk_wander = 0.0;
  /// ss_uptime, ss_reset, ss_received, ss_badformat, ss_declined,
  /// ss_limited, ss_kodsent.
  std::array<std::uint64_t, 7> stats{};
};

/// Draw step: makes every RNG call of a server's READVAR variables. Which
/// calls happen depends only on `system` (network devices are terse) and on
/// the draws themselves.
[[nodiscard]] SystemVariableDraws draw_system_variables(
    std::string_view system, util::Rng& rng);

/// Render step: formats the draws into the READVAR variable set. Pure.
[[nodiscard]] SystemVariables render_system_variables(
    std::string_view system, int compile_year, int stratum,
    const SystemVariableDraws& draws);

/// Assembles the full READVAR variable set for a server identity now:
/// render_system_variables(draw_system_variables(...)).
[[nodiscard]] SystemVariables make_system_variables(std::string_view system,
                                                    int compile_year,
                                                    int stratum,
                                                    util::Rng& rng);

/// A server identity that renders its READVAR variables on demand: the
/// identity fields plus the RNG state at the start of the draw step. 40
/// bytes, against about 1 KB of rendered strings.
struct SystemRecipe {
  util::Rng::State rng_state{};
  std::uint16_t compile_year = 0;
  std::uint8_t system_id = 0;
  std::uint8_t stratum = 0;
};
static_assert(sizeof(SystemRecipe) == 40);

/// Samples a server identity from `pool` and runs the draw step without
/// rendering, advancing `rng` exactly as building the variables eagerly
/// would.
[[nodiscard]] SystemRecipe draw_system_recipe(SystemPool pool,
                                              util::Rng& rng);

/// Replays the recipe's draw step from its saved RNG state and renders.
[[nodiscard]] SystemVariables render_system_variables(
    const SystemRecipe& recipe);

/// Extracts the four-digit compile year from a version string, or 0.
[[nodiscard]] int extract_compile_year(const std::string& version_string);

/// Normalizes a system string to the Table-2 OS label ("Linux/2.6.32" ->
/// "linux", "cisco IOS" -> "cisco").
[[nodiscard]] std::string normalize_os_label(const std::string& system);

}  // namespace gorilla::ntp
