#include "ntp/sysinfo.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace gorilla::ntp {

namespace {

/// A Table 2 row, with the name interned at compile time (an unknown name
/// does not compile).
consteval SystemWeight row(std::string_view name, double weight) {
  for (std::uint8_t id = 0; id < kSystemNames.size(); ++id) {
    if (kSystemNames[id] == name) return {id, weight};
  }
  throw "system name missing from kSystemNames";
}

// Probabilities are Table 2 of the paper, renormalized over the rows shown.
constexpr SystemWeight kAllNtp[] = {
    row("cisco", 48.39),   row("unix", 30.64),    row("linux", 18.97),
    row("bsd", 0.97),      row("junos", 0.33),    row("sun", 0.21),
    row("darwin", 0.13),   row("vmkernel", 0.10), row("windows", 0.07),
    row("secureos", 0.03), row("qnx", 0.02),
};
constexpr SystemWeight kAmplifiers[] = {
    row("linux", 80.22),   row("bsd", 11.08),      row("junos", 3.43),
    row("vmkernel", 1.42), row("darwin", 0.92),    row("windows", 0.84),
    row("unix", 0.56),     row("secureos", 0.49),  row("sun", 0.25),
    row("qnx", 0.22),      row("cisco", 0.17),
};
constexpr SystemWeight kMega[] = {
    row("linux", 44.18),   row("junos", 35.85),    row("bsd", 9.18),
    row("cygwin", 4.82),   row("vmkernel", 2.41),  row("unix", 2.01),
    row("windows", 0.42),  row("sun", 0.37),       row("secureos", 0.25),
    row("isilon", 0.23),   row("cisco", 0.06),
};
constexpr SystemWeight kNonAmplifier[] = {
    row("cisco", 58.0),    row("unix", 36.0),      row("linux", 4.3),
    row("bsd", 0.8),       row("sun", 0.25),       row("darwin", 0.15),
    row("vmkernel", 0.12), row("windows", 0.08),   row("junos", 0.2),
    row("secureos", 0.04), row("qnx", 0.03),
};

constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                   "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

int draw_int(util::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

}  // namespace

std::string_view system_name(std::uint8_t id) { return kSystemNames.at(id); }

std::span<const SystemWeight> system_string_distribution(SystemPool pool) {
  switch (pool) {
    case SystemPool::kAllNtp: return kAllNtp;
    case SystemPool::kAllAmplifiers: return kAmplifiers;
    case SystemPool::kMega: return kMega;
    case SystemPool::kNonAmplifier: return kNonAmplifier;
  }
  return kAllNtp;
}

std::uint8_t sample_system_id(SystemPool pool, util::Rng& rng) {
  const auto dist = system_string_distribution(pool);
  double total = 0.0;
  for (const auto& row : dist) total += row.weight;
  double u = rng.uniform01() * total;
  for (const auto& row : dist) {
    u -= row.weight;
    if (u <= 0.0) return row.id;
  }
  return dist.back().id;
}

int sample_compile_year(util::Rng& rng) {
  // Piecewise-uniform over the paper's cumulative fractions:
  //   13% < 2004, 23% < 2010, 48% < 2011, 59% < 2012, 79% < 2013, 21% >= 2013.
  const double u = rng.uniform01();
  if (u < 0.13) return static_cast<int>(rng.uniform_int(1998, 2003));
  if (u < 0.23) return static_cast<int>(rng.uniform_int(2004, 2009));
  if (u < 0.48) return 2010;
  if (u < 0.59) return 2011;
  if (u < 0.79) return 2012;
  return static_cast<int>(rng.uniform_int(2013, 2014));
}

int sample_stratum(util::Rng& rng) {
  if (rng.chance(0.19)) return kStratumUnsynchronized;  // §3.3: 19% stratum 16
  const double u = rng.uniform01();
  if (u < 0.05) return 1;
  if (u < 0.55) return 2;
  if (u < 0.85) return 3;
  if (u < 0.95) return 4;
  return static_cast<int>(rng.uniform_int(5, 6));
}

SystemVariableDraws draw_system_variables(std::string_view system,
                                          util::Rng& rng) {
  // The order below is the generator's published byte stream: every world
  // at every seed depends on it, so a draw may never move.
  SystemVariableDraws d;
  d.patch = draw_int(rng, 0, 8);
  d.day = draw_int(rng, 1, 28);
  d.month = static_cast<int>(rng.uniform(12));
  d.build = draw_int(rng, 1500, 2600);
  d.point = draw_int(rng, 0, 8);
  d.rootdelay_ms = rng.uniform_real(0.1, 60.0);
  d.rootdisp_ms = rng.uniform_real(0.5, 120.0);
  d.refid[3] = draw_int(rng, 1, 254);
  d.refid[2] = draw_int(rng, 0, 255);
  d.refid[1] = draw_int(rng, 0, 255);
  d.refid[0] = draw_int(rng, 1, 223);
  d.stamp_millis = draw_int(rng, 0, 999);
  d.stamp_second = draw_int(rng, 0, 59);
  d.stamp_minute = draw_int(rng, 0, 59);
  d.stamp_hour = draw_int(rng, 0, 23);
  d.stamp_day = draw_int(rng, 1, 28);
  d.stamp_month = static_cast<int>(rng.uniform(4));
  d.stamp_fraction = static_cast<std::uint32_t>(rng.next() >> 32);
  d.stamp_seconds =
      static_cast<std::uint32_t>(rng.next() >> 36) | 0xd6000000u;
  d.terse = system == "cisco" || system == "junos" || system == "vmkernel" ||
            system == "qnx";
  if (d.terse) return d;
  d.offset = rng.uniform_real(-80.0, 80.0);
  d.sys_jitter = rng.uniform_real(0.0, 12.0);
  d.full = rng.chance(0.5);
  if (!d.full) return d;
  d.peer = rng.uniform_int(1000, 65000);
  d.tc = rng.uniform_int(6, 10);
  d.frequency = rng.uniform_real(-120.0, 120.0);
  d.clk_jitter = rng.uniform_real(0.0, 8.0);
  d.clk_wander = rng.uniform_real(0.0, 1.0);
  static constexpr std::uint64_t kStatBounds[] = {
      9000000, 900000, 50000000, 999, 9999, 999999, 99999};
  for (std::size_t i = 0; i < d.stats.size(); ++i) {
    d.stats[i] = rng.uniform(kStatBounds[i]);
  }
  return d;
}

SystemVariables render_system_variables(std::string_view system,
                                        int compile_year, int stratum,
                                        const SystemVariableDraws& d) {
  SystemVariables v;
  const int maj = 4;
  const int min = compile_year >= 2010 ? 2 : 1;
  char buf[128];
  std::snprintf(buf, sizeof buf, "ntpd %d.%d.%dp%d@1.%04d-o %s %2d %d", maj,
                min, d.point, d.patch, d.build, kMonths[d.month], d.day,
                compile_year);
  v.version = buf;
  v.system = system;
  v.processor = system == "cisco" || system == "junos" ? "" : "x86_64";
  v.stratum = stratum;
  v.leap = stratum == kStratumUnsynchronized ? 3 : 0;
  v.rootdelay_ms = d.rootdelay_ms;
  v.rootdisp_ms = d.rootdisp_ms;

  // Daemon variables beyond the core set. Network devices (cisco, junos)
  // report a short list; full ntpd installs return a dozen statistics —
  // the source of the version-response size spread behind Figure 4c's
  // 3.5/4.6/6.9 on-wire BAF quartiles.
  auto num = [](double value, int prec) {
    char b[48];
    const auto res = std::to_chars(b, b + sizeof b, value,
                                   std::chars_format::fixed, prec);
    return std::string(b, res.ptr);
  };
  char refid[32];
  std::snprintf(refid, sizeof refid, "%d.%d.%d.%d", d.refid[0], d.refid[1],
                d.refid[2], d.refid[3]);
  char stamp[64];
  std::snprintf(stamp, sizeof stamp,
                "0x%08x.%08x  Fri, %s %2d 2014 %2d:%02d:%02d.%03d",
                d.stamp_seconds, d.stamp_fraction, kMonths[d.stamp_month],
                d.stamp_day, d.stamp_hour, d.stamp_minute, d.stamp_second,
                d.stamp_millis);
  // Three response tiers: network devices are terse; about half of full
  // ntpd installs report the moderate set; the rest dump everything.
  v.extras.reserve(d.terse ? 2 : d.full ? 18 : 5);
  v.extras.emplace_back("refid", refid);
  v.extras.emplace_back("reftime", stamp);
  if (d.terse) return v;
  v.extras.emplace_back("clock", stamp);
  v.extras.emplace_back("offset", num(d.offset, 3));
  v.extras.emplace_back("sys_jitter", num(d.sys_jitter, 3));
  if (!d.full) return v;
  v.extras.emplace_back("peer", std::to_string(d.peer));
  v.extras.emplace_back("tc", std::to_string(d.tc));
  v.extras.emplace_back("mintc", "3");
  v.extras.emplace_back("frequency", num(d.frequency, 3));
  v.extras.emplace_back("clk_jitter", num(d.clk_jitter, 3));
  v.extras.emplace_back("clk_wander", num(d.clk_wander, 3));
  // Full installs also dump daemon statistics to READVAR.
  static constexpr const char* kStatNames[] = {
      "ss_uptime",   "ss_reset",   "ss_received", "ss_badformat",
      "ss_declined", "ss_limited", "ss_kodsent"};
  for (std::size_t i = 0; i < d.stats.size(); ++i) {
    v.extras.emplace_back(kStatNames[i], std::to_string(d.stats[i]));
  }
  return v;
}

SystemVariables make_system_variables(std::string_view system,
                                      int compile_year, int stratum,
                                      util::Rng& rng) {
  return render_system_variables(system, compile_year, stratum,
                                 draw_system_variables(system, rng));
}

SystemRecipe draw_system_recipe(SystemPool pool, util::Rng& rng) {
  SystemRecipe recipe;
  recipe.system_id = sample_system_id(pool, rng);
  recipe.stratum = static_cast<std::uint8_t>(sample_stratum(rng));
  recipe.compile_year = static_cast<std::uint16_t>(sample_compile_year(rng));
  recipe.rng_state = rng.state();
  (void)draw_system_variables(system_name(recipe.system_id), rng);
  return recipe;
}

SystemVariables render_system_variables(const SystemRecipe& recipe) {
  util::Rng rng = util::Rng::from_state(recipe.rng_state);
  return make_system_variables(system_name(recipe.system_id),
                               recipe.compile_year, recipe.stratum, rng);
}

int extract_compile_year(const std::string& version_string) {
  // The year is the last 4-digit token in ntpd's "... Mon DD YYYY" banner.
  int year = 0;
  for (std::size_t i = 0; i + 4 <= version_string.size(); ++i) {
    const bool boundary_before =
        i == 0 || !std::isdigit(static_cast<unsigned char>(version_string[i - 1]));
    const bool boundary_after =
        i + 4 == version_string.size() ||
        !std::isdigit(static_cast<unsigned char>(version_string[i + 4]));
    if (!boundary_before || !boundary_after) continue;
    bool all_digits = true;
    for (int k = 0; k < 4; ++k) {
      if (!std::isdigit(static_cast<unsigned char>(version_string[i + k]))) {
        all_digits = false;
        break;
      }
    }
    if (!all_digits) continue;
    const int candidate = std::stoi(version_string.substr(i, 4));
    if (candidate >= 1990 && candidate <= 2100) year = candidate;
  }
  return year;
}

std::string normalize_os_label(const std::string& system) {
  std::string lower;
  lower.reserve(system.size());
  for (char c : system) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  static constexpr const char* kLabels[] = {
      "cisco",  "junos",   "linux",    "bsd",   "darwin", "windows",
      "sun",    "vmkernel", "secureos", "qnx",  "cygwin", "isilon",
      "unix",
  };
  for (const char* label : kLabels) {
    if (lower.find(label) != std::string::npos) return label;
  }
  return "OTHER";
}

}  // namespace gorilla::ntp
