// Figure 10: vulnerable amplifier pool sizes relative to their own peaks,
// aligned on weeks since publicity began — NTP monlist vs NTP version vs
// open DNS resolvers — plus §6.1 subgroup remediation and §6.2/§6.3.
//
// Paper shape: monlist collapses (−92% over 15 weeks) dramatically faster
// than version (−19% over 9) and DNS open resolvers (essentially flat over
// a year; 33.9M at peak; CPE-bound). Regional remediation: NA 97% ... SA
// 63%. Effects: amplifiers-per-victim falls ~10x while packets-per-
// remaining-amplifier rises ~10x.
#include <cstdio>

#include "common.h"
#include "core/remediation_analysis.h"
#include "dns/resolver.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 10: pool remediation comparison", opt);

  bench::StudyPipeline pipeline(opt);
  pipeline.run();

  // Pool series: monlist from the census, version from weekly version
  // passes, DNS from the resolver-pool model.
  std::vector<std::uint64_t> monlist_counts;
  for (const auto& row : pipeline.census->rows()) {
    monlist_counts.push_back(row.ips);
  }
  scan::Prober vprober(*pipeline.world, net::Ipv4Address(198, 51, 100, 7));
  std::vector<std::uint64_t> version_counts;
  for (int vweek = 0; vweek < (opt.quick ? 4 : 9); ++vweek) {
    version_counts.push_back(
        vprober.run_version_sample(vweek, [](const scan::VersionObservation&) {})
            .responders_total);
  }
  dns::ResolverPoolConfig dns_cfg;
  dns_cfg.peak_size = 33900000 / opt.scale;
  dns_cfg.seed = opt.seed ^ 0xd45ULL;
  // §6.2: ~9.2% of the NTP amplifier IPs are ALSO open resolvers — the
  // badly mismanaged boxes run everything.
  util::Rng co_rng(opt.seed ^ 0xc057ULL);
  for (const auto ai : pipeline.world->amplifier_indices()) {
    if (co_rng.chance(0.092)) {
      dns_cfg.co_hosted.push_back(
          pipeline.world->servers()[ai].home_address);
    }
  }
  const dns::ResolverPool dns_pool(pipeline.world->registry(), dns_cfg, 60);
  std::vector<std::uint64_t> dns_counts;
  for (int week = 0; week < 52; ++week) {
    dns_counts.push_back(dns_pool.open_count(week));
  }

  const auto monlist = core::make_pool_series("NTP monlist", monlist_counts);
  const auto version = core::make_pool_series("NTP version", version_counts);
  const auto dns_series = core::make_pool_series("DNS open resolvers",
                                                 dns_counts);

  util::TextTable table({"weeks since publicity", "monlist", "version",
                         "DNS resolvers"});
  for (std::size_t w = 0; w < 52; w += 2) {
    auto cell = [&](const core::PoolSeries& s) -> std::string {
      return w < s.relative_to_peak.size()
                 ? util::fixed(s.relative_to_peak[w] * 100.0, 0) + "%"
                 : "-";
    };
    if (w < monlist.relative_to_peak.size() ||
        w < dns_series.relative_to_peak.size()) {
      table.add_row({std::to_string(w), cell(monlist), cell(version),
                     cell(dns_series)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("peaks: monlist %s, version %s, DNS %s"
              "   (paper: 1.4M / 4.9M / 33.9M, scaled)\n\n",
              util::si_count(static_cast<double>(monlist.peak)).c_str(),
              util::si_count(static_cast<double>(version.peak)).c_str(),
              util::si_count(static_cast<double>(dns_series.peak)).c_str());

  // §6.1 subgroup remediation.
  const auto levels = core::level_reduction(*pipeline.census);
  std::printf("level reduction: IPs %.0f%%, /24 %.0f%%, blocks %.0f%%, "
              "ASes %.0f%%   (paper: 92/72/59/55)\n",
              levels.ips_pct, levels.slash24_pct, levels.blocks_pct,
              levels.asns_pct);
  std::printf("regional remediation (paper: NA 97, OC 93, EU 89, AS 84, "
              "AF 77, SA 63):\n");
  for (const auto& row : core::continent_reduction(*pipeline.census)) {
    std::printf("  %-14s %5.1f%%\n", net::to_string(row.continent),
                row.remediated_pct);
  }

  // §6.2 pool overlap.
  std::vector<net::Ipv4Address> monlist_ips;
  for (const auto& [addr, _] : pipeline.census->mega_roster()) {
    monlist_ips.push_back(addr);  // roster is a subset; add full pool below
  }
  monlist_ips.clear();
  for (const auto ai : pipeline.world->amplifier_indices()) {
    monlist_ips.push_back(pipeline.world->servers()[ai].home_address);
  }
  std::vector<net::Ipv4Address> resolver_ips;
  resolver_ips.reserve(dns_pool.resolvers().size());
  for (const auto& r : dns_pool.resolvers()) resolver_ips.push_back(r.address);
  const auto overlap = core::pool_overlap(monlist_ips, resolver_ips);
  std::printf("\nNTP-amplifier / open-resolver IP overlap: %llu (%.1f%% of "
              "amplifiers; paper: ~9.2%%)\n",
              static_cast<unsigned long long>(overlap.intersection),
              overlap.fraction_of_first * 100.0);

  // §6.3 effects.
  const auto effect =
      core::remediation_effect(*pipeline.census, *pipeline.victims);
  std::printf("\nremediation effect (first -> last sample):\n");
  std::printf("  amplifiers per victim:   %.1f -> %.1f   (paper: ~10x drop)\n",
              effect.front().amplifiers_per_victim,
              effect.back().amplifiers_per_victim);
  std::printf("  packets per amplifier:   %s -> %s   (paper: ~10x rise)\n",
              util::si_count(effect.front().packets_per_amplifier).c_str(),
              util::si_count(effect.back().packets_per_amplifier).c_str());
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  const auto opt = gorilla::bench::parse_options(argc, argv, 40);
  gorilla::bench::require_live_run(
      opt,
      "it probes the world after the study, and a replayed world was "
      "never simulated");
  return gorilla::run(opt);
}
