// §3.4 follow-up: the April-June mega-amplifier watch.
//
// The paper kept probing, twice daily, the ~250K IPs that had answered
// monlist in any March 2014 sample. Findings it reports: responders fell
// from ~60K to ~15K over the period; nine IPs (from seven ASNs, all
// geolocated to one country) replied with >10,000 packets (>=5 MB) at
// least once; the largest sent >20M packets on each of a dozen samples;
// on May 31 one box sent 23M packets (>100 GB) in the first hour after a
// single probe. This bench reruns that watch.
#include <algorithm>
#include <cstdio>
#include <set>

#include "common.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("§3.4 follow-up: April-June mega-amplifier watch",
                      opt);

  // Build the world and replay the study proper (needed so the monitor
  // tables and remediation state reach their April condition), collecting
  // the watch list on the way: every server that answered a March monlist
  // sample (weeks 8..11 anchor Mar 07 - Mar 28).
  // The watch list needs the March samples, so the pipeline always runs
  // the full fifteen weeks; --quick only shortens the watch itself.
  bench::Options full = opt;
  full.quick = false;
  bench::StudyPipeline pipeline(full);
  std::set<std::uint32_t> march_seen;
  pipeline.extra_visitor = [&](int week,
                               const scan::AmplifierObservation& o) {
    if (week >= 8 && week <= 11) march_seen.insert(o.server_index);
  };
  pipeline.run();
  std::vector<std::uint32_t> march_targets(march_seen.begin(),
                                           march_seen.end());
  std::printf("watch list: %zu IPs that answered in March   (paper: 250K, "
              "scaled = %llu)\n\n",
              march_targets.size(),
              static_cast<unsigned long long>(250000 / opt.scale));

  // Twice-daily probes April 2 (day 152) - June 13 (day 224).
  scan::Prober watcher(*pipeline.world, net::Ipv4Address(198, 51, 100, 9));
  util::TextTable table({"date", "responders", "mega replies (>5MB)"});
  std::map<std::uint32_t, std::uint64_t> big_repliers;  // server -> max bytes
  std::map<std::uint32_t, int> big_reply_samples;
  std::uint64_t biggest_single = 0;
  util::Date biggest_date{};
  std::vector<double> responder_series;

  const int last_day = opt.quick ? 190 : 224;
  for (int day = 152; day <= last_day; ++day) {
    for (int half = 0; half < 2; ++half) {
      const util::SimTime now =
          static_cast<util::SimTime>(day) * util::kSecondsPerDay +
          (half == 0 ? 6 : 18) * util::kSecondsPerHour;
      const int week = (day - 70) / 7;
      std::uint64_t megas_this_pass = 0;
      const auto summary = watcher.probe_targets(
          march_targets, week, now,
          [&](const scan::AmplifierObservation& o) {
            if (o.response_wire_bytes >= 5'000'000) {
              ++megas_this_pass;
              auto& best = big_repliers[o.server_index];
              best = std::max(best, o.response_wire_bytes);
              ++big_reply_samples[o.server_index];
              if (o.response_wire_bytes > biggest_single) {
                biggest_single = o.response_wire_bytes;
                biggest_date = util::date_from_sim_time(now);
              }
            }
          });
      if (half == 0) {
        responder_series.push_back(
            static_cast<double>(summary.responders));
        if (day % 7 == 3) {
          table.add_row({util::to_string(util::date_from_sim_time(now)),
                         std::to_string(summary.responders),
                         std::to_string(megas_this_pass)});
        }
      }
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("responders: %s\n\n",
              util::sparkline(responder_series).c_str());

  const double first = responder_series.front();
  const double last = responder_series.back();
  std::printf("watch-list responders first->last: %.0f -> %.0f"
              "   (paper: ~60K -> ~15K, i.e. ~4x decline)\n",
              first, last);

  std::printf("\nIPs that ever replied with >5 MB: %zu   (paper: 9, from 7 "
              "ASNs)\n",
              big_repliers.size());
  std::set<net::Asn> mega_asns;
  std::set<std::string> mega_regions;
  util::TextTable megas({"amplifier", "ASN", "region", "largest reply",
                         "samples >5MB"});
  std::size_t shown = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked(
      big_repliers.begin(), big_repliers.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [server, bytes] : ranked) {
    const auto addr = pipeline.world->servers()[server].home_address;
    const auto asn = pipeline.world->registry().asn_of(addr);
    std::string region = "?";
    if (asn) {
      mega_asns.insert(*asn);
      region = net::to_string(
          pipeline.world->registry().as_info(*asn).continent);
      mega_regions.insert(region);
    }
    if (shown++ < 9) {
      megas.add_row({net::to_string(addr),
                     asn ? "AS" + std::to_string(*asn) : "-", region,
                     util::bytes_str(static_cast<double>(bytes)),
                     std::to_string(big_reply_samples[server])});
    }
  }
  std::printf("%s\n", megas.to_string().c_str());
  std::printf("distinct ASNs: %zu; regions: %zu"
              "   (paper: 7 ASNs, all geolocated to Japan)\n",
              mega_asns.size(), mega_regions.size());
  std::printf("largest single reply: %s on %s"
              "   (paper: 23M packets, >100 GB in an hour, on May 31)\n",
              util::bytes_str(static_cast<double>(biggest_single)).c_str(),
              util::to_string(biggest_date).c_str());
  std::printf("\nrepeat offenders (multiple >5MB samples) confirm the fault "
              "is systematic,\nnot transient — the paper's conclusion before "
              "JPCERT notification ended it.\n");
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
