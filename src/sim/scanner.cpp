#include "sim/scanner.h"

#include <algorithm>
#include <cmath>

#include "net/ethernet.h"
#include "ntp/mode7.h"
// Published downward interface (DESIGN.md §3f): sim emits into the study
// event vocabulary and consults collector geometry; the types cross the
// layer boundary by design, so the upward includes live here, waived, not
// in scanner.h.
#include "study/collector_sink.h"  // NOLINT(layer-break)
#include "study/events.h"          // NOLINT(layer-break)
#include "telemetry/darknet.h"     // NOLINT(layer-break)
#include "telemetry/flow.h"        // NOLINT(layer-break)

namespace gorilla::sim {

namespace {

constexpr std::uint64_t kProbeWireBytes =
    net::on_wire_bytes_for_udp(ntp::kMode7RequestBytes);

}  // namespace

ScanTraffic::ScanTraffic(World& world, const ScanTrafficConfig& config)
    : world_(world),
      config_(config),
      impairment_(config.impairment),
      rng_(config.seed) {
  const auto& registry = world_.registry();
  // Research scanners: stable, whole-space, weekly, from well-known hosts.
  for (int i = 0; i < config_.research_scanners; ++i) {
    ScanActor a;
    a.address = registry.random_address(rng_);
    a.benign = true;
    a.first_day = i < 2 ? 0 : 30 + i * 8;  // projects joined over time
    a.ipv4_coverage = 1.0;
    a.passes_per_week = 1.0;
    a.mode6_share = i % 2 == 0 ? 0.5 : 0.0;  // some also run version scans
    actors_.push_back(a);
  }
  // Malicious swarm: scaled with the world, ramping in from mid-December.
  const std::uint64_t scale = std::max<std::uint32_t>(1, world_.config().scale);
  const int n_malicious = static_cast<int>(
      std::max<std::uint64_t>(8, static_cast<std::uint64_t>(
                                     config_.malicious_scanners) /
                                     scale));
  for (int i = 0; i < n_malicious; ++i) {
    ScanActor a;
    a.address = registry.random_address(rng_);
    a.benign = false;
    a.first_day = config_.malicious_onset_day +
                  static_cast<int>(rng_.uniform(
                      static_cast<std::uint64_t>(config_.malicious_ramp_days)));
    // Most keep scanning through the horizon (scanning stayed high even as
    // the pool shrank, §5.1); some churn out.
    a.last_day = rng_.chance(0.3)
                     ? a.first_day + static_cast<int>(rng_.uniform_int(7, 60))
                     : 1 << 30;
    a.ipv4_coverage = config_.malicious_coverage * rng_.lognormal(0.0, 0.8);
    a.passes_per_week = rng_.uniform_real(1.0, 7.0);
    // Interest in the version command grows; sampled per actor.
    a.mode6_share = rng_.chance(0.2) ? rng_.uniform_real(0.1, 0.5) : 0.0;
    actors_.push_back(a);
  }
}

std::uint64_t ScanTraffic::darknet_packets_per_pass(
    const ScanActor& actor, const telemetry::DarknetTelescope& t) const {
  // A pass covering fraction c of IPv4 hits c * (dark /24s * 256) addresses.
  const double dark_addresses = t.effective_dark_slash24s() * 256.0;
  return static_cast<std::uint64_t>(dark_addresses * actor.ipv4_coverage);
}

void ScanTraffic::run_day(
    int day, telemetry::DarknetTelescope* darknet,
    const std::vector<telemetry::FlowCollector*>& vantages) const {
  study::CollectorSink sink;
  sink.darknet = darknet;
  sink.vantages = vantages;
  run_day(day, sink, darknet, vantages);
}

void ScanTraffic::run_day(
    int day, study::EventSink& sink,
    const telemetry::DarknetTelescope* darknet_geometry,
    const std::vector<telemetry::FlowCollector*>& vantage_geometry) const {
  // A pure (seed, day) substream: the day's scan traffic is independent of
  // every other day, so attack-day shards can simulate it on workers.
  util::Rng rng = util::Rng::substream(
      config_.seed, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        day)));
  const util::SimTime day_start =
      static_cast<util::SimTime>(day) * util::kSecondsPerDay;
  for (const auto& actor : actors_) {
    if (day < actor.first_day || day > actor.last_day) continue;
    const double passes_today = actor.passes_per_week / 7.0;
    const bool scans_today =
        actor.benign ? rng.chance(passes_today)
                     : (rng.chance(config_.malicious_duty_cycle) &&
                        rng.chance(std::min(1.0, passes_today * 4)));
    if (!scans_today) continue;

    if (darknet_geometry != nullptr) {
      std::uint64_t pkts = darknet_packets_per_pass(actor, *darknet_geometry);
      if (impairment_.enabled()) {
        // Scan packets die in flight before the telescope like anywhere
        // else; key on the scanner so each actor thins reproducibly.
        pkts = impairment_.delivered_requests(actor.address.value(), day / 7,
                                              pkts);
      }
      if (pkts > 0) {
        sink.on_darknet_scan(actor.address, day, pkts, actor.benign);
      }
    }
    // Flows at regional vantages: malicious scanners sweep contiguous
    // slices, so a pass covering fraction c of IPv4 only intersects a
    // given regional prefix with probability ~c — which is why two distinct
    // sites almost never see the same malicious scanner (§7.2, Fig 16).
    // Research sweeps cover everything and are seen everywhere. The flow is
    // emitted *targeted* at this vantage's index: each vantage gets its own
    // destination draw, and broadcasting would let one vantage's slice leak
    // into another's space.
    for (std::size_t vi = 0; vi < vantage_geometry.size(); ++vi) {
      const auto* vantage = vantage_geometry[vi];
      if (!actor.benign &&
          !rng.chance(std::min(1.0, actor.ipv4_coverage * 0.5))) {
        continue;
      }
      if (vantage->prefixes().empty()) continue;
      telemetry::FlowRecord f;
      f.src = actor.address;
      // The flow represents the slice of this pass that landed inside this
      // vantage's space, so pick a destination there.
      const auto& prefix = vantage->prefixes()[rng.uniform(
          vantage->prefixes().size())];
      f.dst = prefix.at(rng.uniform(prefix.size()));
      f.src_port = static_cast<std::uint16_t>(rng.uniform_int(32768, 61000));
      f.dst_port = net::kNtpPort;
      f.ttl = kScanTtl;
      // Flow-exporter granularity: a sweep shows up as per-destination
      // flows of a packet or two. The representative flow carries the
      // per-destination view (what the §7.2 forensics keys on), not the
      // whole pass volume — scanning is a negligible share of NTP bytes at
      // a vantage either way.
      f.packets = actor.benign ? 2 : 1;
      if (impairment_.enabled()) {
        f.packets = impairment_.delivered_requests(
            actor.address.value() ^ f.dst.value(), day / 7, f.packets);
        if (f.packets == 0) continue;  // the whole slice died in flight
      }
      f.bytes = f.packets * kProbeWireBytes;
      f.payload_bytes = f.packets * ntp::kMode7RequestBytes;
      f.first = day_start + static_cast<util::SimTime>(
                                rng.uniform(util::kSecondsPerDay / 2));
      f.last = f.first + 3600;
      sink.on_flow(f, static_cast<int>(vi));
    }
  }
}

template <typename Emit>
void ScanTraffic::plan_seed_observations(int week, util::Rng& rng,
                                         std::size_t begin, std::size_t end,
                                         Emit&& emit) {
  // Research scanners sweep everything weekly: every responding server's
  // monitor table gains (or refreshes) one probe entry per active scanner.
  // Malicious scanners cover random slices: approximated per server as a
  // Poisson number of distinct one-shot probes.
  const int day = 70 + week * 7;  // sample weeks anchor at 2014-01-10
  const util::SimTime when =
      static_cast<util::SimTime>(day) * util::kSecondsPerDay;
  const double malicious_rate_per_server = [&] {
    double r = 0.0;
    for (const auto& a : actors_) {
      if (a.benign || day < a.first_day || day > a.last_day) continue;
      r += a.ipv4_coverage * a.passes_per_week;
    }
    return r;
  }();

  const auto& amplifiers = world_.amplifier_indices();
  for (std::size_t slot = begin; slot < end; ++slot) {
    const std::uint32_t ai = amplifiers[slot];
    auto* server = world_.detailed(ai);
    if (server == nullptr) continue;
    int actor_index = 0;
    for (const auto& a : actors_) {
      ++actor_index;
      if (!a.benign || day < a.first_day || day > a.last_day) continue;
      const bool mode6 = rng.chance(a.mode6_share);
      // Fates are hash draws, not RNG stream draws: checking them cannot
      // shift the clean stream, and the burned draws below keep an enabled
      // run's stream aligned whether or not this probe got through.
      if (impairment_.enabled() &&
          impairment_.request_fate(ai, week, 0x200 + actor_index) !=
              ImpairmentLayer::Fate::kDelivered) {
        (void)rng.uniform_int(1024, 65535);
        (void)rng.uniform(3600);
        continue;  // this scanner's probe never reached the server
      }
      emit(server, a.address,
           static_cast<std::uint16_t>(rng.uniform_int(1024, 65535)),
           static_cast<std::uint8_t>(mode6 ? ntp::Mode::kControl
                                           : ntp::Mode::kPrivate),
           when - static_cast<util::SimTime>(rng.uniform(3600)));
    }
    const std::uint64_t hits = rng.poisson(malicious_rate_per_server);
    for (std::uint64_t h = 0; h < hits && h < 16; ++h) {
      const auto& a = actors_[rng.uniform(actors_.size())];
      if (a.benign) continue;
      const bool mode6 = rng.chance(a.mode6_share);
      if (impairment_.enabled() &&
          impairment_.request_fate(ai, week, 0x300 + static_cast<int>(h)) !=
              ImpairmentLayer::Fate::kDelivered) {
        (void)rng.uniform_int(1024, 65535);
        (void)rng.uniform(3 * util::kSecondsPerDay);
        continue;
      }
      emit(server, a.address,
           static_cast<std::uint16_t>(rng.uniform_int(1024, 65535)),
           static_cast<std::uint8_t>(mode6 ? ntp::Mode::kControl
                                           : ntp::Mode::kPrivate),
           when - static_cast<util::SimTime>(
                      rng.uniform(3 * util::kSecondsPerDay)));
    }
  }
}

void ScanTraffic::seed_monitor_tables(int week, ShardedExecutor* executor) {
  // A pure (seed, week) substream, tag-disjoint from the per-day streams:
  // the weekly seeding plan no longer depends on how many days ran first.
  util::Rng rng = util::Rng::substream(
      config_.seed, (std::uint64_t{1} << 32) +
                        static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(week)));
  const auto observe = [](ntp::NtpServer* server, net::Ipv4Address address,
                          std::uint16_t port, std::uint8_t mode,
                          util::SimTime when) {
    server->monitor().observe(address, port, mode, ntp::kNtpVersion, when);
  };
  const std::size_t slots = world_.amplifier_indices().size();
  if (executor == nullptr || executor->jobs() <= 1) {
    plan_seed_observations(week, rng, 0, slots, observe);
    return;
  }

  // Checkpointed seeding: a draw-only pass walks the same stream on this
  // thread and records the generator state at every chunk boundary; each
  // chunk then resumes from its checkpoint on a worker and observes
  // inline. Draws never depend on table contents, so a resumed chunk makes
  // exactly the inline path's draws, and each chunk owns whole servers, so
  // no two workers touch one table and every table sees the sequential
  // engine's observe order.
  constexpr std::size_t kChunk = 256;
  std::vector<util::Rng::State> checkpoints;
  checkpoints.reserve((slots + kChunk - 1) / kChunk);
  for (std::size_t b = 0; b < slots; b += kChunk) {
    checkpoints.push_back(rng.state());
    plan_seed_observations(week, rng, b, std::min(slots, b + kChunk),
                           [](ntp::NtpServer*, net::Ipv4Address,
                              std::uint16_t, std::uint8_t, util::SimTime) {});
  }
  executor->parallel_for(
      slots, kChunk,
      [this, week, &checkpoints, observe](std::size_t begin,
                                          std::size_t end) {
        util::Rng chunk_rng =
            util::Rng::from_state(checkpoints[begin / kChunk]);
        plan_seed_observations(week, chunk_rng, begin, end, observe);
      });
}

}  // namespace gorilla::sim
