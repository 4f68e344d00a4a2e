// The attack ecosystem: booters, botnets, and their NTP reflection campaigns.
//
// Every NTP DDoS attack in the study follows one script: an attacker picks a
// victim (very often a gamer, sometimes a hosting provider such as the
// paper's OVH analogue), a port (Table 4's mix), and a set of currently
// vulnerable amplifiers, then streams spoofed MON_GETLIST_1 requests at the
// amplifiers, whose multi-packet dumps flood the victim. This module
// generates those campaigns day by day along the paper's intensity curve
// (trickle before mid-December 2013, peak around February 11-12, decline
// after), applies their evidence to the world (amplifier monitor tables),
// and reports their traffic into the telemetry sinks (global collector,
// attack labels, regional flow collectors).
//
// Parallel execution (DESIGN.md §3d): every day is a pure function of
// (seed, day) — its RNG is a splitmix substream derived from the day index,
// and all its bus emissions and monitor-table mutations are buffered into a
// DayShardResult on the worker, then merged on the calling thread in
// ascending day order. run_days() fans whole days out over a
// ShardedExecutor; output is bit-identical for any --jobs value.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ntp/monlist.h"
#include "sim/impairment.h"
#include "sim/world.h"
// Published downward interface (DESIGN.md §3f): the engine buffers typed
// study events and its legacy AttackSinks alias *is* study::CollectorSink,
// so these types cross the layer boundary by value, by design.
#include "study/collector_sink.h"  // NOLINT(layer-break)
#include "study/event_buffer.h"    // NOLINT(layer-break)
#include "study/events.h"          // NOLINT(layer-break)
#include "util/rng.h"

// Geometry collectors are only passed by pointer; attack.cpp includes the
// telemetry headers it reads from (waived).
namespace gorilla::telemetry {
class DarknetTelescope;
class FlowCollector;
}  // namespace gorilla::telemetry

namespace gorilla::sim {

class ScanTraffic;
class ShardedExecutor;

/// One NTP reflection attack (ground truth, kept for validation).
struct AttackRecord {
  /// Unique, deterministic: (day << 24) | sequence-within-day, so ids are
  /// independent of how days are batched across run_day()/run_days() calls.
  std::uint64_t id = 0;
  std::uint32_t booter_id = 0;  ///< which §5.2 actor launched it
  net::Ipv4Address victim;
  std::uint16_t victim_port = 0;
  util::SimTime start = 0;
  util::SimTime end = 0;
  std::vector<std::uint32_t> amplifiers;  ///< server indices in the world
  std::uint64_t triggers_per_amplifier = 0;  ///< spoofed requests each got
  bool primed = false;  ///< amplifier tables pre-filled to 600 entries
  double peak_bps = 0.0;  ///< aggregate victim-side bandwidth at peak
  std::uint64_t response_packets = 0;  ///< total packets sent to the victim
  std::uint64_t response_bytes = 0;    ///< total on-wire bytes to the victim
  bool victim_end_host = false;
};

/// Where attack traffic is reported. Null members are simply skipped.
/// Kept as an alias of the study-layer collector sink so existing call
/// sites keep compiling; the engine itself now speaks study::EventSink.
using AttackSinks = study::CollectorSink;

struct AttackEngineConfig {
  std::uint64_t seed = util::Rng::kDefaultSeed ^ 0xa77acdULL;
  int horizon_days = 181;  ///< 2013-11-01 .. 2014-05-01

  /// Probability an attack's victim is an end host (gamer); §4.3.1 rises
  /// from ~31% to ~50%; we interpolate linearly over the horizon.
  double end_host_victim_initial = 0.31;
  double end_host_victim_final = 0.52;

  /// Probability the victim is drawn from the sticky hosting-provider pool
  /// topped by the OVH analogue when not an end host.
  double hosting_concentration_zipf = 0.9;

  /// Extra targeting weight for victims inside the regional networks so the
  /// §7 analyses see their documented victim populations.
  double merit_victim_rate = 0.030;
  double frgp_victim_rate = 0.013;
  /// Extra weight for the OVH analogue — the paper's top victim AS, hit
  /// with ~6% of all attack packets during a months-long campaign (§4.4).
  double ovh_victim_rate = 0.07;
  /// Probability a regional victim is in the cross-site common pool
  /// (attacked via amplifiers at both Merit and FRGP).
  double common_victim_rate = 0.05;

  /// Probability an attack reflects off a *regional* amplifier set
  /// (coordinated use of the Merit or CSU amplifiers, §7.2).
  double regional_reflection_rate = 0.04;

  /// Spoofed-request rate per amplifier (Pareto), requests/second.
  double trigger_pps_scale = 45.0;
  double trigger_pps_alpha = 1.08;
  double trigger_pps_cap = 5000.0;

  /// Fraction of attacks whose operator "primes" the amplifiers first so
  /// monlist returns the full 600 entries per trigger (§3.2's caution —
  /// this is what turns a 4x pool into 400 Gbps attacks).
  double primed_fraction = 0.45;
  /// Primed (booter-grade) attacks also drive much higher trigger rates
  /// and larger amplifier sets than ad-hoc ones.
  double primed_pps_scale = 150.0;
  double primed_pps_alpha = 1.2;
  double primed_amplifier_boost = 1.8;

  /// An amplifier's uplink bounds what it can actually emit; response
  /// volume saturates at this rate per amplifier.
  double amplifier_uplink_bps = 800e6;

  /// Victim-side ceiling: the largest NTP attacks observed peaked near
  /// 400 Gbps; beyond ~450 Gbps traffic dies upstream of any vantage.
  double victim_saturation_bps = 450e9;

  /// The §4.4 headline event: the ~400 Gbps CloudFlare/OVH attack of
  /// February 10-12 is scripted so the validation anchor always exists.
  bool scripted_ovh_event = true;

  /// Probability an NTP attack of each size class appears in the labeled
  /// (Arbor-analogue) attack feed — the vendor sees a third-to-half of
  /// traffic and its labeler misses small attacks (§2.2).
  double arbor_visibility_small = 0.09;
  double arbor_visibility_medium = 0.28;
  double arbor_visibility_large = 0.45;

  /// Victim re-targeting stickiness: the chance an attack re-hits one of
  /// its booter's customer targets picked earlier the same day (the sticky
  /// hosting/common pools carry concentration across days).
  double repeat_victim_rate = 0.35;

  /// Booter/botmaster population at full scale (§5.2), divided by the
  /// world scale; market share across booters is Zipf-distributed.
  std::uint32_t num_booters = 400;
  double booter_market_zipf = 1.1;

  /// Background (non-NTP) DDoS volume for the Figure 2 denominator:
  /// ~300K/month globally, 90/10/1 small/medium/large.
  double background_attacks_per_day = 10000.0;

  /// Network impairment on the spoofed-trigger and reflection paths: lost
  /// triggers never reach an amplifier (no monitor evidence, no response);
  /// lost response packets never reach the victim. All-zero = perfect
  /// network, bit-identical to the pre-impairment engine.
  ImpairmentConfig impairment;
};

/// A booter ("stresser") service or standalone botmaster — §5.2's attacker
/// ecosystem. Each attack is launched through one of these; the profile
/// shapes its tooling (priming) and clientele (sticky victim list).
struct BooterProfile {
  std::uint32_t id = 0;
  bool primes_amplifiers = false;  ///< booter-grade tooling
  /// The service's recent customer-target list (gamer feuds are sticky).
  /// Repeat-victim draws see the targets picked *earlier the same day* —
  /// day-scoped stickiness keeps each day a pure function of (seed, day)
  /// so days can simulate in parallel; the merged list here (most recent
  /// 16 across days) is diagnostic state for the §5.2 analyses.
  std::vector<net::Ipv4Address> customer_targets;
};

class AttackEngine {
 public:
  /// Primary form: all attack evidence is emitted as typed events into
  /// `sink` (which must outlive the engine).
  AttackEngine(World& world, const AttackEngineConfig& config,
               study::EventSink& sink);

  /// Legacy form: wraps the collector pointers in an owned CollectorSink.
  /// Event-for-event (and RNG-draw-for-draw) identical to passing the same
  /// collectors through the primary constructor.
  AttackEngine(World& world, const AttackEngineConfig& config,
               AttackSinks sinks);

  /// Full-scale NTP attacks-per-day intensity curve (day 0 = 2013-11-01).
  [[nodiscard]] static double ntp_attacks_per_day(int day) noexcept;

  /// ONP sample-week index containing a sim day (<0 before the first).
  [[nodiscard]] static int week_of_day(int day) noexcept;

  /// Generates, applies, and reports all attacks for one day — a one-day
  /// window of run_days(). Days are independent (seed, day) substreams, so
  /// any day order is valid. Returns the day's NTP attack records.
  std::vector<AttackRecord> run_day(int day);

  /// Runs days [from, to) as independent day shards. With a (multi-job)
  /// `executor`, days simulate in parallel on workers — each buffering its
  /// bus emissions and monitor-table deltas — and merge on the calling
  /// thread in ascending day order, bit-identical to the inline path for
  /// any job count. At K>1 the merge defers the monitor deltas and, once
  /// the window's days are merged, applies each server's deltas in day
  /// order in parallel over server-index ranges; no table is read inside a
  /// window, so the tables end exactly as the inline apply leaves them.
  /// When `scans` is given, each day's scan traffic joins
  /// that day's shard (events ordered after the attack events, matching the
  /// sequential per-day interleave); `darknet_geometry`/`vantage_geometry`
  /// are consulted for geometry only, as in ScanTraffic::run_day.
  void run_days(int from, int to, ShardedExecutor* executor = nullptr,
                ScanTraffic* scans = nullptr,
                const telemetry::DarknetTelescope* darknet_geometry = nullptr,
                const std::vector<telemetry::FlowCollector*>* vantage_geometry =
                    nullptr);

  struct Totals {
    std::uint64_t ntp_attacks = 0;
    std::uint64_t response_packets = 0;
    std::uint64_t response_bytes = 0;
    std::uint64_t unique_victim_count = 0;  ///< filled by unique_victims()
  };
  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }
  [[nodiscard]] std::uint64_t unique_victims() const {
    return victim_ever_.size();
  }
  [[nodiscard]] const std::vector<BooterProfile>& booters() const noexcept {
    return booters_;
  }
  /// Attacks launched per booter so far (index-aligned with booters()).
  [[nodiscard]] const std::vector<std::uint64_t>& attacks_per_booter()
      const noexcept {
    return attacks_per_booter_;
  }
  /// Copies of the scripted §4.4 OVH-event records (one per event day) —
  /// what the victim's CDN "publishes" for cross-dataset validation.
  [[nodiscard]] const std::vector<AttackRecord>& scripted_events()
      const noexcept {
    return scripted_events_;
  }

 private:
  /// Shared constructor body; `sink == nullptr` selects the owned
  /// legacy_sinks_ member (filled in by the legacy public constructor).
  /// The tag keeps `{}` at call sites resolving to the AttackSinks form.
  struct SinkPtr {};
  AttackEngine(World& world, const AttackEngineConfig& config,
               study::EventSink* sink, SinkPtr);

  /// Everything one day shard produced on a worker thread: ground-truth
  /// records (scripted prefix first), buffered bus events, buffered
  /// monitor-table deltas (per amplifier, first-touch order), and the day's
  /// victim picks per booter. consume_day() folds it into the engine and
  /// the world on the calling thread.
  struct DayShardResult {
    int day = 0;
    std::size_t scripted_count = 0;  ///< scripted prefix of `records`
    std::vector<AttackRecord> records;
    study::EventBuffer events;
    std::vector<std::pair<std::uint32_t, ntp::MonitorDelta>> monitor_deltas;
    std::vector<std::vector<net::Ipv4Address>> booter_picks;
  };

  /// Shared inputs every day shard in a window reads; immutable while the
  /// window runs, so workers may read it freely (contract rule 2).
  struct DayWindowPlan {
    int base_week = 0;
    /// Live amplifier pool per week covered by the window.
    std::vector<std::vector<std::uint32_t>> live_pools;
    /// Monitor-table sizes snapshotted at window start (per server index);
    /// day shards estimate non-primed dump sizes from snapshot + their own
    /// same-day additions instead of reading the live tables.
    std::vector<std::uint32_t> monitor_sizes;
    bool wants_flows = false;
    bool wants_labels = false;
  };

  /// Worker-side mutable state for one day (defined in attack.cpp).
  struct DayShard;

  [[nodiscard]] DayWindowPlan make_window_plan(int from, int to) const;
  /// Pure in (seed, day, plan): the worker-side half of a day.
  [[nodiscard]] DayShardResult simulate_day(int day,
                                            const DayWindowPlan& plan) const;
  /// Calling-thread half: applies the deltas it still holds, replays
  /// events, merges state.
  void consume_day(DayShardResult& result);

  std::uint32_t pick_booter(util::Rng& rng) const;
  net::Ipv4Address pick_victim(int day, util::Rng& rng,
                               std::vector<net::Ipv4Address>& booter_targets,
                               bool& end_host, bool& common_pool) const;
  std::uint16_t pick_port(bool end_host, util::Rng& rng) const;
  void pick_amplifiers(int day, bool common_pool, bool primed,
                       const std::vector<std::uint32_t>& live_pool,
                       util::Rng& rng, std::vector<std::uint32_t>& out) const;
  void apply(AttackRecord& rec, int day, const DayWindowPlan& plan,
             DayShard& shard, double min_duration_s = 0.0) const;
  void emit_background_labels(int day, DayShard& shard) const;

  World& world_;
  AttackEngineConfig config_;
  AttackSinks legacy_sinks_;     ///< owned sink backing the legacy ctor
  study::EventSink* sink_;       ///< never null after construction
  ImpairmentLayer impairment_;
  util::Rng rng_;                ///< construction-time draws only
  Totals totals_;

  std::vector<BooterProfile> booters_;
  std::vector<std::uint64_t> attacks_per_booter_;
  std::vector<AttackRecord> scripted_events_;
  util::ZipfSampler booter_zipf_;
  std::vector<net::Ipv4Address> hosting_victims_;  ///< per-hosting-AS picks
  std::vector<net::Ipv4Address> common_victims_;   ///< Merit+FRGP common pool
  std::unordered_map<std::uint32_t, bool> victim_ever_;
  util::ZipfSampler hosting_zipf_;
  std::vector<net::Asn> hosting_ases_;
  util::WeightedSampler port_sampler_;
  std::vector<std::uint16_t> port_values_;
};

/// The Table 4 port mix (port, fraction) the generator draws from.
[[nodiscard]] const std::vector<std::pair<std::uint16_t, double>>&
attacked_port_mix();

}  // namespace gorilla::sim
