// The simulated Internet the measurements run against.
//
// A World owns the synthetic registry, the NTP server population, and the
// per-server vulnerability/remediation traits. It is split into two tiers:
//
//   * population tier — compact ServerTraits for EVERY NTP server; enough
//     for count-level analyses (pool sizes, aggregation levels, continents).
//   * detailed tier — full ntp::NtpServer instances (monitor table + wire
//     protocol) for every ever-monlist-amplifier and for a configurable
//     subsample of version-only responders. Packet-level experiments (the
//     ONP prober, victimology, BAF) run against this tier.
//
// Weekly availability, DHCP churn, and remediation are *deterministic
// functions of (seed, server, week)*, so any experiment can query any week
// without global mutable state and runs reproduce bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "net/pbl.h"
#include "net/registry.h"
#include "ntp/server.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/time.h"

namespace gorilla::sim {

struct WorldConfig {
  std::uint64_t seed = util::Rng::kDefaultSeed;
  /// Linear divisor applied to the paper's population sizes. 10 keeps every
  /// packet-level experiment under laptop-scale memory; 1 is full scale.
  std::uint32_t scale = 10;

  /// Full-scale population parameters (divided by `scale` at build time).
  std::uint64_t total_ntp_servers = 6500000;   ///< ~6M servers (§3.4)
  std::uint64_t version_responders = 5800000;  ///< version census pool (§3.3)
  std::uint64_t ever_amplifiers = 2250000;     ///< ~2.17M unique IPs (§3.1)
  std::uint64_t mega_amplifiers = 10000;       ///< responded >100KB (§3.4)

  /// Fraction of ever-amplifiers that are end hosts (PBL-listed) — Table 1
  /// starts at 18.5%.
  double amplifier_end_host_fraction = 0.185;
  /// Fraction of amplifiers placed as co-addressed "server farm" clusters
  /// that share one management (and thus one remediation draw) — drives the
  /// 22 -> 4 IPs-per-routed-block decline. The default makes every solo
  /// amplifier an end host, matching Table 1's composition (end hosts are
  /// the scattered remainder; infrastructure comes in managed groups).
  double farm_fraction = 0.815;
  /// Mean farm size (geometric).
  double mean_farm_size = 28.0;
  /// Fraction of servers answering the *other* mode 7 implementation number
  /// (invisible to single-implementation scans; Kührer saw ~9% more).
  double other_impl_fraction = 0.09;
  /// Per-scan response probability (availability/churn, §3.1).
  double availability = 0.63;
  /// Global multiplier on remediation hazards — the §6.4 ablation knob.
  /// 1.0 reproduces the paper's curve; 0.0 means nobody ever patches
  /// (the no-community-response counterfactual); values in between model a
  /// world without the CERT notification campaign.
  double remediation_speed = 1.0;
  /// Weekly probability an end-host amplifier is re-addressed by DHCP.
  double dhcp_rehome_rate = 0.25;
  /// Number of version-only responders materialized in the detailed tier.
  /// Sized so the detailed version pool's system-string mix approximates
  /// the full responder population (the amplifier subset is linux-heavy;
  /// the overall pool is cisco-heavy), which Figure 4c's quartiles and
  /// Table 2's all-NTP column both need.
  std::uint64_t detailed_version_subsample = 3600000;

  /// Amplifiers force-placed inside the named regional networks regardless
  /// of scale, so the §7 local-view experiments always have their cast:
  /// 50 at Merit, 9 at CSU, 48 in the rest of FRGP (paper §7.1). These are
  /// absolute counts, not divided by `scale`.
  std::uint32_t merit_amplifiers = 50;
  std::uint32_t csu_amplifiers = 9;
  std::uint32_t frgp_amplifiers = 48;

  /// When true (and registry.num_ases is left at its default), the number
  /// of generated ASes is shrunk by sqrt(scale) so per-block amplifier
  /// density stays in the paper's regime (Table 1's ~22 IPs per routed
  /// block at peak) while AS-level analyses keep enough distinct networks.
  bool auto_scale_registry = true;

  net::RegistryConfig registry;
};

/// Compact per-server population record.
struct ServerTraits {
  net::Ipv4Address home_address;  ///< address at week 0 (pre-churn)
  std::int16_t monlist_fix_week = -1;  ///< sample week monlist dies; -1 never
  std::int16_t version_fix_week = -1;  ///< sample week mode 6 dies; -1 never
  std::uint32_t detailed_index = kNoDetail;  ///< into detailed tier
  bool ever_amplifier = false;
  bool mode6_responder = false;
  bool end_host = false;
  bool dhcp_churn = false;
  bool mega = false;
  bool other_impl = false;  ///< answers only the impl the scan doesn't send

  static constexpr std::uint32_t kNoDetail = 0xffffffff;
};

class World {
 public:
  explicit World(const WorldConfig& config = {});
  ~World();

  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }
  [[nodiscard]] const net::Registry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const net::PolicyBlockList& pbl() const noexcept {
    return pbl_;
  }
  [[nodiscard]] const std::vector<ServerTraits>& servers() const noexcept {
    return traits_;
  }
  /// Indices (into servers()) of the ever-amplifier subset.
  [[nodiscard]] const std::vector<std::uint32_t>& amplifier_indices()
      const noexcept {
    return amplifier_indices_;
  }

  /// Detailed ntpd instance for a server, or nullptr outside the tier.
  [[nodiscard]] ntp::NtpServer* detailed(std::uint32_t server_index);
  [[nodiscard]] const ntp::NtpServer* detailed(std::uint32_t server_index) const;

  /// The server's address during sample week `week` (DHCP churn rehomes end
  /// hosts within their routed block).
  [[nodiscard]] net::Ipv4Address address_at(std::uint32_t server_index,
                                            int week) const;

  /// True when the server answers monlist probes in week `week`:
  /// still vulnerable, not churned away mid-scan, and reachable.
  [[nodiscard]] bool responds_monlist(std::uint32_t server_index,
                                      int week) const;

  /// True when the server answers mode 6 version probes in week `week`.
  [[nodiscard]] bool responds_version(std::uint32_t server_index,
                                      int week) const;

  /// True when a probe sent in week `week` reaches the server at all
  /// (it may still refuse to answer if remediated). Same roll as
  /// responds_monlist's availability component.
  [[nodiscard]] bool reachable(std::uint32_t server_index, int week) const;

  /// True when `addr` falls inside the darknet telescope space.
  [[nodiscard]] bool in_darknet(net::Ipv4Address addr) const noexcept {
    return registry_.named().darknet.contains(addr);
  }

  /// Deterministic per-(server, week, salt) uniform draw in [0,1).
  [[nodiscard]] double stable_uniform(std::uint32_t server_index, int week,
                                      std::uint64_t salt) const noexcept;

  /// Time of the server's most recent ntpd restart before `now` in sample
  /// week `week`. Restarts clear the monitor table, which is what bounds
  /// the monlist observation window (§4.2's ~44 h median). Each server has
  /// a characteristic uptime drawn once; the age since restart is sampled
  /// memorylessly per week.
  [[nodiscard]] util::SimTime last_restart_before(std::uint32_t server_index,
                                                  int week,
                                                  util::SimTime now) const;

  /// Live (still-vulnerable, ignoring availability) amplifier count at week.
  [[nodiscard]] std::uint64_t live_amplifier_count(int week) const;

  /// Server indices of the force-placed regional amplifiers (§7).
  [[nodiscard]] const std::vector<std::uint32_t>& merit_amplifiers()
      const noexcept {
    return merit_amplifiers_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& csu_amplifiers()
      const noexcept {
    return csu_amplifiers_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& frgp_amplifiers()
      const noexcept {
    return frgp_amplifiers_;
  }

 private:
  void build_population(util::Rng& rng);
  void assign_detail_tier(util::Rng& rng);
  /// The detailed tier's server vector, recipes included — reported as the
  /// `sim.detailed` MemStats counter (monitor slabs are `ntp.monitor`).
  [[nodiscard]] std::uint64_t detailed_bytes() const noexcept;

  WorldConfig config_;
  net::Registry registry_;
  net::PolicyBlockList pbl_;
  std::vector<ServerTraits> traits_;
  std::vector<std::uint32_t> amplifier_indices_;
  std::vector<std::uint32_t> merit_amplifiers_;
  std::vector<std::uint32_t> csu_amplifiers_;
  std::vector<std::uint32_t> frgp_amplifiers_;
  /// Backs every detailed server's monitor-table slabs (DESIGN.md §3g).
  /// Declared before detailed_ so the tables die before their storage.
  util::Arena monitor_arena_;
  std::vector<ntp::NtpServer> detailed_;
};

}  // namespace gorilla::sim
