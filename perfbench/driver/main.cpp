// gorilla_perf — one benchmark process: one study shape, one --jobs value,
// one or more passes over it.
//
// The orchestrator (perfbench/run.py) starts one process per (workload,
// --jobs) pass, so each pass has its own peak RSS. A process builds the world
// and sinks bench/common.cpp builds and drives the same public calls:
//
//   live    simulate the study with the recorder on the bus, then save the
//           artifact (StudyPipeline / RegionalRun with --record);
//   replay  load the artifact and dispatch it into the same consumers
//           (--replay);
//   fanout  the gorilla_replay detector, pcap and csv sinks over the
//           artifact, up to --jobs passes at once.
//
// A pass may repeat: each live or replay pass starts on empty consumers over
// the same world, and every repeat must give the same results.
//
// It prints one JSON object on stdout: set-up and pass times, the peak RSS
// after each pass, fingerprints of the results and, with --trace, the
// per-layer accumulators of trace.h.
//
// usage: gorilla_perf --shape study|regional --pass live|replay|fanout
//                     [--pass ...] --artifact PATH --out DIR [--jobs N]
//                     [--seed N] [--attack-seed N] [--scale N] [--quick]
//                     [--trace]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/amplifiers.h"
#include "core/local_view.h"
#include "core/victims.h"
#include "fingerprint.h"
#include "scan/prober.h"
#include "sim/attack.h"
#include "sim/scanner.h"
#include "sim/sharded_executor.h"
#include "sim/world.h"
#include "study/analysis_sink.h"
#include "study/bus.h"
#include "study/collector_sink.h"
#include "study/csv_export_sink.h"
#include "study/detector_sink.h"
#include "study/pcap_export_sink.h"
#include "study/recorder.h"
#include "telemetry/darknet.h"
#include "telemetry/flow.h"
#include "telemetry/traffic.h"
#include "trace.h"
#include "util/columnar.h"
#include "util/mem_stats.h"
#include "util/thread_pool.h"

namespace gorilla::perfbench {
namespace {

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "gorilla_perf: %s\n", message.c_str());
  std::exit(2);
}

long int_arg(const char* text, const char* flag, long lo, long hi) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) {
    die(std::string("invalid value for ") + flag + ": '" + text + "'");
  }
  return v;
}

std::uint64_t u64_arg(const char* text, const char* flag) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    die(std::string("invalid value for ") + flag + ": '" + text + "'");
  }
  return v;
}

struct Args {
  bool regional = false;
  std::vector<std::string> passes;
  std::uint64_t seed = util::Rng::kDefaultSeed;
  /// Seed of the attack schedule; defaults to --seed, as in the figure
  /// programs.
  std::optional<std::uint64_t> attack_seed;
  std::uint32_t scale = 0;  ///< 0 = the shape's figure-program scale
  bool quick = false;
  int jobs = 1;
  std::string artifact;
  std::string out_dir;
  bool trace = false;

  [[nodiscard]] int weeks() const { return quick ? 8 : 15; }
  [[nodiscard]] int from_day() const { return 30; }
  [[nodiscard]] int to_day() const { return quick ? 90 : 121; }

  /// The header StudyPipeline (fig03) or RegionalRun with the darknet
  /// (fig09/fig11) writes for the same knobs.
  [[nodiscard]] study::StudyHeader header() const {
    study::StudyHeader h;
    h.kind = regional ? 1 : 0;
    h.scale = scale;
    h.seed = seed;
    if (regional) {
      h.with_vantages = true;
      h.with_darknet = true;
      h.param_a = from_day();
      h.param_b = to_day();
    } else {
      h.quick = quick;
      h.param_a = weeks();
    }
    return h;
  }
};

Args read_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--shape") {
      const std::string shape = value();
      if (shape != "study" && shape != "regional") {
        die("unknown shape '" + shape + "' (study, regional)");
      }
      args.regional = shape == "regional";
    } else if (arg == "--pass") {
      const std::string pass = value();
      if (pass != "live" && pass != "replay" && pass != "fanout") {
        die("unknown pass '" + pass + "' (live, replay, fanout)");
      }
      args.passes.push_back(pass);
    } else if (arg == "--seed") {
      args.seed = u64_arg(value(), "--seed");
    } else if (arg == "--attack-seed") {
      args.attack_seed = u64_arg(value(), "--attack-seed");
    } else if (arg == "--scale") {
      args.scale = static_cast<std::uint32_t>(
          int_arg(value(), "--scale", 1, 1 << 20));
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--jobs") {
      args.jobs = static_cast<int>(int_arg(value(), "--jobs", 1, 64));
    } else if (arg == "--artifact") {
      args.artifact = value();
    } else if (arg == "--out") {
      args.out_dir = value();
    } else if (arg == "--trace") {
      args.trace = true;
    } else {
      die("unknown argument '" + arg + "'");
    }
  }
  if (args.passes.empty()) die("--pass is required");
  if (args.artifact.empty()) die("--artifact is required");
  if (args.out_dir.empty()) die("--out is required");
  if (args.scale == 0) args.scale = args.regional ? 10 : 40;
  return args;
}

double rss_mb() {
  return static_cast<double>(util::MemStats::peak_rss_bytes()) / 1e6;
}

double gauge_peak_mb(const char* subsystem) {
  return static_cast<double>(
             util::MemStats::instance().counter(subsystem).peak()) /
         1e6;
}

/// The world and the consumer sinks of one study shape — what
/// StudyPipeline's or RegionalRun's constructor builds.
class Study {
 public:
  Study(const Args& args, Trace& trace) : args_(args), trace_(trace) {
    const auto t0 = Clock::now();
    trace_.span("sim.world_build", [&] {
      sim::WorldConfig cfg;
      cfg.scale = args.scale;
      cfg.seed = args.seed;
      world = std::make_unique<sim::World>(cfg);
    });
    make_consumers();
    if (args.jobs > 1) {
      pool_ = std::make_unique<util::ThreadPool>(args.jobs);
      executor_ = std::make_unique<sim::ShardedExecutor>(pool_.get());
    }
    setup_s = seconds_since(t0);
  }
  // analysis.extra and the TimedSinks point back into this object.
  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  /// Builds empty consumers — the collectors and, for the study shape, the
  /// census and victim analysis — releasing the previous ones first, so a
  /// later pass over the same world starts as a fresh process would.
  void make_consumers() {
    census.reset();
    victims.reset();
    global.reset();
    labels.reset();
    merit.reset();
    frgp.reset();
    csu.reset();
    darknet.reset();
    vantages.clear();
    summaries.clear();
    const auto& named = world->registry().named();
    global = std::make_unique<telemetry::GlobalTrafficCollector>(
        181, 71.5e12 / static_cast<double>(args_.scale));
    labels = std::make_unique<telemetry::AttackLabelStore>();
    collectors.global = global.get();
    collectors.labels = labels.get();
    if (args_.regional) {
      merit = std::make_unique<telemetry::FlowCollector>(
          "Merit", std::vector<net::Prefix>{named.merit_space});
      frgp = std::make_unique<telemetry::FlowCollector>(
          "FRGP", std::vector<net::Prefix>{named.frgp_space});
      csu = std::make_unique<telemetry::FlowCollector>(
          "CSU", std::vector<net::Prefix>{named.csu_space});
      telemetry::DarknetConfig dcfg;
      dcfg.telescope = named.darknet;
      darknet = std::make_unique<telemetry::DarknetTelescope>(dcfg);
      vantages = {merit.get(), frgp.get(), csu.get()};
      collectors.vantages = vantages;
      collectors.darknet = darknet.get();
    } else {
      census = std::make_unique<core::AmplifierCensus>(world->registry(),
                                                       world->pbl());
      victims = std::make_unique<core::VictimAnalysis>(world->registry(),
                                                       world->pbl());
      analysis.census = census.get();
      analysis.victims = victims.get();
      analysis.summaries = &summaries;
      // fig03's side count of regional-subset responders per week.
      merit_counts.assign(static_cast<std::size_t>(args_.weeks()), 0);
      frgp_counts.assign(static_cast<std::size_t>(args_.weeks()), 0);
      analysis.extra = [this, spaces = &named](
                           int week, const scan::AmplifierObservation& obs) {
        if (spaces->merit_space.contains(obs.address)) {
          ++merit_counts[static_cast<std::size_t>(week)];
        } else if (spaces->frgp_space.contains(obs.address)) {
          ++frgp_counts[static_cast<std::size_t>(week)];
        }
      };
    }
  }

  /// Subscribes the consumers to `bus` in bench/common.cpp's order,
  /// wrapping each in a TimedSink when tracing.
  void subscribe_consumers(study::EventBus& bus) {
    subscribe(bus, "collectors", collectors);
    if (!args_.regional) subscribe(bus, "analysis", analysis);
  }

  void subscribe(study::EventBus& bus, const std::string& name,
                 study::EventSink& sink) {
    if (!trace_.enabled) {
      bus.subscribe(&sink);
      return;
    }
    timed_.push_back({name, std::make_unique<TimedSink>(sink, trace_)});
    bus.subscribe(timed_.back().second.get());
  }

  /// Moves the wrapped sinks' totals into the trace after a pass: per sink
  /// for the live pass, as one replay-dispatch total for a replay.
  void collect_dispatch(bool live) {
    for (const auto& [name, sink] : timed_) {
      if (!live) {
        trace_.layers["study.replay_dispatch"] += sink->seconds();
        continue;
      }
      trace_.layers["study.dispatch." + name] += sink->seconds();
      trace_.counts["study.dispatch." + name + "_calls"] +=
          static_cast<double>(sink->calls());
      trace_.counts["study.events"] =
          std::max(trace_.counts["study.events"],
                   static_cast<double>(sink->calls()));
    }
    timed_.clear();
  }

  /// Simulates the study shape into `bus` (StudyPipeline::run_simulated
  /// for a fresh run; RegionalRun::run's single day-window fan-out).
  void simulate(study::EventBus& bus) {
    sim::AttackEngineConfig attack_cfg;
    attack_cfg.seed = args_.attack_seed.value_or(args_.seed) ^ 0xa77acdULL;
    sim::AttackEngine attacks(*world, attack_cfg, bus);
    sim::ScanTrafficConfig scan_cfg;
    scan_cfg.seed = args_.seed ^ 0x5ca7ULL;
    sim::ScanTraffic scans(*world, scan_cfg);
    sim::ShardedExecutor* executor = executor_.get();
    if (args_.regional) {
      trace_.span("sim.attack_days", [&] {
        attacks.run_days(args_.from_day(), args_.to_day(), executor, &scans,
                         darknet.get(), &vantages);
      });
    } else {
      scan::Prober prober(*world, net::Ipv4Address(198, 51, 100, 7),
                          ntp::Implementation::kXntpd);
      prober.set_executor(executor);
      int day = 0;
      for (int week = 0; week < args_.weeks(); ++week) {
        const int sample_day = 70 + week * 7;
        trace_.span("sim.attack_days", [&] {
          attacks.run_days(day, sample_day + 1, executor, nullptr,
                           darknet.get(), &vantages);
        });
        day = sample_day + 1;
        trace_.span("sim.seed_tables", [&] {
          scans.seed_monitor_tables(week, executor);
        });
        trace_.span("scan.probe", [&] {
          const auto summary = prober.run_monlist_sample(week, bus);
          trace_.counts["scan.probes_sent"] +=
              static_cast<double>(summary.probes_sent);
          trace_.counts["scan.responders"] +=
              static_cast<double>(summary.responders);
        });
      }
    }
    trace_.counts["sim.ntp_attacks"] =
        static_cast<double>(attacks.totals().ntp_attacks);
    trace_.counts["sim.response_packets"] =
        static_cast<double>(attacks.totals().response_packets);
  }

  /// §7 forensics over every vantage (regional shape only); `timed` puts
  /// it under the core.forensics span.
  void run_forensics(bool timed) {
    if (!args_.regional) return;
    auto body = [&] {
      forensics_fp = Fingerprint{};
      for (const auto* v : vantages) {
        const core::LocalForensics view(*v, world->registry());
        for (const auto& a : view.amplifiers()) {
          forensics_fp.u64(a.address.value());
          forensics_fp.f64(a.baf);
          forensics_fp.u64(a.unique_victims);
          forensics_fp.u64(a.bytes_sent);
        }
        for (const auto& victim : view.victims()) {
          forensics_fp.u64(victim.address.value());
          forensics_fp.u64(victim.asn.value_or(0));
          forensics_fp.text(victim.region);
          forensics_fp.f64(victim.baf);
          forensics_fp.u64(victim.amplifiers);
          forensics_fp.f64(victim.duration_hours);
          forensics_fp.u64(victim.bytes);
        }
        for (const auto& s : view.scanners()) forensics_fp.u64(s.value());
      }
    };
    if (timed) {
      trace_.span("core.forensics", body);
    } else {
      body();
    }
  }

  /// Digests of everything the consumers hold, as "name": "hex" pairs.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  fingerprints() const {
    std::vector<std::pair<std::string, std::string>> out;
    Fingerprint coll;
    for (int day = 0; day < global->horizon_days(); ++day) {
      for (int p = 0; p < telemetry::kProtocolClassCount; ++p) {
        coll.f64(global->bytes(day, static_cast<telemetry::ProtocolClass>(p)));
      }
    }
    for (const auto& a : labels->attacks()) {
      coll.u64(static_cast<std::uint64_t>(a.start));
      coll.u64(static_cast<std::uint64_t>(a.vector));
      coll.f64(a.peak_bps);
    }
    for (const auto* v : vantages) {
      for (const auto& f : v->flows()) {
        coll.u64((std::uint64_t{f.src.value()} << 32) | f.dst.value());
        coll.u64((std::uint64_t{f.src_port} << 32) |
                 (std::uint64_t{f.dst_port} << 16) |
                 (std::uint64_t{f.protocol} << 8) | f.ttl);
        coll.u64(f.packets);
        coll.u64(f.bytes);
        coll.u64(f.payload_bytes);
        coll.u64(static_cast<std::uint64_t>(f.first));
        coll.u64(static_cast<std::uint64_t>(f.last));
      }
    }
    if (darknet) {
      for (const auto& [day, n] : darknet->unique_scanners_per_day()) {
        coll.u64(static_cast<std::uint64_t>(day));
        coll.u64(n);
      }
      coll.u64(darknet->total_packets());
    }
    out.emplace_back("collectors", coll.hex());
    if (args_.regional) {
      out.emplace_back("forensics", forensics_fp.hex());
      return out;
    }
    Fingerprint cen;
    for (const auto& row : census->rows()) {
      cen.u64(static_cast<std::uint64_t>(row.week));
      cen.text(util::to_string(row.date));
      cen.u64(row.ips);
      cen.u64(row.slash24s);
      cen.u64(row.routed_blocks);
      cen.u64(row.asns);
      cen.u64(row.end_hosts);
      cen.u64(row.mega_count);
      cen.f64(row.bytes_median);
      cen.f64(row.bytes_p95);
      cen.f64(row.bytes_max);
    }
    cen.u64(census->unique_ips());
    cen.f64(census->first_sample_fraction());
    cen.f64(census->seen_once_fraction());
    for (const auto n : merit_counts) cen.u64(n);
    for (const auto n : frgp_counts) cen.u64(n);
    for (const auto& s : summaries) {
      cen.u64(s.probes_sent);
      cen.u64(s.responders);
      cen.u64(s.error_replies);
    }
    out.emplace_back("census", cen.hex());
    Fingerprint vic;
    for (const auto& row : victims->rows()) {
      vic.u64(row.ips);
      vic.u64(row.routed_blocks);
      vic.u64(row.asns);
      vic.u64(row.end_hosts);
      vic.f64(row.packets_mean);
      vic.f64(row.packets_median);
      vic.f64(row.packets_p95);
    }
    vic.u64(victims->unique_victims());
    vic.u64(victims->total_packets());
    for (const auto& [asn, packets] : victims->top_victim_ases(20)) {
      vic.u64(asn);
      vic.u64(packets);
    }
    out.emplace_back("victims", vic.hex());
    return out;
  }

  std::unique_ptr<sim::World> world;
  std::unique_ptr<core::AmplifierCensus> census;
  std::unique_ptr<core::VictimAnalysis> victims;
  std::unique_ptr<telemetry::GlobalTrafficCollector> global;
  std::unique_ptr<telemetry::AttackLabelStore> labels;
  std::unique_ptr<telemetry::FlowCollector> merit, frgp, csu;
  std::unique_ptr<telemetry::DarknetTelescope> darknet;
  std::vector<telemetry::FlowCollector*> vantages;
  std::vector<scan::MonlistSampleSummary> summaries;
  std::vector<std::uint64_t> merit_counts, frgp_counts;
  study::CollectorSink collectors;
  study::AnalysisSink analysis;
  Fingerprint forensics_fp;
  double setup_s = 0.0;

 private:
  const Args& args_;
  Trace& trace_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<sim::ShardedExecutor> executor_;
  std::vector<std::pair<std::string, std::unique_ptr<TimedSink>>> timed_;
};

/// Minimal JSON object writer (flat keys, numbers, strings, nesting by
/// raw inserts).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& raw(const std::string& key, const std::string& v) {
    out_ << (first_ ? "" : ", ") << "\"" << key << "\": " << v;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

double file_mb(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n) / 1e6;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Loads the artifact as the replay harness does (strict load) or, for the
/// fan-out, as gorilla_replay does (prefix-tolerant load).
study::Replayer load_artifact(const Args& args, Trace& trace,
                              bool for_fanout) {
  study::Replayer replayer;
  replayer.set_decode_jobs(args.jobs);
  bool ok = false;
  trace.span(for_fanout ? "replay.load" : "study.load", [&] {
    study::ReplayReport report;
    ok = for_fanout ? replayer.load_prefix(args.artifact, report)
                    : replayer.load(args.artifact);
  });
  if (!ok) {
    die("cannot load artifact: " +
        study::Replayer::describe_load_failure(args.artifact));
  }
  if (!(replayer.header() == args.header())) {
    die("artifact " + args.artifact + " was recorded for another shape");
  }
  return replayer;
}

/// Raw (uncompressed) bytes of every archive section — the decode rate's
/// numerator. Read again outside every timed span.
double archive_raw_mb(const std::string& path) {
  const auto archive = util::ColumnArchive::load_file(path);
  if (!archive) return 0.0;
  std::uint64_t raw = 0;
  for (const auto& section : archive->sections) raw += section.raw_len;
  return static_cast<double>(raw) / 1e6;
}

/// The three gorilla_replay backends over one loaded artifact, configured
/// as tools/gorilla_replay configures them for a full replay; up to
/// args.jobs passes at once.
/// Returns the pass seconds that overlapped others: the sum of all pass times
/// minus the critical path (the slowest pass of each concurrent batch).
double fanout(const Args& args, const study::Replayer& replayer,
              Trace& trace) {
  const study::StudyHeader& header = replayer.header();
  const bool is_study = header.kind == 0;
  study::DetectorSinkConfig det_cfg;
  if (is_study) {
    const int weeks = replayer.complete_weeks();
    det_cfg.window_start = 0;
    det_cfg.window_end =
        weeks > 0 ? static_cast<util::SimTime>(70 + (weeks - 1) * 7 + 1) *
                        util::kSecondsPerDay
                  : 0;
  } else {
    det_cfg.window_start =
        static_cast<util::SimTime>(header.param_a) * util::kSecondsPerDay;
    det_cfg.window_end =
        static_cast<util::SimTime>(header.param_b) * util::kSecondsPerDay;
  }
  det_cfg.bucket_seconds = 300;
  det_cfg.detector.floor_bps = 5e6;

  std::filesystem::create_directories(args.out_dir);
  const std::string& dir = args.out_dir;
  study::DetectorSink detector(det_cfg);
  std::ofstream pcap_out(dir + "/attacks.pcap",
                         std::ios::binary | std::ios::trunc);
  study::PcapExportSink pcap(pcap_out, study::PcapExportSinkConfig{});
  std::ofstream csv_global(dir + "/global.csv", std::ios::trunc);
  std::ofstream csv_labels(dir + "/labels.csv", std::ios::trunc);
  std::ofstream csv_summaries(dir + "/summaries.csv", std::ios::trunc);
  study::CsvExportSink csv(&csv_global, &csv_labels, &csv_summaries);

  struct Backend {
    const char* name;
    study::EventSink* sink;
    double seconds = 0.0;
    bool ok = true;
  };
  Backend backends[] = {{"detector", &detector}, {"pcap", &pcap},
                        {"csv", &csv}};
  // Runs on worker threads: failures are recorded, never thrown, so every
  // thread is joined before the sinks go out of scope.
  auto run_pass = [&](Backend& b) {
    const auto t0 = Clock::now();
    try {
      if (is_study) {
        study::ReplayReport report;
        b.ok = replayer.replay_prefix(*b.sink, -1, report);
      } else {
        b.ok = replayer.replay(*b.sink);
      }
    } catch (const std::exception&) {
      b.ok = false;
    }
    b.seconds = seconds_since(t0);
  };
  const std::size_t n = std::size(backends);
  double overlapped = 0.0;
  for (std::size_t next = 0; next < n;) {
    const std::size_t batch =
        std::min<std::size_t>(static_cast<std::size_t>(args.jobs), n - next);
    std::vector<std::thread> threads;
    for (std::size_t j = 1; j < batch; ++j) {
      threads.emplace_back([&, j] { run_pass(backends[next + j]); });
    }
    run_pass(backends[next]);
    for (auto& t : threads) t.join();
    double slowest = 0.0;
    for (std::size_t j = 0; j < batch; ++j) {
      slowest = std::max(slowest, backends[next + j].seconds);
      overlapped += backends[next + j].seconds;
    }
    overlapped -= slowest;
    next += batch;
  }
  detector.finish();
  {
    std::ofstream report(args.out_dir + "/detector.txt",
                         std::ios::binary | std::ios::trunc);
    report << detector.render();
    if (!report.good()) die("failed to write the detector report");
  }
  pcap_out.close();
  csv_global.close();
  csv_labels.close();
  csv_summaries.close();
  for (const auto& b : backends) {
    if (!b.ok) die(std::string("replay pass failed: ") + b.name);
    trace.layers[std::string("replay.") + b.name] += b.seconds;
  }
  if (!pcap.ok() || !csv.ok()) die("fan-out sinks failed to write");
  return overlapped;
}

/// Digests of the files fanout() wrote, read back after the timed pass.
void fingerprint_fanout(const Args& args, Trace& trace,
                        std::vector<std::pair<std::string, std::string>>& fps) {
  Fingerprint det, pcap, csv;
  det.text(slurp(args.out_dir + "/detector.txt"));
  const std::string pcap_bytes = slurp(args.out_dir + "/attacks.pcap");
  pcap.text(pcap_bytes);
  for (const char* name : {"global", "labels", "summaries"}) {
    csv.text(slurp(args.out_dir + "/" + name + ".csv"));
  }
  trace.counts["replay.pcap_bytes"] = static_cast<double>(pcap_bytes.size());
  fps.emplace_back("detector", det.hex());
  fps.emplace_back("pcap", pcap.hex());
  fps.emplace_back("csv", csv.hex());
}

double layer_total(const Trace& trace) {
  double total = 0.0;
  for (const auto& [name, s] : trace.layers) total += s;
  return total;
}

int run(const Args& args) {
  Trace trace;
  trace.enabled = args.trace;
  const auto t_start = Clock::now();
  const bool needs_world =
      std::any_of(args.passes.begin(), args.passes.end(),
                  [](const std::string& p) { return p != "fanout"; });
  std::unique_ptr<Study> study;
  if (needs_world) study = std::make_unique<Study>(args, trace);

  std::vector<std::string> passes;
  std::vector<std::pair<std::string, std::string>> fps;
  std::vector<std::pair<std::string, std::string>> fanout_fps;
  double artifact_mb = 0.0;
  bool consumers_used = false;
  int replays = 0;
  for (const auto& pass : args.passes) {
    // Every pass but the fan-out feeds the consumers; each starts on empty
    // ones, built outside the pass time as set-up builds the first.
    if (pass != "fanout" && std::exchange(consumers_used, true)) {
      study->make_consumers();
    }
    const auto t0 = Clock::now();
    // Seconds the layer spans cover within this pass; the rest of the pass
    // is unattributed.
    double attributed = -layer_total(trace);
    if (pass == "live") {
      study::EventBus bus;
      study->subscribe_consumers(bus);
      study::Recorder recorder(args.header());
      study->subscribe(bus, "recorder", recorder);
      study->simulate(bus);
      study->run_forensics(/*timed=*/true);
      bool saved = false;
      trace.span("study.save", [&] { saved = recorder.save(args.artifact); });
      if (!saved) die("failed to save " + args.artifact);
      study->collect_dispatch(/*live=*/true);
      artifact_mb = file_mb(args.artifact);
    } else if (pass == "replay") {
      study::EventBus bus;
      study->subscribe_consumers(bus);
      const study::Replayer replayer =
          load_artifact(args, trace, /*for_fanout=*/false);
      bool ok = false;
      trace.span("study.decode", [&] { ok = replayer.replay(bus); });
      if (!ok) die("artifact " + args.artifact + " is truncated or corrupt");
      study->collect_dispatch(/*live=*/false);
    } else {
      const study::Replayer replayer =
          load_artifact(args, trace, /*for_fanout=*/true);
      // Concurrent passes overlap; only their critical path is wall time.
      attributed -= fanout(args, replayer, trace);
    }
    const double seconds = seconds_since(t0);
    attributed += layer_total(trace);
    // Result digests are taken outside the pass time. Replay's consumers get
    // the live pass's forensics for the result check. The forensics derive
    // from the vantage flows the collector digest covers, so repeated
    // replays keep the first replay's.
    if (pass == "replay" && replays++ == 0) {
      study->run_forensics(/*timed=*/false);
    }
    // Repeated passes in one process must agree with each other.
    auto& kept = pass == "fanout" ? fanout_fps : fps;
    std::vector<std::pair<std::string, std::string>> pass_fps;
    if (pass == "fanout") {
      fingerprint_fanout(args, trace, pass_fps);
    } else {
      pass_fps = study->fingerprints();
    }
    if (!kept.empty() && pass_fps != kept) {
      die("pass " + std::to_string(passes.size() + 1) + " (" + pass +
          ") disagrees with an earlier pass");
    }
    kept = std::move(pass_fps);
    Json pass_json;
    pass_json.str("pass", pass).num("seconds", seconds).num("rss_mb",
                                                             rss_mb());
    if (args.trace) pass_json.num("attributed_s", attributed);
    passes.push_back(pass_json.done());
  }
  fps.insert(fps.end(), fanout_fps.begin(), fanout_fps.end());

  Json out;
  out.str("shape", args.regional ? "regional" : "study")
      .num("jobs", args.jobs)
      .num("seed", static_cast<double>(args.seed))
      .num("wall_s", seconds_since(t_start));
  if (study) out.num("setup_s", study->setup_s);
  out.num("artifact_mb", artifact_mb);
  {
    std::string list = "[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      list += (i ? ", " : "") + passes[i];
    }
    out.raw("passes", list + "]");
  }
  Json fp_json;
  for (const auto& [name, hex] : fps) fp_json.str(name, hex);
  out.raw("fingerprints", fp_json.done());
  if (study && study->census) {
    // fig03's table columns, for the drift guard.
    std::string rows = "[";
    const auto& census_rows = study->census->rows();
    for (std::size_t i = 0; i < census_rows.size(); ++i) {
      const auto& r = census_rows[i];
      const auto w = static_cast<std::size_t>(r.week);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s[\"%s\", %llu, %llu, %llu, %llu, %llu, %llu]",
                    i ? ", " : "", util::to_short_string(r.date).c_str(),
                    static_cast<unsigned long long>(r.ips),
                    static_cast<unsigned long long>(r.slash24s),
                    static_cast<unsigned long long>(r.routed_blocks),
                    static_cast<unsigned long long>(r.asns),
                    static_cast<unsigned long long>(study->merit_counts[w]),
                    static_cast<unsigned long long>(study->frgp_counts[w]));
      rows += buf;
    }
    out.raw("census_rows", rows + "]");
    out.num("unique_ips", static_cast<double>(study->census->unique_ips()));
  }
  if (args.trace) {
    if (std::find(args.passes.begin(), args.passes.end(), "replay") !=
        args.passes.end()) {
      const double decode_s = trace.layers["study.decode"];
      if (decode_s > 0) {
        trace.counts["study.decode_mb_per_s"] =
            archive_raw_mb(args.artifact) / decode_s;
      }
    }
    trace.counts["ntp.monitor_peak_mb"] = gauge_peak_mb("ntp.monitor");
    trace.counts["study.recorder_peak_mb"] = gauge_peak_mb("study.recorder");
    Json layers, counts;
    for (const auto& [name, s] : trace.layers) layers.num(name + "_s", s);
    for (const auto& [name, v] : trace.counts) counts.num(name, v);
    out.raw("layers", layers.done());
    out.raw("counts", counts.done());
  }
  std::printf("%s\n", out.done().c_str());
  std::fflush(stdout);
  // Skip tearing down a world of millions of objects: it adds seconds to
  // every process and measures nothing.
  std::_Exit(0);
}

}  // namespace
}  // namespace gorilla::perfbench

int main(int argc, char** argv) {
  return gorilla::perfbench::run(gorilla::perfbench::read_args(argc, argv));
}
