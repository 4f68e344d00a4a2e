#include "common.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/fault.h"
#include "util/mem_stats.h"

namespace gorilla::bench {

namespace {

// Engine diagnostics go to stderr on purpose: stdout is the reproducible
// figure/table artifact and must stay byte-comparable across --jobs values
// and record/replay round-trips. (bench/ sits outside the gorilla_lint
// tree, so steady_clock here needs no wall-clock lint pragma.)
using EngineClock = std::chrono::steady_clock;

double seconds_between(EngineClock::time_point from,
                       EngineClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void print_phase(const char* phase, double seconds) {
  std::fprintf(stderr, "[engine] phase %-12s %8.3fs\n", phase, seconds);
}

/// Strict positive-integer flag parse: rejects non-numeric text, trailing
/// junk, zero, and negatives with a clear message instead of silently
/// clamping (a mistyped `--jobs -4` or `--scale 0x10` should not quietly
/// run something else).
long parse_positive(const char* text, const char* flag, long max_value) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v <= 0 || v > max_value) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (expected an integer in "
                 "[1, %ld])\n",
                 flag, text, max_value);
    std::exit(2);
  }
  return v;
}

/// Strict seed parse: any unsigned 64-bit decimal, 0 included. Rejects
/// empty or non-numeric text, trailing junk, a sign, and out-of-range
/// values (a mistyped `--seed abc` must not quietly run seed 0).
std::uint64_t parse_seed(const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isdigit(static_cast<unsigned char>(text[0]))) {
    std::fprintf(stderr,
                 "invalid value for --seed: '%s' (expected an unsigned "
                 "64-bit decimal integer)\n",
                 text);
    std::exit(2);
  }
  return v;
}

void print_usage(std::FILE* out, const char* program) {
  std::fprintf(out,
               "usage: %s [--scale N] [--seed N] [--quick] [--jobs N]\n"
               "          [--record PATH] [--replay PATH] [--csv DIR]\n"
               "          [--artifact-version 2|3] [--checkpoint WEEKS]\n"
               "          [--resume] [--faults SPEC] [--mem-report]\n",
               program);
}

}  // namespace

Options parse_options(int argc, char** argv, std::uint32_t default_scale) {
  Options opt;
  opt.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      opt.scale = static_cast<std::uint32_t>(
          parse_positive(value("--scale"), "--scale", 1l << 30));
    } else if (arg == "--seed") {
      opt.seed = parse_seed(value("--seed"));
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--csv") {
      opt.csv_dir = value("--csv");
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<int>(parse_positive(value("--jobs"), "--jobs",
                                                 1l << 16));
    } else if (arg == "--record") {
      opt.record = value("--record");
    } else if (arg == "--artifact-version") {
      opt.artifact_version = static_cast<int>(parse_positive(
          value("--artifact-version"), "--artifact-version", 3));
      if (opt.artifact_version < 2) {
        std::fprintf(stderr, "--artifact-version must be 2 or 3 (writers "
                             "emit GORCOLv2 or GORCOLv3; v1 is read-only)\n");
        std::exit(2);
      }
    } else if (arg == "--replay") {
      opt.replay = value("--replay");
    } else if (arg == "--checkpoint") {
      opt.checkpoint_weeks = static_cast<int>(
          parse_positive(value("--checkpoint"), "--checkpoint", 1l << 16));
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--mem-report") {
      opt.mem_report = true;
      // atexit so every bench reports after its last deallocation-free
      // moment, with no per-bench plumbing; stderr keeps stdout stable.
      std::atexit(
          [] { util::MemStats::instance().report(stderr); });
    } else if (arg == "--faults") {
      const char* spec = value("--faults");
      const auto plan = util::FaultPlan::parse(spec);
      if (!plan) {
        std::fprintf(stderr, "invalid --faults spec: '%s'\n", spec);
        std::exit(2);
      }
      util::FaultPlan::install(*plan);
    } else if (arg.rfind("--benchmark", 0) == 0) {
      // google-benchmark flags pass through untouched.
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else {
      // A mistyped flag must not quietly run the default study.
      std::fprintf(stderr, "unknown flag: '%s'\n", arg.c_str());
      print_usage(stderr, argv[0]);
      std::exit(2);
    }
  }
  if (opt.resume && opt.record.empty()) {
    std::fprintf(stderr, "--resume requires --record PATH (the artifact to "
                         "resume from and keep extending)\n");
    std::exit(2);
  }
  if (opt.resume && !opt.replay.empty()) {
    std::fprintf(stderr, "--resume and --replay are mutually exclusive\n");
    std::exit(2);
  }
  return opt;
}

void require_live_run(const Options& opt, const char* why) {
  const char* flag = !opt.replay.empty()   ? "--replay"
                     : opt.resume          ? "--resume"
                     : !opt.record.empty() ? "--record"
                                           : nullptr;
  if (flag == nullptr) return;
  std::fprintf(stderr, "%s is not supported by this bench: %s\n", flag, why);
  std::exit(2);
}

bool maybe_write_csv(const Options& opt, const std::string& name,
                     const util::CsvDocument& doc) {
  if (opt.csv_dir.empty()) return false;
  const std::string path = opt.csv_dir + "/" + name;
  const bool ok = doc.write_file(path);
  std::printf("%s csv artifact: %s\n", ok ? "wrote" : "FAILED to write",
              path.c_str());
  return ok;
}

void print_header(const std::string& figure, const Options& opt) {
  std::printf("%s", util::banner(figure).c_str());
  std::printf(
      "world scale 1:%u (populations divided by %u; counts below are\n"
      "simulated-world counts — multiply by %u for paper-scale numbers),\n"
      "seed %llu\n\n",
      opt.scale, opt.scale, opt.scale,
      static_cast<unsigned long long>(opt.seed));
}

StudyPipeline::StudyPipeline(const Options& opt, bool with_vantages,
                             bool with_darknet)
    : opt_(opt), with_vantages_(with_vantages), with_darknet_(with_darknet) {
  const auto t0 = EngineClock::now();
  world_config.scale = opt.scale;
  world_config.seed = opt.seed;
  world = std::make_unique<sim::World>(world_config);
  census = std::make_unique<core::AmplifierCensus>(world->registry(),
                                                   world->pbl());
  victims = std::make_unique<core::VictimAnalysis>(world->registry(),
                                                   world->pbl());
  // Global collector covers the full horizon; the measured universe is
  // the paper's 71.5 Tbps average divided by the world scale.
  global = std::make_unique<telemetry::GlobalTrafficCollector>(
      181, 71.5e12 / static_cast<double>(opt.scale));
  labels = std::make_unique<telemetry::AttackLabelStore>();
  if (with_vantages) {
    const auto& named = world->registry().named();
    merit = std::make_unique<telemetry::FlowCollector>(
        "Merit", std::vector<net::Prefix>{named.merit_space});
    frgp = std::make_unique<telemetry::FlowCollector>(
        "FRGP", std::vector<net::Prefix>{named.frgp_space});
    csu = std::make_unique<telemetry::FlowCollector>(
        "CSU", std::vector<net::Prefix>{named.csu_space});
  }
  if (with_darknet) {
    telemetry::DarknetConfig cfg;
    cfg.telescope = world->registry().named().darknet;
    darknet = std::make_unique<telemetry::DarknetTelescope>(cfg);
  }
  if (opt.jobs > 1) {
    pool_ = std::make_unique<util::ThreadPool>(opt.jobs);
    executor_ = std::make_unique<sim::ShardedExecutor>(pool_.get());
  }
  print_phase("build-world", seconds_between(t0, EngineClock::now()));
}

StudyPipeline::~StudyPipeline() {
  // Everything between run() returning and the pipeline dying is the
  // bench's own analysis/printing — the third provenance phase.
  if (ran_) print_phase("analyze", seconds_between(run_done_,
                                                   EngineClock::now()));
}

study::StudyHeader StudyPipeline::make_header() const {
  study::StudyHeader header;
  header.kind = 0;
  header.scale = opt_.scale;
  header.seed = opt_.seed;
  header.quick = opt_.quick;
  header.with_vantages = with_vantages_;
  header.with_darknet = with_darknet_;
  header.param_a = opt_.quick ? 8 : 15;  // horizon weeks
  return header;
}

void StudyPipeline::run() {
  const auto t0 = EngineClock::now();
  study::CollectorSink collectors;
  collectors.global = global.get();
  collectors.labels = labels.get();
  collectors.darknet = darknet.get();
  std::vector<telemetry::FlowCollector*> vantages;
  if (with_vantages_) {
    vantages = {merit.get(), frgp.get(), csu.get()};
    collectors.vantages = vantages;
  }
  study::AnalysisSink analyses;
  analyses.census = census.get();
  analyses.victims = victims.get();
  analyses.summaries = &summaries;
  analyses.extra = extra_visitor;

  study::EventBus bus;
  bus.subscribe(&collectors);
  bus.subscribe(&analyses);
  for (study::EventSink* sink : extra_sinks) {
    if (sink != nullptr) bus.subscribe(sink);
  }

  if (darknet && impairment.any()) {
    darknet->set_capture_loss(impairment.request_loss, impairment.seed);
  }

  if (!opt_.replay.empty()) {
    run_replayed(bus);
  } else {
    run_simulated(bus, vantages);
  }
  run_done_ = EngineClock::now();
  ran_ = true;
  print_phase(opt_.replay.empty() ? "run-study" : "replay-study",
              seconds_between(t0, run_done_));
}

int StudyPipeline::resume_prefix_weeks(study::EventBus& bus,
                                       int horizon_weeks) {
  study::Replayer replayer;
  replayer.set_decode_jobs(opt_.jobs);
  study::ReplayReport report;
  if (!replayer.load_prefix(opt_.record, report)) {
    std::fprintf(stderr,
                 "[engine] resume: no usable recording at %s; starting "
                 "fresh\n",
                 opt_.record.c_str());
    return 0;
  }
  if (!(replayer.header() == make_header())) {
    std::fprintf(stderr,
                 "recording %s was made by a different harness shape "
                 "(kind/scale/seed/horizon mismatch); refusing to resume\n",
                 opt_.record.c_str());
    std::exit(2);
  }
  const int usable = std::min(replayer.complete_weeks(), horizon_weeks);
  if (usable <= 0) {
    std::fprintf(stderr,
                 "[engine] resume: %s holds no complete week; starting "
                 "fresh\n",
                 opt_.record.c_str());
    return 0;
  }
  // The bus carries the live consumers AND the fresh Recorder, so this one
  // dispatch both rebuilds the sinks' state and re-encodes the prefix —
  // the final artifact comes out byte-identical to an uninterrupted run.
  if (!replayer.replay_prefix(bus, usable, report)) {
    std::fprintf(stderr, "recording %s failed prefix validation\n",
                 opt_.record.c_str());
    std::exit(2);
  }
  std::fprintf(stderr,
               "[engine] resume: replayed %d complete week(s) "
               "(%llu events) from %s\n",
               report.weeks_complete,
               static_cast<unsigned long long>(report.events),
               opt_.record.c_str());
  return report.weeks_complete;
}

void StudyPipeline::run_simulated(
    study::EventBus& bus,
    const std::vector<telemetry::FlowCollector*>& vantages) {
  study::Recorder recorder(make_header(), opt_.artifact_version);
  const bool recording = !opt_.record.empty();
  if (recording) bus.subscribe(&recorder);

  sim::AttackEngineConfig attack_cfg;
  attack_cfg.seed = opt_.seed ^ 0xa77acdULL;
  attack_cfg.impairment = impairment;
  sim::AttackEngine attacks(*world, attack_cfg, bus);
  sim::ScanTrafficConfig scan_cfg;
  scan_cfg.seed = opt_.seed ^ 0x5ca7ULL;
  scan_cfg.impairment = impairment;
  sim::ScanTraffic scans(*world, scan_cfg);
  scan::Prober prober(*world, net::Ipv4Address(198, 51, 100, 7),
                      ntp::Implementation::kXntpd, impairment,
                      probe_policy);
  prober.set_executor(executor_.get());

  // Attack + scan days fan out as day shards on the executor (buffered
  // events merged in day order — bit-identical for any --jobs value);
  // monitor seeding and the weekly probe sample follow on the same path
  // they always used.
  sim::ScanTraffic* day_scans =
      (with_darknet_ || with_vantages_) ? &scans : nullptr;
  const int horizon_weeks = opt_.quick ? 8 : 15;

  const int start_week =
      opt_.resume ? resume_prefix_weeks(bus, horizon_weeks) : 0;

  int day = 0;
  if (start_week > 0) {
    // Fast-forward the world through the already-replayed weeks. The
    // replay above rebuilt the CONSUMER state; the world's monitor tables
    // and the prober's remediation/window state are producer-side and must
    // be recomputed by re-running those weeks against a discard bus. The
    // discard sink elects every capability, so producers burn exactly the
    // RNG draws the original run did; scans and prober are the same
    // objects the live loop continues with, keeping their cross-week state
    // continuous. (Correctness over speed: resume re-simulates, it just
    // never re-emits.)
    study::EventBus ff_bus;
    study::ConsumeAllSink discard;
    ff_bus.subscribe(&discard);
    sim::AttackEngine ff_attacks(*world, attack_cfg, ff_bus);
    for (int week = 0; week < start_week; ++week) {
      const int sample_day = 70 + week * 7;
      ff_attacks.run_days(day, sample_day + 1, executor_.get(), day_scans,
                          darknet.get(), &vantages);
      day = sample_day + 1;
      scans.seed_monitor_tables(week, executor_.get());
      (void)prober.run_monlist_sample(week, ff_bus);
    }
  }

  for (int week = start_week; week < horizon_weeks; ++week) {
    const int sample_day = 70 + week * 7;
    attacks.run_days(day, sample_day + 1, executor_.get(), day_scans,
                     darknet.get(), &vantages);
    day = sample_day + 1;
    scans.seed_monitor_tables(week, executor_.get());
    (void)prober.run_monlist_sample(week, bus);  // AnalysisSink keeps summary
    if (recording && opt_.checkpoint_weeks > 0 && week + 1 < horizon_weeks &&
        (week + 1) % opt_.checkpoint_weeks == 0) {
      // Durable mid-run snapshot (atomic rename over the --record path).
      // Failure is a warning, not an abort: losing a checkpoint only costs
      // resume granularity, never the run.
      if (recorder.checkpoint(opt_.record)) {
        std::fprintf(stderr, "[engine] checkpoint: %d week(s) durable at %s\n",
                     week + 1, opt_.record.c_str());
      } else {
        std::fprintf(stderr,
                     "[engine] warning: checkpoint at week %d failed "
                     "(continuing)\n",
                     week);
      }
    }
  }

  if (recording) {
    const bool ok = recorder.save(opt_.record);
    std::fprintf(stderr, "[engine] %s study recording: %s\n",
                 ok ? "wrote" : "FAILED to write", opt_.record.c_str());
    if (!ok) std::exit(2);
  }
}

void StudyPipeline::run_replayed(study::EventBus& bus) {
  study::Replayer replayer;
  replayer.set_decode_jobs(opt_.jobs);
  if (!replayer.load(opt_.replay)) {
    std::fprintf(stderr, "failed to load study recording: %s\n",
                 study::Replayer::describe_load_failure(opt_.replay).c_str());
    std::exit(2);
  }
  if (!(replayer.header() == make_header())) {
    std::fprintf(stderr,
                 "study recording %s was made by a different harness shape "
                 "(kind/scale/seed/horizon mismatch); refusing to replay\n",
                 opt_.replay.c_str());
    std::exit(2);
  }
  if (!replayer.replay(bus)) {
    std::fprintf(stderr, "study recording %s is truncated or corrupt\n",
                 opt_.replay.c_str());
    std::exit(2);
  }
}

RegionalRun::RegionalRun(const Options& opt, bool with_darknet)
    : opt_(opt), with_darknet_(with_darknet) {
  const auto t0 = EngineClock::now();
  sim::WorldConfig cfg;
  cfg.scale = opt.scale;
  cfg.seed = opt.seed;
  world = std::make_unique<sim::World>(cfg);
  const auto& named = world->registry().named();
  merit = std::make_unique<telemetry::FlowCollector>(
      "Merit", std::vector<net::Prefix>{named.merit_space});
  frgp = std::make_unique<telemetry::FlowCollector>(
      "FRGP", std::vector<net::Prefix>{named.frgp_space});
  csu = std::make_unique<telemetry::FlowCollector>(
      "CSU", std::vector<net::Prefix>{named.csu_space});
  global = std::make_unique<telemetry::GlobalTrafficCollector>(
      181, 71.5e12 / static_cast<double>(opt.scale));
  labels = std::make_unique<telemetry::AttackLabelStore>();
  if (with_darknet) {
    telemetry::DarknetConfig dcfg;
    dcfg.telescope = named.darknet;
    darknet = std::make_unique<telemetry::DarknetTelescope>(dcfg);
  }
  if (opt.jobs > 1) {
    pool_ = std::make_unique<util::ThreadPool>(opt.jobs);
    executor_ = std::make_unique<sim::ShardedExecutor>(pool_.get());
  }
  print_phase("build-world", seconds_between(t0, EngineClock::now()));
}

RegionalRun::~RegionalRun() {
  if (ran_) print_phase("analyze", seconds_between(run_done_,
                                                   EngineClock::now()));
}

void RegionalRun::run(int from_day, int to_day) {
  if (opt_.resume) {
    // The regional window runs as ONE run_days() fan-out whose per-day
    // monitor-size snapshots are taken at window start; splitting the
    // window would change those snapshots and the output bytes. Refuse
    // rather than resume into a subtly different world.
    std::fprintf(stderr,
                 "--resume is not supported for regional runs (the day "
                 "window is a single shard fan-out); re-run without "
                 "--resume\n");
    std::exit(2);
  }
  const auto t0 = EngineClock::now();
  study::CollectorSink collectors;
  collectors.global = global.get();
  collectors.labels = labels.get();
  collectors.darknet = darknet.get();
  const std::vector<telemetry::FlowCollector*> vantages = {
      merit.get(), frgp.get(), csu.get()};
  collectors.vantages = vantages;
  study::EventBus bus;
  bus.subscribe(&collectors);

  study::StudyHeader header;
  header.kind = 1;
  header.scale = opt_.scale;
  header.seed = opt_.seed;
  header.with_vantages = true;
  header.with_darknet = with_darknet_;
  header.param_a = from_day;
  header.param_b = to_day;

  if (!opt_.replay.empty()) {
    study::Replayer replayer;
    replayer.set_decode_jobs(opt_.jobs);
    if (!replayer.load(opt_.replay)) {
      std::fprintf(stderr, "failed to load study recording: %s\n",
                   study::Replayer::describe_load_failure(opt_.replay).c_str());
      std::exit(2);
    }
    if (!(replayer.header() == header)) {
      std::fprintf(stderr,
                   "study recording %s was made by a different harness shape "
                   "(kind/scale/seed/window mismatch); refusing to replay\n",
                   opt_.replay.c_str());
      std::exit(2);
    }
    if (!replayer.replay(bus)) {
      std::fprintf(stderr, "study recording %s is truncated or corrupt\n",
                   opt_.replay.c_str());
      std::exit(2);
    }
  } else {
    study::Recorder recorder(header, opt_.artifact_version);
    const bool recording = !opt_.record.empty();
    if (recording) bus.subscribe(&recorder);

    sim::AttackEngineConfig attack_cfg;
    attack_cfg.seed = opt_.seed ^ 0xa77acdULL;
    sim::AttackEngine attacks(*world, attack_cfg, bus);
    sim::ScanTrafficConfig scan_cfg;
    scan_cfg.seed = opt_.seed ^ 0x5ca7ULL;
    sim::ScanTraffic scans(*world, scan_cfg);
    // The whole window is one day-shard fan-out (the §7 benches are
    // attack-dominated, so this is where --jobs N pays off).
    attacks.run_days(from_day, to_day, executor_.get(), &scans, darknet.get(),
                     &vantages);
    if (recording) {
      const bool ok = recorder.save(opt_.record);
      std::fprintf(stderr, "[engine] %s study recording: %s\n",
                   ok ? "wrote" : "FAILED to write", opt_.record.c_str());
      if (!ok) std::exit(2);
    }
  }
  run_done_ = EngineClock::now();
  ran_ = true;
  print_phase(opt_.replay.empty() ? "run-study" : "replay-study",
              seconds_between(t0, run_done_));
}

void print_volume_series(const std::string& label,
                         const telemetry::VolumeSeries& series,
                         int row_stride_days) {
  std::printf("%s\n", label.c_str());
  std::printf("  shape: %s\n",
              util::log_sparkline(series.bytes).c_str());
  util::TextTable table({"date", "avg rate", "bytes"});
  const auto buckets_per_day =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   util::kSecondsPerDay /
                                   std::max<util::SimTime>(1,
                                                           series.bucket_seconds)));
  const std::size_t stride =
      buckets_per_day * static_cast<std::size_t>(std::max(1, row_stride_days));
  for (std::size_t b = 0; b < series.bytes.size(); b += stride) {
    // Aggregate one day's buckets for the row.
    double day_bytes = 0.0;
    for (std::size_t k = b; k < std::min(b + buckets_per_day,
                                         series.bytes.size());
         ++k) {
      day_bytes += series.bytes[k];
    }
    const util::SimTime t =
        series.start + static_cast<util::SimTime>(b) * series.bucket_seconds;
    const double bps = day_bytes * 8.0 / static_cast<double>(
                                             util::kSecondsPerDay);
    table.add_row({util::to_string(util::date_from_sim_time(t)),
                   util::si_count(bps) + "bps", util::bytes_str(day_bytes)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace gorilla::bench
