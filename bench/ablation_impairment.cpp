// Ablation: are the paper's headline numbers robust to a lossy data plane?
//
// The ONP scans ran over the real Internet — probes vanished, monlist dumps
// arrived with missing segments, and later ntpd builds rate-limited mode 7.
// The §3 conclusions (a ~1.6M-amplifier pool collapsing ~92% over fifteen
// weeks, monlist BAFs in the hundreds) implicitly assume that measurement
// loss does not distort those numbers. This bench sweeps the impairment
// layer's loss rate over full study pipelines — identical worlds, identical
// seeds, only the network differs — and reports how the headline figures
// move. The zero-loss row is bit-for-bit the seed pipeline; each lossy row
// is itself deterministic, so any cell can be replayed exactly.
#include <cstdio>

#include "common.h"

namespace gorilla {
namespace {

struct Outcome {
  std::uint64_t pool_first = 0;
  std::uint64_t pool_last = 0;
  double reduction_pct = 0.0;
  double baf_median = 0.0;
  std::uint64_t probes_lost = 0;
  std::uint64_t retries = 0;
  std::uint64_t partial_tables = 0;
  std::uint64_t rate_limited = 0;
};

Outcome run_study(const bench::Options& opt, double loss) {
  bench::StudyPipeline pipeline(opt);
  pipeline.impairment.seed = opt.seed ^ 0x1097a11ULL;
  pipeline.impairment.request_loss = loss;
  pipeline.impairment.transient_silence_rate = loss / 2.0;
  pipeline.impairment.response_packet_loss = loss;
  pipeline.impairment.response_truncate_rate = loss / 4.0;
  if (loss > 0.0) {
    // A slice of the pool deploys interim rate limiting, as Merit did (§7.1).
    pipeline.impairment.rate_limiter_fraction = 0.02;
    pipeline.impairment.rate_limit_per_window = 4;
  }
  pipeline.run();

  Outcome out;
  const auto& rows = pipeline.census->rows();
  out.pool_first = rows.front().ips;
  out.pool_last = rows.back().ips;
  out.reduction_pct =
      out.pool_first
          ? 100.0 * (1.0 - static_cast<double>(out.pool_last) /
                               static_cast<double>(out.pool_first))
          : 0.0;
  out.baf_median = rows.front().baf.median;
  for (const auto& row : rows) out.partial_tables += row.partial_tables;
  for (const auto& s : pipeline.summaries) {
    out.probes_lost += s.probes_lost;
    out.retries += s.retries;
    out.rate_limited += s.rate_limited;
  }
  return out;
}

int run(const bench::Options& opt) {
  bench::print_header(
      "Ablation: figure robustness under network impairment", opt);

  const double losses[] = {0.0, 0.01, 0.05, 0.10, 0.20};
  util::TextTable table({"loss rate", "pool first", "pool last",
                         "reduction", "BAF med (w0)", "lost", "retries",
                         "partial", "rate-ltd"});
  Outcome clean{};
  for (const double loss : losses) {
    const auto o = run_study(opt, loss);
    if (loss == 0.0) clean = o;
    char loss_label[16];
    std::snprintf(loss_label, sizeof loss_label, "%.0f%%", loss * 100.0);
    char reduction[16];
    std::snprintf(reduction, sizeof reduction, "%.1f%%", o.reduction_pct);
    char baf[24];
    std::snprintf(baf, sizeof baf, "%.0fx", o.baf_median);
    table.add_row({loss_label, std::to_string(o.pool_first),
                   std::to_string(o.pool_last), reduction, baf,
                   std::to_string(o.probes_lost), std::to_string(o.retries),
                   std::to_string(o.partial_tables),
                   std::to_string(o.rate_limited)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "reading: the 0%% row is the pristine seed pipeline (new counters all\n"
      "zero). With retries riding out transient loss, the measured pool and\n"
      "its ~%.0f%% collapse stay nearly flat through 10%% loss; the BAF\n"
      "median drifts down only as packet loss thins the biggest dumps\n"
      "(partial tables). rate-ltd stays zero: the weekly one-probe-per-\n"
      "target cadence never exhausts a per-window budget — limiters only\n"
      "bite under targeted re-probing (see the prober tests). The paper's\n"
      "conclusions do not hinge on a clean measurement path — which is\n"
      "good, because it did not have one.\n",
      clean.reduction_pct);
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  const auto opt = gorilla::bench::parse_options(argc, argv, 80);
  gorilla::bench::require_live_run(
      opt,
      "it runs one study per loss rate, and an artifact holds one study");
  return gorilla::run(opt);
}
