// Out-of-program instruments for the traced benchmark run.
//
// Nothing here reaches inside the libraries: a layer is timed by a span
// around its public call, and every bus sink is wrapped in a TimedSink that
// forwards each event and times it. Spans subtract the sink time that
// accrued while they were open, so a layer's number is its self time and the
// layer times add up without counting dispatch twice.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "study/events.h"

namespace gorilla::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Per-layer accumulators of one traced process. When `enabled` is false the
/// spans still run their body but record nothing, and no sink is wrapped.
struct Trace {
  bool enabled = false;
  /// Total seconds spent inside every TimedSink so far.
  double sink_seconds = 0.0;
  std::map<std::string, double> layers;  ///< layer name -> self seconds
  std::map<std::string, double> counts;  ///< counter name -> value

  /// Runs `body`, adding its self time (wall minus nested sink time) to
  /// `layer`.
  template <class Body>
  void span(const std::string& layer, Body&& body) {
    if (!enabled) {
      std::forward<Body>(body)();
      return;
    }
    const double sinks_before = sink_seconds;
    const auto t0 = Clock::now();
    std::forward<Body>(body)();
    layers[layer] += seconds_since(t0) - (sink_seconds - sinks_before);
  }
};

/// Forwards every event to `inner` and times it. Capabilities are forwarded
/// unchanged, so producers make exactly the RNG draws they make unwrapped.
/// Sinks are only ever called on the thread that drives the bus (shard
/// results merge on the calling thread), so plain accumulators suffice.
class TimedSink final : public study::EventSink {
 public:
  TimedSink(study::EventSink& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  [[nodiscard]] bool wants_flows() const override {
    return inner_.wants_flows();
  }
  [[nodiscard]] bool wants_labels() const override {
    return inner_.wants_labels();
  }

  void on_global_bytes(int day, telemetry::ProtocolClass p,
                       double bytes) override {
    Timer t(*this);
    inner_.on_global_bytes(day, p, bytes);
  }
  void on_attack_label(const telemetry::LabeledAttack& label) override {
    Timer t(*this);
    inner_.on_attack_label(label);
  }
  void on_flow(const telemetry::FlowRecord& flow, int vantage) override {
    Timer t(*this);
    inner_.on_flow(flow, vantage);
  }
  void on_darknet_scan(net::Ipv4Address scanner, int day,
                       std::uint64_t packets, bool benign) override {
    Timer t(*this);
    inner_.on_darknet_scan(scanner, day, packets, benign);
  }
  void on_sample_begin(int week, const util::Date& date) override {
    Timer t(*this);
    inner_.on_sample_begin(week, date);
  }
  void on_probe_observation(int week,
                            const scan::AmplifierObservation& obs) override {
    Timer t(*this);
    inner_.on_probe_observation(week, obs);
  }
  void on_monlist_summary(const scan::MonlistSampleSummary& summary) override {
    Timer t(*this);
    inner_.on_monlist_summary(summary);
  }
  void on_sample_end(int week) override {
    Timer t(*this);
    inner_.on_sample_end(week);
  }

  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }

 private:
  struct Timer {
    explicit Timer(TimedSink& sink) : sink_(sink), t0_(Clock::now()) {}
    ~Timer() {
      const double s = seconds_since(t0_);
      sink_.seconds_ += s;
      sink_.trace_.sink_seconds += s;
      ++sink_.calls_;
    }
    TimedSink& sink_;
    Clock::time_point t0_;
  };

  study::EventSink& inner_;
  Trace& trace_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
};

}  // namespace gorilla::perfbench
