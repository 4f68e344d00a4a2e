// ShardedExecutor unit contract (fixed shard boundaries, ordered merge,
// inline fallback) plus the determinism-merge acceptance test: a full
// StudyPipeline run — bus observables and every monitor table — is
// bit-identical for K ∈ {1, 2, 7} worker threads and across two
// consecutive runs at the same K.
#include "sim/sharded_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "sim/scanner.h"
#include "sim/world.h"
#include "telemetry/flow.h"
#include "util/thread_pool.h"
#include "util/time.h"

namespace gorilla::sim {
namespace {

TEST(ShardedExecutorTest, NullPoolMeansOneJob) {
  ShardedExecutor inline_exec(nullptr);
  EXPECT_EQ(inline_exec.jobs(), 1);
  util::ThreadPool pool(3);
  ShardedExecutor exec(&pool);
  EXPECT_EQ(exec.jobs(), 3);
}

TEST(ShardedExecutorTest, ShardBoundariesDependOnlyOnSizeAndChunk) {
  // Record the (begin, end) ranges produce() sees; they must tile [0, n)
  // in fixed chunks regardless of worker count.
  const auto ranges_for = [](ShardedExecutor& exec) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::mutex mu;
    exec.run_ordered(
        10, 3,
        [&mu, &ranges](std::size_t b, std::size_t e) {
          const std::lock_guard<std::mutex> lock(mu);
          ranges.emplace_back(b, e);
          return b;
        },
        [](std::size_t) {});
    return ranges;
  };

  ShardedExecutor inline_exec(nullptr);
  auto inline_ranges = ranges_for(inline_exec);
  const std::vector<std::pair<std::size_t, std::size_t>> want = {
      {0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(inline_ranges, want);

  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  auto pooled = ranges_for(exec);
  std::sort(pooled.begin(), pooled.end());  // workers race; set must match
  EXPECT_EQ(pooled, want);
}

TEST(ShardedExecutorTest, ConsumeSeesAscendingShardOrder) {
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  std::vector<std::size_t> consumed;
  exec.run_ordered(
      1000, 7, [](std::size_t b, std::size_t e) { return std::make_pair(b, e); },
      [&consumed](std::pair<std::size_t, std::size_t> r) {
        consumed.push_back(r.first);
        consumed.push_back(r.second);
      });
  // Consumed boundaries must be the canonical ascending tiling.
  ASSERT_FALSE(consumed.empty());
  EXPECT_EQ(consumed.front(), 0u);
  EXPECT_EQ(consumed.back(), 1000u);
  for (std::size_t i = 2; i + 1 < consumed.size(); i += 2) {
    EXPECT_EQ(consumed[i], consumed[i - 1]);  // contiguous
    EXPECT_LT(consumed[i], consumed[i + 1]);  // ascending
  }
}

TEST(ShardedExecutorTest, ProduceRunsOnWorkersConsumeOnCaller) {
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  std::mutex mu;
  std::set<std::thread::id> producer_threads;
  std::set<std::thread::id> consumer_threads;
  exec.run_ordered(
      64, 4,
      [&mu, &producer_threads](std::size_t b, std::size_t) {
        const std::lock_guard<std::mutex> lock(mu);
        producer_threads.insert(std::this_thread::get_id());
        return b;
      },
      [&mu, &consumer_threads](std::size_t) {
        const std::lock_guard<std::mutex> lock(mu);
        consumer_threads.insert(std::this_thread::get_id());
      });
  EXPECT_EQ(producer_threads.count(std::this_thread::get_id()), 0u);
  EXPECT_EQ(consumer_threads.size(), 1u);
  EXPECT_EQ(consumer_threads.count(std::this_thread::get_id()), 1u);
}

TEST(ShardedExecutorTest, ZeroChunkSizeMeansSingletonShards) {
  ShardedExecutor exec(nullptr);
  int produced = 0;
  exec.run_ordered(
      5, 0, [&produced](std::size_t b, std::size_t e) {
        ++produced;
        EXPECT_EQ(e, b + 1);
        return 0;
      },
      [](int) {});
  EXPECT_EQ(produced, 5);
}

TEST(ShardedExecutorTest, EmptyRangeProducesNothing) {
  util::ThreadPool pool(2);
  ShardedExecutor exec(&pool);
  int calls = 0;
  exec.run_ordered(
      0, 16, [&calls](std::size_t, std::size_t) { return ++calls; },
      [&calls](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ShardedExecutorTest, ProduceExceptionRethrowsOnCaller) {
  util::ThreadPool pool(3);
  ShardedExecutor exec(&pool);
  EXPECT_THROW(
      exec.run_ordered(
          100, 10,
          [](std::size_t b, std::size_t) -> int {
            if (b == 50) throw std::runtime_error("shard 5 failed");
            return 0;
          },
          [](int) {}),
      std::runtime_error);
}

TEST(ShardedExecutorTest, ExceptionDrainsInFlightShardsBeforeRethrow) {
  // Regression: run_ordered must wait for every in-flight produce before
  // rethrowing. If it rethrew immediately, still-running workers would keep
  // touching this frame's counters (and, at real call sites, the produce
  // lambda's captures) after the caller's stack unwound — a use-after-scope
  // the TSan/ASan presets in scripts/check.sh would flag here.
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  EXPECT_THROW(
      exec.run_ordered(
          64, 1,
          [&started, &finished](std::size_t b, std::size_t) -> int {
            started.fetch_add(1);
            if (b == 0) {
              finished.fetch_add(1);
              throw std::runtime_error("shard 0 failed");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            finished.fetch_add(1);
            return 0;
          },
          [](int) {}),
      std::runtime_error);
  // By the time the exception reached us, every shard that started had
  // finished — nothing still runs against a dead stack frame.
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_GE(started.load(), 1);
}

TEST(ShardedExecutorTest, ParallelForCoversDisjointShards) {
  const std::size_t n = 10'000;
  const auto run_with = [n](ShardedExecutor& exec) {
    std::vector<std::uint32_t> out(n, 0);
    exec.parallel_for(n, 64, [&out](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        out[i] = static_cast<std::uint32_t>(i * 2654435761u);
      }
    });
    return out;
  };
  ShardedExecutor inline_exec(nullptr);
  util::ThreadPool pool(7);
  ShardedExecutor exec(&pool);
  EXPECT_EQ(run_with(inline_exec), run_with(exec));
}

TEST(ShardedExecutorTest, ParallelForExceptionRethrows) {
  util::ThreadPool pool(2);
  ShardedExecutor exec(&pool);
  EXPECT_THROW(exec.parallel_for(10, 1,
                                 [](std::size_t b, std::size_t) {
                                   if (b == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

// --- Full-pipeline determinism: the acceptance test for the engine. ---

/// FNV-1a over every observable the pipeline's sinks accumulate. Two runs
/// with identical streams hash identically; any reordering, dropped event,
/// or float-accumulation divergence changes it.
struct Fingerprint {
  std::uint64_t hash = 1469598103934665603ULL;
  std::uint64_t items = 0;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
    ++items;
  }
  void mix_double(double d) { mix(std::bit_cast<std::uint64_t>(d)); }

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

void mix_flows(Fingerprint& fp, const telemetry::FlowCollector& vantage) {
  fp.mix(vantage.flows().size());
  for (const auto& f : vantage.flows()) {
    fp.mix(f.src.value());
    fp.mix(f.dst.value());
    fp.mix(f.src_port);
    fp.mix(f.dst_port);
    fp.mix(f.protocol);
    fp.mix(f.ttl);
    fp.mix(f.packets);
    fp.mix(f.bytes);
    fp.mix(f.payload_bytes);
    fp.mix(static_cast<std::uint64_t>(f.first));
    fp.mix(static_cast<std::uint64_t>(f.last));
  }
}

/// Every detailed server's monitor table as a dump at `now`. The tables are
/// the one observable the K>1 engine writes after the ordered merge
/// (seeding chunks, the deferred attack-day apply), so a wrong per-table
/// write order shows here even when every bus event matches.
void mix_monitor_tables(Fingerprint& fp, const World& world,
                        util::SimTime now) {
  for (const auto ai : world.amplifier_indices()) {
    const auto* server = world.detailed(ai);
    if (server == nullptr) continue;
    const auto entries =
        server->monitor().dump(now, world.servers()[ai].home_address);
    fp.mix((std::uint64_t{ai} << 32) | entries.size());
    for (const auto& e : entries) {
      fp.mix(e.address.value());
      fp.mix((std::uint64_t{e.avg_interval} << 32) | e.last_seen);
      fp.mix(e.count);
      fp.mix((std::uint64_t{e.port} << 16) | (std::uint64_t{e.mode} << 8) |
             e.version);
    }
  }
}

/// A time after every simulated day, so no dump age clamps to 0.
constexpr util::SimTime kDumpTime = 400 * util::kSecondsPerDay;

Fingerprint run_pipeline(int jobs) {
  bench::Options opt;
  opt.scale = 400;
  opt.quick = true;
  opt.jobs = jobs;
  bench::StudyPipeline pipeline(opt, /*with_vantages=*/true,
                                /*with_darknet=*/true);
  pipeline.run();

  Fingerprint fp;
  fp.mix(pipeline.summaries.size());
  for (const auto& s : pipeline.summaries) {
    fp.mix(static_cast<std::uint64_t>(s.week));
    fp.mix(static_cast<std::uint64_t>(util::days_from_civil(s.date)));
    fp.mix(s.probes_sent);
    fp.mix(s.responders);
    fp.mix(s.error_replies);
    fp.mix(s.probes_lost);
    fp.mix(s.retries);
    fp.mix(s.truncated_tables);
    fp.mix(s.rate_limited);
  }
  for (int day = 0; day < pipeline.global->horizon_days(); ++day) {
    for (int p = 0; p < 5; ++p) {
      fp.mix_double(pipeline.global->bytes(
          day, static_cast<telemetry::ProtocolClass>(p)));
    }
  }
  fp.mix(pipeline.labels->attacks().size());
  for (const auto& a : pipeline.labels->attacks()) {
    fp.mix(static_cast<std::uint64_t>(a.start));
    fp.mix(static_cast<std::uint64_t>(a.vector));
    fp.mix_double(a.peak_bps);
  }
  mix_flows(fp, *pipeline.merit);
  mix_flows(fp, *pipeline.frgp);
  mix_flows(fp, *pipeline.csu);
  fp.mix(pipeline.darknet->total_packets());
  for (const auto& [day, scanners] : pipeline.darknet->unique_scanners_per_day()) {
    fp.mix(static_cast<std::uint64_t>(day));
    fp.mix(scanners);
  }
  mix_monitor_tables(fp, *pipeline.world, kDumpTime);
  return fp;
}

TEST(ShardedPipelineTest, ByteIdenticalAcrossShardCounts) {
  const Fingerprint k1 = run_pipeline(1);
  EXPECT_GT(k1.items, 0u);
  const Fingerprint k2 = run_pipeline(2);
  const Fingerprint k7 = run_pipeline(7);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1, k7);
}

TEST(ShardedPipelineTest, RepeatedRunsAtSameShardCountAgree) {
  EXPECT_EQ(run_pipeline(7), run_pipeline(7));
}

// --- Attack-day shards: the §3d pin for AttackEngine::run_days. ---

/// Runs the peak-fortnight attack window (attacks + scans, darknet and all
/// three vantages) through AttackEngine::run_days on a K-job executor and
/// fingerprints every downstream observable. RegionalRun is a thin harness
/// over AttackEngine + ScanTraffic — no prober, so any divergence here is
/// the day-shard path itself.
Fingerprint run_attack_window(int jobs) {
  bench::Options opt;
  opt.scale = 400;
  opt.jobs = jobs;
  bench::RegionalRun run(opt, /*with_darknet=*/true);
  run.run(95, 109);

  Fingerprint fp;
  for (int day = 0; day < run.global->horizon_days(); ++day) {
    for (int p = 0; p < 5; ++p) {
      fp.mix_double(
          run.global->bytes(day, static_cast<telemetry::ProtocolClass>(p)));
    }
  }
  fp.mix(run.labels->attacks().size());
  for (const auto& a : run.labels->attacks()) {
    fp.mix(static_cast<std::uint64_t>(a.start));
    fp.mix(static_cast<std::uint64_t>(a.vector));
    fp.mix_double(a.peak_bps);
  }
  mix_flows(fp, *run.merit);
  mix_flows(fp, *run.frgp);
  mix_flows(fp, *run.csu);
  fp.mix(run.darknet->total_packets());
  for (const auto& [day, scanners] : run.darknet->unique_scanners_per_day()) {
    fp.mix(static_cast<std::uint64_t>(day));
    fp.mix(scanners);
  }
  mix_monitor_tables(fp, *run.world, kDumpTime);
  return fp;
}

TEST(ShardedPipelineTest, AttackDayShardsByteIdenticalAcrossJobCounts) {
  const Fingerprint k1 = run_attack_window(1);
  EXPECT_GT(k1.items, 0u);
  EXPECT_EQ(k1, run_attack_window(2));
  EXPECT_EQ(k1, run_attack_window(7));
}

TEST(ShardedPipelineTest, AttackDayShardsStableAcrossRepeatRuns) {
  EXPECT_EQ(run_attack_window(7), run_attack_window(7));
}

// --- Checkpointed seeding: chunks resume the week's stream mid-walk. ---
/// Seeds weeks 0-2 into a fresh 1:400 world on a K-job executor and
/// fingerprints every detailed table after each week.
Fingerprint seed_weeks(int jobs) {
  WorldConfig world_cfg;
  world_cfg.scale = 400;
  World world(world_cfg);
  // Several 256-slot chunks, so most chunks start from a checkpoint.
  EXPECT_GT(world.amplifier_indices().size(), 4u * 256u);
  ScanTraffic scans(world, ScanTrafficConfig{});
  std::unique_ptr<util::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<util::ThreadPool>(jobs);
  ShardedExecutor exec(pool.get());
  Fingerprint fp;
  for (int week = 0; week < 3; ++week) {
    scans.seed_monitor_tables(week, &exec);
    mix_monitor_tables(fp, world, kDumpTime);
  }
  return fp;
}

TEST(ShardedPipelineTest, SeedingCheckpointsMatchInline) {
  const Fingerprint k1 = seed_weeks(1);
  EXPECT_GT(k1.items, 1000u);
  EXPECT_EQ(k1, seed_weeks(4));
  EXPECT_EQ(k1, seed_weeks(7));
}

}  // namespace
}  // namespace gorilla::sim
