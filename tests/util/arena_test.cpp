#include "util/arena.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/mem_stats.h"

namespace gorilla::util {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(nullptr, 1024);
  auto* a = static_cast<std::uint8_t*>(arena.allocate(100, 8));
  auto* b = static_cast<std::uint8_t*>(arena.allocate(100, 8));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  // Disjoint: writing one range never disturbs the other.
  for (int i = 0; i < 100; ++i) a[i] = 0xaa;
  for (int i = 0; i < 100; ++i) b[i] = 0x55;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a[i], 0xaa);
}

TEST(ArenaTest, RefillsOnBlockExhaustionAndHonorsOversize) {
  Arena arena(nullptr, 256);
  EXPECT_EQ(arena.block_count(), 0u);
  (void)arena.allocate(200, 8);
  EXPECT_EQ(arena.block_count(), 1u);
  (void)arena.allocate(200, 8);  // does not fit the remainder
  EXPECT_EQ(arena.block_count(), 2u);
  // An oversize request gets its own dedicated block.
  (void)arena.allocate(10000, 8);
  EXPECT_EQ(arena.block_count(), 3u);
  EXPECT_GE(arena.allocated_bytes(), 256u + 256u + 10000u);
}

TEST(ArenaTest, AllocateArrayValueInitializes) {
  Arena arena;
  const std::uint64_t* xs = arena.allocate_array<std::uint64_t>(512);
  for (int i = 0; i < 512; ++i) EXPECT_EQ(xs[i], 0u);
}

TEST(ArenaTest, ChargesAndReleasesStatsCounter) {
  MemStats::Counter counter;
  {
    Arena arena(&counter, 4096);
    (void)arena.allocate(100, 8);
    EXPECT_EQ(counter.live(), arena.allocated_bytes());
    EXPECT_GE(counter.peak(), counter.live());
  }
  EXPECT_EQ(counter.live(), 0u);  // destruction returns every block
  EXPECT_GE(counter.peak(), 4096u);
}

TEST(ArenaTest, RecycledBlockIsReusedExactSize) {
  Arena arena(nullptr, 4096);
  void* a = arena.allocate(96, 8);
  (void)arena.allocate(96, 8);  // keeps `a` off the bump frontier
  const std::size_t before = arena.allocated_bytes();
  arena.recycle(a, 96);
  void* b = arena.allocate(96, 8);
  EXPECT_EQ(b, a);  // served from the free list, not the bump pointer
  EXPECT_EQ(arena.allocated_bytes(), before);
}

TEST(ArenaTest, BestFitSplitsLargerFreeBlock) {
  Arena arena(nullptr, 4096);
  void* big = arena.allocate(256, 8);
  (void)arena.allocate(16, 8);
  arena.recycle(big, 256);
  // No exact 64-class block exists: the 256 splits, front first.
  void* head = arena.allocate(64, 8);
  EXPECT_EQ(head, big);
  // The 192-byte remainder went back on a free list and serves the next
  // fits-inside request.
  void* tail = arena.allocate(192, 8);
  EXPECT_EQ(tail, static_cast<std::byte*>(big) + 64);
}

TEST(ArenaTest, RecycledStorageIsReinitializedByAllocateArray) {
  Arena arena;
  std::uint64_t* xs = arena.allocate_array<std::uint64_t>(32);
  for (int i = 0; i < 32; ++i) xs[i] = 0xdeadbeefu;
  arena.recycle_array(xs, 32);
  const std::uint64_t* ys = arena.allocate_array<std::uint64_t>(32);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ys[i], 0u);
}

TEST(ArenaTest, RequestCounterTracksOutstandingBytes) {
  MemStats::Counter blocks;
  MemStats::Counter requests;
  {
    Arena arena(&blocks, 4096, &requests);
    void* a = arena.allocate(100, 8);  // canonical 112
    EXPECT_EQ(requests.live(), 112u);
    arena.recycle(a, 100);
    EXPECT_EQ(requests.live(), 0u);
    (void)arena.allocate(32, 8);
    EXPECT_EQ(requests.live(), 32u);
    EXPECT_EQ(blocks.live(), 4096u);  // block counter is coarser
  }
  // Destruction returns blocks and zeroes any outstanding requests.
  EXPECT_EQ(blocks.live(), 0u);
  EXPECT_EQ(requests.live(), 0u);
}

TEST(ArenaTest, ConcurrentAllocationsDoNotOverlap) {
  Arena arena(nullptr, 1 << 16);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::uint32_t*> ptrs(kThreads * kPerThread);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::uint32_t* p = arena.allocate_array<std::uint32_t>(16);
        p[0] = static_cast<std::uint32_t>(t * kPerThread + i);
        ptrs[static_cast<std::size_t>(t * kPerThread + i)] = p;
      }
    });
  }
  for (auto& w : workers) w.join();
  // Every slot still holds its writer's tag => no two allocations aliased.
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    ASSERT_NE(ptrs[i], nullptr);
    EXPECT_EQ(ptrs[i][0], static_cast<std::uint32_t>(i));
  }
}

TEST(ArenaTest, CrossThreadRecycleAndReuseKeepAccountingExact) {
  // Storage allocated on one set of threads is recycled and reused on
  // another: each thread works in its own shard, so recycled storage must
  // land on the recycling thread's free lists, serve its next requests
  // without new blocks, and leave every counter exact.
  MemStats::Counter blocks;
  MemStats::Counter requests;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  constexpr std::size_t kBytes = 96;
  const auto total = static_cast<std::size_t>(kThreads * kPerThread);
  {
    Arena arena(&blocks, 4096, &requests);
    std::vector<std::uint32_t*> ptrs(total);
    const auto on_threads = [&](auto body) {
      std::vector<std::thread> workers;
      workers.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) workers.emplace_back(body, t);
      for (auto& w : workers) w.join();
    };
    const auto slot = [](int t, int i) {
      return static_cast<std::size_t>(t * kPerThread + i);
    };

    on_threads([&](int t) {
      for (int i = 0; i < kPerThread; ++i) {
        ptrs[slot(t, i)] = arena.allocate_array<std::uint32_t>(kBytes / 4);
      }
    });
    EXPECT_EQ(requests.live(), total * kBytes);
    const std::size_t owned = arena.allocated_bytes();
    EXPECT_EQ(blocks.live(), owned);
    const std::vector<std::uint32_t*> first(ptrs);

    // New threads recycle their neighbour's allocations, then allocate as
    // many again: every request is served from the free lists just filled.
    on_threads([&](int t) {
      const int from = (t + 1) % kThreads;
      for (int i = 0; i < kPerThread; ++i) {
        arena.recycle_array(ptrs[slot(from, i)], kBytes / 4);
      }
      for (int i = 0; i < kPerThread; ++i) {
        std::uint32_t* p = arena.allocate_array<std::uint32_t>(kBytes / 4);
        p[0] = static_cast<std::uint32_t>(slot(from, i));
        ptrs[slot(from, i)] = p;
      }
    });
    EXPECT_EQ(arena.allocated_bytes(), owned);
    EXPECT_EQ(blocks.live(), owned);
    EXPECT_EQ(requests.live(), total * kBytes);
    // The reused storage is exactly the first round's, with no two
    // allocations aliased.
    for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(ptrs[i][0], i);
    auto sorted_first = first;
    auto sorted_now = ptrs;
    std::sort(sorted_first.begin(), sorted_first.end());
    std::sort(sorted_now.begin(), sorted_now.end());
    EXPECT_EQ(sorted_now, sorted_first);

    on_threads([&](int t) {
      for (int i = 0; i < kPerThread; ++i) {
        arena.recycle_array(ptrs[slot(t, i)], kBytes / 4);
      }
    });
    EXPECT_EQ(requests.live(), 0u);
    EXPECT_EQ(requests.peak(), total * kBytes);
  }
  EXPECT_EQ(blocks.live(), 0u);
  EXPECT_EQ(requests.live(), 0u);
}

}  // namespace
}  // namespace gorilla::util
