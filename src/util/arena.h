// Slab/arena allocator with size-class recycling for compact structures.
//
// The monitor-table spine allocates hundreds of thousands of small slot
// slabs with world lifetime; giving each its own malloc costs an
// allocation header per slab and scatters them across the heap. An Arena
// carves them out of large blocks instead: allocation is a bump pointer,
// and the whole spine stays dense.
//
// Blocks are never returned to the OS before the arena dies, but callers
// MAY hand storage back with recycle(): freed allocations go on exact-size
// free lists (sizes are canonicalized to 16-byte multiples, and the
// callers draw from small growth ladders, so the class count stays tiny)
// and the next allocate() of that size reuses them. That is what lets one
// monitor table's post-expiry shrink feed another table's growth — the
// cross-table reuse malloc gave the node-based tables — while keeping
// bump-pointer locality for the steady state.
//
// Thread-safe and sharded: the arena holds kShards cache-line-aligned
// shards, each with its own mutex, free lists and carve block, and every
// thread works in the one shard its arena thread slot picks (slots are
// handed out in first-use order, so a pool of up to kShards threads gets
// one shard per thread). A single-threaded caller therefore sees exactly
// the one-mutex allocator; parallel table writers (seeding, the deferred
// attack-day apply, the prober's expiry sweeps — DESIGN.md §3d) neither
// serialize on one lock nor carve neighbouring slabs out of one block,
// which would make their tables share cache lines. A block freed on one
// thread joins the free lists of the thread that recycles it. Only block
// ownership is shared: refills take a separate block mutex.
//
// Accounting: each block charges one MemStats::Counter::add (a relaxed
// atomic), so per-subsystem live/peak bytes are exact at block
// granularity. Recycled storage stays "live" — the arena still owns it —
// which is exactly the retained-footprint number the scale-1 planning
// needs.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include "util/mem_stats.h"

namespace gorilla::util {

class Arena {
 public:
  /// `stats` (optional) receives one add() per block allocated and the
  /// matching sub()s on destruction; it must outlive the arena (the
  /// MemStats registry's counters are process-lived, so that is the
  /// normal case). `request_stats` (optional) additionally tracks
  /// *outstanding requests* — allocate() adds the canonical size,
  /// recycle() subtracts it — so its peak is the callers' true live
  /// high-water mark and the gap to the block counter is the arena's
  /// overhead (bump slack + idle free-list storage).
  explicit Arena(MemStats::Counter* stats = nullptr,
                 std::size_t block_bytes = kDefaultBlockBytes,
                 MemStats::Counter* request_stats = nullptr)
      : stats_(stats), request_stats_(request_stats),
        block_bytes_(block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    if (stats_ != nullptr) stats_->sub(allocated_bytes_);
    if (request_stats_ != nullptr) {
      // Per-shard balances wrap when storage moves between threads; their
      // sum (mod 2^64) is the exact outstanding total.
      std::size_t outstanding = 0;
      for (const auto& shard : shards_) outstanding += shard.outstanding_bytes;
      request_stats_->sub(outstanding);
    }
  }

  static constexpr std::size_t kDefaultBlockBytes = std::size_t{256} * 1024;
  /// Every allocation is rounded up to this granule: recycled storage must
  /// hold a free-list link, and canonical sizes keep the class count small.
  static constexpr std::size_t kGranule = 16;
  /// Shards per arena: covers a 4-worker pool plus the calling thread
  /// with room to spare.
  static constexpr std::size_t kShards = 8;

  /// Bytes of raw storage, 16-byte aligned (`align` must not exceed
  /// kGranule). Never returns nullptr. Reuse order within the calling
  /// thread's shard: an exact-size recycled block, else the smallest
  /// larger recycled block (best fit, remainder split back onto its own
  /// free list — during a synchronized growth wave every table frees rung
  /// N while demanding rung N+1, and splitting keeps that storage in play
  /// instead of stranding it), else the bump pointer advances.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    (void)align;
    const std::size_t size = canonical(bytes);
    Shard& shard = local_shard();
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (request_stats_ != nullptr) {
      request_stats_->add(size);
      shard.outstanding_bytes += size;
    }
    FreeList* best = nullptr;
    for (auto& fl : shard.free_lists) {
      if (fl.head == nullptr || fl.size < size) continue;
      if (fl.size == size) {
        best = &fl;
        break;
      }
      if (best == nullptr || fl.size < best->size) best = &fl;
    }
    if (best != nullptr) {
      void* out = best->head;
      best->head = *static_cast<void**>(out);
      if (best->size > size) {
        push_free(shard, static_cast<std::byte*>(out) + size,
                  best->size - size);
      }
      return out;
    }
    std::size_t offset = (shard.cursor + kGranule - 1) & ~(kGranule - 1);
    if (shard.current == nullptr || offset + size > shard.current_size) {
      refill(shard, size + kGranule);
      offset = (shard.cursor + kGranule - 1) & ~(kGranule - 1);
    }
    shard.cursor = offset + size;
    return shard.current + offset;
  }

  /// Returns an allocation of `bytes` (the size passed to allocate()) to
  /// the matching size-class free list of the calling thread's shard.
  void recycle(void* ptr, std::size_t bytes) noexcept {
    const std::size_t size = canonical(bytes);
    Shard& shard = local_shard();
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (request_stats_ != nullptr) {
      request_stats_->sub(size);
      shard.outstanding_bytes -= size;
    }
    push_free(shard, ptr, size);
  }

  /// `count` default-initialized objects of trivially-destructible T (the
  /// arena never runs destructors; recycled storage is re-initialized
  /// here).
  template <typename T>
  [[nodiscard]] T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destroyed element-wise");
    static_assert(alignof(T) <= kGranule);
    T* out = static_cast<T*>(allocate(sizeof(T) * count, alignof(T)));
    for (std::size_t i = 0; i < count; ++i) new (out + i) T();
    return out;
  }

  /// recycle() for an allocate_array<T>() allocation.
  template <typename T>
  void recycle_array(T* ptr, std::size_t count) noexcept {
    recycle(static_cast<void*>(ptr), sizeof(T) * count);
  }

  /// Total block bytes currently owned (what MemStats sees as live).
  [[nodiscard]] std::size_t allocated_bytes() const {
    const std::lock_guard<std::mutex> lock(blocks_mutex_);
    return allocated_bytes_;
  }

  /// Blocks owned (diagnostic; one malloc each over the arena's lifetime).
  [[nodiscard]] std::size_t block_count() const {
    const std::lock_guard<std::mutex> lock(blocks_mutex_);
    return blocks_.size();
  }

 private:
  struct FreeList {
    std::size_t size;
    void* head;
  };

  /// One thread's slice of the arena. Aligned to a cache line so two
  /// threads' locks and cursors never share one.
  struct alignas(64) Shard {
    std::mutex mutex;
    std::vector<FreeList> free_lists;
    std::byte* current = nullptr;
    std::size_t current_size = 0;
    std::size_t cursor = 0;
    std::size_t outstanding_bytes = 0;
  };

  [[nodiscard]] static constexpr std::size_t canonical(
      std::size_t bytes) noexcept {
    const std::size_t up = (bytes + kGranule - 1) & ~(kGranule - 1);
    return up == 0 ? kGranule : up;
  }

  /// The calling thread's shard. Slots are process-wide and dealt in
  /// first-use order, so the first kShards threads never share a shard.
  [[nodiscard]] Shard& local_shard() noexcept {
    static std::atomic<std::size_t> next_slot{0};
    thread_local const std::size_t slot =
        next_slot.fetch_add(1, std::memory_order_relaxed);
    return shards_[slot % kShards];
  }

  /// Links `ptr` (a canonical-size block) onto its size class. Called
  /// under shard.mutex.
  static void push_free(Shard& shard, void* ptr, std::size_t size) {
    for (auto& fl : shard.free_lists) {
      if (fl.size == size) {
        *static_cast<void**>(ptr) = fl.head;
        fl.head = ptr;
        return;
      }
    }
    *static_cast<void**>(ptr) = nullptr;
    shard.free_lists.push_back(FreeList{size, ptr});
  }

  /// Starts a fresh carve block of at least `min_bytes` for `shard`
  /// (oversize requests get a dedicated block). Called under shard.mutex.
  void refill(Shard& shard, std::size_t min_bytes) {
    const std::size_t size = min_bytes > block_bytes_ ? min_bytes
                                                      : block_bytes_;
    auto block = std::make_unique<std::byte[]>(size);
    shard.current = block.get();
    shard.current_size = size;
    shard.cursor = 0;
    {
      const std::lock_guard<std::mutex> lock(blocks_mutex_);
      blocks_.push_back(std::move(block));
      allocated_bytes_ += size;
    }
    if (stats_ != nullptr) stats_->add(size);
  }

  MemStats::Counter* stats_;
  MemStats::Counter* request_stats_;
  std::size_t block_bytes_;
  std::array<Shard, kShards> shards_;
  mutable std::mutex blocks_mutex_;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  std::size_t allocated_bytes_ = 0;
};

}  // namespace gorilla::util
