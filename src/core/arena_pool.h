#ifndef TPIIN_CORE_ARENA_POOL_H_
#define TPIIN_CORE_ARENA_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/pattern_tree.h"

namespace tpiin {

/// A recycling pool of PatternsTree buffers for serving-style workloads
/// that call DetectSuspiciousGroups repeatedly: after a warm-up run the
/// pool holds one grown tree per worker, so subsequent runs generate
/// every patterns tree into retained capacity instead of reallocating.
///
/// The pool is sharded by calling thread: each shard is a mutex-guarded
/// free list selected by a hash of the thread id, so a pool worker's
/// Release/Acquire pair is one uncontended lock and tends to hand back
/// the very buffer that worker warmed (thread-local reuse without
/// thread_local lifetime hazards). Buffers returned to a different
/// shard than they came from are still found by that shard's next
/// Acquire — the sharding is a fast path, not a correctness condition.
///
/// Pooling never changes results: a cleared buffer is content-equal to
/// a fresh one (asserted by tests/core/arena_pool_test.cc).
class ArenaPool {
 public:
  ArenaPool() = default;
  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  /// Pops a recycled buffer from the calling thread's shard, or
  /// default-constructs one on a pool miss.
  PatternsTree Acquire();

  /// Returns a buffer to the calling thread's shard for reuse. The
  /// buffer need not be cleared; the next generation run clears it
  /// (keeping capacity).
  void Release(PatternsTree tree);

  /// Total Acquire calls, and how many of them were served from a free
  /// list. A warmed-up serving loop converges to hits == acquires.
  uint64_t num_acquires() const {
    return acquires_.load(std::memory_order_relaxed);
  }
  uint64_t num_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<PatternsTree> free_list;
  };

  Shard& LocalShard();

  static constexpr size_t kNumShards = 16;
  std::array<Shard, kNumShards> shards_;
  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> hits_{0};
};

}  // namespace tpiin

#endif  // TPIIN_CORE_ARENA_POOL_H_
