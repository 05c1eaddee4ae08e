#include "core/arena_pool.h"

#include <functional>
#include <thread>

#include "obs/metrics.h"

namespace tpiin {

ArenaPool::Shard& ArenaPool::LocalShard() {
  const size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return shards_[h % kNumShards];
}

PatternsTree ArenaPool::Acquire() {
  acquires_.fetch_add(1, std::memory_order_relaxed);
  TPIIN_COUNTER_ADD("arena.acquires", 1);
  Shard& shard = LocalShard();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.free_list.empty()) {
      PatternsTree tree = std::move(shard.free_list.back());
      shard.free_list.pop_back();
      hits_.fetch_add(1, std::memory_order_relaxed);
      TPIIN_COUNTER_ADD("arena.hits", 1);
      return tree;
    }
  }
  TPIIN_COUNTER_ADD("arena.misses", 1);
  return PatternsTree{};
}

void ArenaPool::Release(PatternsTree tree) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.free_list.push_back(std::move(tree));
}

}  // namespace tpiin
