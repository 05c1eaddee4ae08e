// ArenaPool recycles patterns trees across detector runs. The
// contract under test: acquire/hit accounting is exact, a recycled
// buffer behaves like a fresh one (detection results are identical with
// and without a pool), and concurrent Acquire/Release from many threads
// is safe.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/arena_pool.h"
#include "core/detector.h"
#include "tests/core/test_util.h"

namespace tpiin {
namespace {

TEST(ArenaPoolTest, MissThenHitAccounting) {
  ArenaPool pool;
  EXPECT_EQ(pool.num_acquires(), 0u);
  EXPECT_EQ(pool.num_hits(), 0u);

  PatternsTree tree = pool.Acquire();
  EXPECT_EQ(pool.num_acquires(), 1u);
  EXPECT_EQ(pool.num_hits(), 0u);

  pool.Release(std::move(tree));
  PatternsTree recycled = pool.Acquire();
  EXPECT_EQ(pool.num_acquires(), 2u);
  EXPECT_EQ(pool.num_hits(), 1u);
  pool.Release(std::move(recycled));
}

TEST(ArenaPoolTest, DrainingTheShardMissesAgain) {
  ArenaPool pool;
  // Same thread → same shard: two releases stock the free list for two
  // hits, and a third acquire misses again.
  pool.Release(pool.Acquire());
  PatternsTree a = pool.Acquire();
  PatternsTree b = pool.Acquire();
  EXPECT_EQ(pool.num_acquires(), 3u);
  EXPECT_EQ(pool.num_hits(), 1u);
  pool.Release(std::move(a));
  pool.Release(std::move(b));
  pool.Acquire();
  pool.Acquire();
  pool.Acquire();
  EXPECT_EQ(pool.num_acquires(), 6u);
  EXPECT_EQ(pool.num_hits(), 3u);
}

TEST(ArenaPoolTest, DetectionIdenticalWithRecycledBuffers) {
  ArenaPool pool;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Tpiin net = RandomTpiin(seed, /*max_persons=*/10,
                            /*max_companies=*/20);
    DetectorOptions fresh;
    auto expected = DetectSuspiciousGroups(net, fresh);
    ASSERT_TRUE(expected.ok());

    DetectorOptions pooled;
    pooled.arena_pool = &pool;
    // Two passes: the first warms the pool, the second runs entirely on
    // recycled (dirty-then-cleared) buffers.
    for (int pass = 0; pass < 2; ++pass) {
      auto actual = DetectSuspiciousGroups(net, pooled);
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(actual->num_simple, expected->num_simple);
      EXPECT_EQ(actual->num_complex, expected->num_complex);
      EXPECT_EQ(actual->num_trails, expected->num_trails);
      EXPECT_EQ(actual->suspicious_trades, expected->suspicious_trades);
      EXPECT_EQ(PairwiseKeys(actual->groups),
                PairwiseKeys(expected->groups));
    }
  }
  EXPECT_GT(pool.num_acquires(), 0u);
  // Every seed after the first warm-up run reuses warmed buffers.
  EXPECT_GT(pool.num_hits(), 0u);
}

TEST(ArenaPoolTest, SharedAcrossParallelDetection) {
  ArenaPool pool;
  Tpiin net = RandomTpiin(/*seed=*/2, /*max_persons=*/10,
                          /*max_companies=*/20);
  DetectorOptions sequential;
  auto expected = DetectSuspiciousGroups(net, sequential);
  ASSERT_TRUE(expected.ok());

  DetectorOptions options;
  options.num_threads = 4;
  options.arena_pool = &pool;
  for (int pass = 0; pass < 3; ++pass) {
    auto actual = DetectSuspiciousGroups(net, options);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(PairwiseKeys(actual->groups),
              PairwiseKeys(expected->groups));
  }
  EXPECT_GT(pool.num_hits(), 0u);
}

TEST(ArenaPoolTest, ConcurrentAcquireReleaseIsSafe) {
  ArenaPool pool;
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool] {
      for (int i = 0; i < kIters; ++i) {
        PatternsTree tree = pool.Acquire();
        pool.Release(std::move(tree));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(pool.num_acquires(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_LE(pool.num_hits(), pool.num_acquires());
  // Steady-state round-trips on a warmed shard are nearly all hits.
  EXPECT_GT(pool.num_hits(), pool.num_acquires() / 2);
}

}  // namespace
}  // namespace tpiin
