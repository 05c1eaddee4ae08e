// LruCache unit tests: recency order under a tiny capacity, the
// registry entries it counts in, the capacity-0 "always cold" mode, and
// key isolation (the property the serve layer's snapshot-CRC +
// option-fingerprint keys rely on: distinct keys can never bleed into
// each other).

#include "serve/cache.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace tpiin {
namespace {

std::shared_ptr<const std::string> Val(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

TEST(LruCacheTest, HitAndMissCounters) {
  MetricsRegistry metrics;
  LruCache<std::string> cache(4, metrics, "test.");

  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", Val("A"));
  std::shared_ptr<const std::string> got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "A");

  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(metrics.GetCounter("test.hit").Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("test.miss").Value(), 1u);
  EXPECT_EQ(metrics.GetGauge("test.entries").Value(), 1);
  EXPECT_EQ(metrics.GetGauge("test.capacity").Value(), 4);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedUnderTinyCapacity) {
  MetricsRegistry metrics;
  LruCache<std::string> cache(2, metrics, "test.");
  cache.Put("a", Val("A"));
  cache.Put("b", Val("B"));
  ASSERT_NE(cache.Get("a"), nullptr);  // "b" is now the LRU entry.
  cache.Put("c", Val("C"));            // Evicts "b".

  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(metrics.GetCounter("test.eviction").Value(), 1u);
  EXPECT_EQ(metrics.GetGauge("test.entries").Value(), 2);

  // A prefix eviction counts each dropped entry and shrinks the size.
  EXPECT_EQ(cache.EvictKeysWithPrefix("a"), 1u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(metrics.GetGauge("test.entries").Value(), 1);
}

TEST(LruCacheTest, PutRefreshesRecency) {
  MetricsRegistry metrics;
  LruCache<std::string> cache(2, metrics, "test.");
  cache.Put("a", Val("A"));
  cache.Put("b", Val("B"));
  cache.Put("a", Val("A2"));  // Replace refreshes: "b" becomes LRU.
  cache.Put("c", Val("C"));

  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  std::shared_ptr<const std::string> got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "A2");
}

TEST(LruCacheTest, CapacityZeroDisablesCaching) {
  MetricsRegistry metrics;
  LruCache<std::string> cache(0, metrics, "test.");
  cache.Put("a", Val("A"));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, EvictedValueSurvivesWhileHeld) {
  // A request holding a result must keep it alive even if the entry is
  // evicted mid-request — the serve layer hands out shared_ptr and
  // never copies payloads defensively.
  MetricsRegistry metrics;
  LruCache<std::string> cache(1, metrics, "test.");
  cache.Put("a", Val("A"));
  std::shared_ptr<const std::string> held = cache.Get("a");
  cache.Put("b", Val("B"));  // Evicts "a".
  EXPECT_FALSE(cache.Contains("a"));
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, "A");
}

TEST(LruCacheTest, DistinctKeysNeverBleed) {
  // Two snapshots (different CRC prefix) and two option sets (different
  // budget suffix) — the four keys are four independent entries.
  MetricsRegistry metrics;
  LruCache<std::string> cache(8, metrics, "test.");
  cache.Put("crc=aaaa|max_nodes=0|max_arcs=0", Val("snapA-default"));
  cache.Put("crc=bbbb|max_nodes=0|max_arcs=0", Val("snapB-default"));
  cache.Put("crc=aaaa|max_nodes=50|max_arcs=0", Val("snapA-capped"));
  cache.Put("crc=bbbb|max_nodes=50|max_arcs=0", Val("snapB-capped"));

  EXPECT_EQ(*cache.Get("crc=aaaa|max_nodes=0|max_arcs=0"),
            "snapA-default");
  EXPECT_EQ(*cache.Get("crc=bbbb|max_nodes=0|max_arcs=0"),
            "snapB-default");
  EXPECT_EQ(*cache.Get("crc=aaaa|max_nodes=50|max_arcs=0"),
            "snapA-capped");
  EXPECT_EQ(*cache.Get("crc=bbbb|max_nodes=50|max_arcs=0"),
            "snapB-capped");
  EXPECT_EQ(cache.size(), 4u);
}

}  // namespace
}  // namespace tpiin
