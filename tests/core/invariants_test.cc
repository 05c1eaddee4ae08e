// Cross-cutting invariants that don't belong to a single unit: detector
// options must compose, and the paper's degenerate patterns (Fig. 3
// variants) must all resolve.

#include <set>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/baseline.h"
#include "core/detector.h"
#include "core/pattern_tree.h"
#include "core/scoring.h"
#include "tests/core/test_util.h"

namespace tpiin {
namespace {

TEST(InvariantsTest, DisablingCycleDetectionOnlyDropsCycleGroups) {
  for (uint64_t seed = 20; seed < 35; ++seed) {
    Tpiin net = RandomTpiin(seed);
    DetectorOptions with_cycles;
    DetectorOptions without_cycles;
    without_cycles.match.detect_cycles = false;
    auto a = DetectSuspiciousGroups(net, with_cycles);
    auto b = DetectSuspiciousGroups(net, without_cycles);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->num_simple, b->num_simple);
    EXPECT_EQ(a->num_complex, b->num_complex);
    EXPECT_EQ(b->num_cycle_groups, 0u);
    // Pairwise matches subsume the cycle arcs (the unified-rule
    // guarantee), so the suspicious arc set is unchanged.
    EXPECT_EQ(a->suspicious_trades, b->suspicious_trades);
  }
}

// The four graph-based pattern shapes of Fig. 3: triangle (same
// investor), quadrilateral, pentagon and hexagon (longer proof chains)
// must each produce exactly one suspicious arc.
TEST(InvariantsTest, Fig3PatternShapesAllResolve) {
  struct Shape {
    const char* name;
    uint32_t chain_left;   // Influence hops antecedent -> seller.
    uint32_t chain_right;  // Influence hops antecedent -> buyer.
  };
  const Shape shapes[] = {
      {"triangle", 1, 1},      // 3 nodes in the cycle.
      {"quadrilateral", 2, 1}, // 4.
      {"pentagon", 2, 2},      // 5.
      {"hexagon", 3, 2},       // 6.
  };
  for (const Shape& shape : shapes) {
    TpiinBuilder builder;
    NodeId antecedent = builder.AddPersonNode("A");
    NodeId prev = antecedent;
    NodeId seller = kInvalidNode;
    for (uint32_t i = 0; i < shape.chain_left; ++i) {
      seller = builder.AddCompanyNode(StringPrintf("S%u", i));
      builder.AddInfluenceArc(prev, seller);
      prev = seller;
    }
    prev = antecedent;
    NodeId buyer = kInvalidNode;
    for (uint32_t i = 0; i < shape.chain_right; ++i) {
      buyer = builder.AddCompanyNode(StringPrintf("B%u", i));
      builder.AddInfluenceArc(prev, buyer);
      prev = buyer;
    }
    builder.AddTradingArc(seller, buyer);
    auto net = builder.Build();
    ASSERT_TRUE(net.ok()) << shape.name;
    auto result = DetectSuspiciousGroups(*net);
    ASSERT_TRUE(result.ok()) << shape.name;
    EXPECT_EQ(result->suspicious_trades.size(), 1u) << shape.name;
    EXPECT_EQ(result->num_simple + result->num_complex, 1u) << shape.name;
    // Longer disjoint chains stay simple groups.
    EXPECT_EQ(result->num_simple, 1u) << shape.name;
  }
}

TEST(InvariantsTest, ScoringCoversEverySuspiciousTrade) {
  for (uint64_t seed = 40; seed < 50; ++seed) {
    Tpiin net = RandomTpiin(seed);
    auto detection = DetectSuspiciousGroups(net);
    ASSERT_TRUE(detection.ok());
    ScoringResult scoring = ScoreDetection(net, *detection);
    std::set<std::pair<NodeId, NodeId>> scored;
    for (const ScoredTrade& trade : scoring.ranked_trades) {
      scored.emplace(trade.seller, trade.buyer);
    }
    for (const auto& pair : detection->suspicious_trades) {
      EXPECT_TRUE(scored.count(pair));
    }
  }
}

TEST(InvariantsTest, BaselineNaiveAndIndexedAgreeOnRandomNets) {
  for (uint64_t seed = 60; seed < 70; ++seed) {
    Tpiin net = RandomTpiin(seed);
    BaselineOptions naive;
    naive.naive_pairing = true;
    naive.anchor = BaselineAnchor::kAllNodes;
    BaselineOptions indexed;
    indexed.anchor = BaselineAnchor::kAllNodes;
    BaselineResult a = DetectBaseline(net, naive);
    BaselineResult b = DetectBaseline(net, indexed);
    EXPECT_EQ(a.num_simple, b.num_simple);
    EXPECT_EQ(a.num_complex, b.num_complex);
    EXPECT_EQ(a.suspicious_trades, b.suspicious_trades);
  }
}

}  // namespace
}  // namespace tpiin
