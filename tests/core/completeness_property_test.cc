// The paper's completeness argument (Appendix A) as executable
// properties: on randomized TPIINs the proposed Algorithm 1 pipeline is
// (a) identical, group for group, to the root-anchored global-traversal
// baseline; (b) identical, arc for arc, to the all-anchors baseline —
// the "accuracy 100%" columns of Table 1; and (c) sound: every reported
// group satisfies Definition 2/3 structurally.

#include <set>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/detector.h"
#include "tests/core/test_util.h"

namespace tpiin {
namespace {

// Structural soundness of one group against the TPIIN (Definition 2/3).
void VerifyGroup(const Tpiin& net, const SuspiciousGroup& group) {
  auto has_arc = [&](NodeId src, NodeId dst, bool trading) {
    for (ArcId id : net.frozen().Out(src).arcs) {
      const Arc arc = net.arc(id);
      if (arc.dst == dst && IsTradingArc(arc) == trading) return true;
    }
    return false;
  };

  // Component pattern 1: influence hops then one trading arc.
  for (size_t i = 1; i < group.trade_trail.size(); ++i) {
    EXPECT_TRUE(has_arc(group.trade_trail[i - 1], group.trade_trail[i],
                        /*trading=*/false))
        << group.Format(net);
  }
  EXPECT_EQ(group.trade_seller, group.trade_trail.back());
  EXPECT_TRUE(has_arc(group.trade_seller, group.trade_buyer,
                      /*trading=*/true))
      << group.Format(net);

  // Component pattern 2: influence-only trail to the buyer.
  for (size_t i = 1; i < group.partner_trail.size(); ++i) {
    EXPECT_TRUE(has_arc(group.partner_trail[i - 1],
                        group.partner_trail[i], /*trading=*/false));
  }
  if (!group.from_cycle) {
    EXPECT_EQ(group.partner_trail.front(), group.antecedent);
    EXPECT_EQ(group.partner_trail.back(), group.trade_buyer);
    EXPECT_EQ(group.trade_trail.front(), group.antecedent);
  } else {
    EXPECT_EQ(group.trade_trail.front(), group.trade_buyer);
    EXPECT_EQ(group.antecedent, group.trade_buyer);
  }

  // Definition 3 classification: shared nodes besides start and end.
  if (!group.from_cycle) {
    std::set<NodeId> trail1(group.trade_trail.begin(),
                            group.trade_trail.end());
    trail1.insert(group.trade_buyer);
    bool shares_interior = false;
    for (size_t i = 1; i + 1 < group.partner_trail.size(); ++i) {
      if (trail1.count(group.partner_trail[i])) shares_interior = true;
    }
    EXPECT_EQ(group.is_simple, !shares_interior) << group.Format(net);
  } else {
    EXPECT_TRUE(group.is_simple);
  }
}

class CompletenessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompletenessTest, ProposedEqualsRootAnchoredBaseline) {
  Tpiin net = RandomTpiin(GetParam(), /*max_persons=*/8,
                          /*max_companies=*/14);
  Result<DetectionResult> proposed = DetectSuspiciousGroups(net);
  ASSERT_TRUE(proposed.ok());
  BaselineResult baseline = DetectBaseline(net);

  EXPECT_EQ(proposed->num_simple, baseline.num_simple);
  EXPECT_EQ(proposed->num_complex, baseline.num_complex);
  EXPECT_EQ(PairwiseKeys(proposed->groups), PairwiseKeys(baseline.groups));
  EXPECT_EQ(proposed->suspicious_trades, baseline.suspicious_trades);
}

TEST_P(CompletenessTest, ArcSetEqualsAllAnchorsBaseline) {
  Tpiin net = RandomTpiin(GetParam() + 1000);
  Result<DetectionResult> proposed = DetectSuspiciousGroups(net);
  ASSERT_TRUE(proposed.ok());
  BaselineOptions options;
  options.anchor = BaselineAnchor::kAllNodes;
  options.collect_groups = false;
  BaselineResult baseline = DetectBaseline(net, options);
  EXPECT_EQ(proposed->suspicious_trades, baseline.suspicious_trades);
}

TEST_P(CompletenessTest, NaivePairingAgreesWithIndexedBaseline) {
  Tpiin net = RandomTpiin(GetParam() + 2000);
  BaselineResult indexed = DetectBaseline(net);
  BaselineOptions naive_options;
  naive_options.naive_pairing = true;
  BaselineResult naive = DetectBaseline(net, naive_options);
  EXPECT_EQ(indexed.num_simple, naive.num_simple);
  EXPECT_EQ(indexed.num_complex, naive.num_complex);
  EXPECT_EQ(indexed.suspicious_trades, naive.suspicious_trades);
  EXPECT_EQ(PairwiseKeys(indexed.groups), PairwiseKeys(naive.groups));
}

TEST_P(CompletenessTest, EveryReportedGroupIsStructurallySound) {
  Tpiin net = RandomTpiin(GetParam() + 3000);
  Result<DetectionResult> proposed = DetectSuspiciousGroups(net);
  ASSERT_TRUE(proposed.ok());
  for (const SuspiciousGroup& group : proposed->groups) {
    VerifyGroup(net, group);
  }
}

TEST_P(CompletenessTest, EverySuspiciousArcHasAGroupAndViceVersa) {
  Tpiin net = RandomTpiin(GetParam() + 4000);
  Result<DetectionResult> proposed = DetectSuspiciousGroups(net);
  ASSERT_TRUE(proposed.ok());
  std::set<std::pair<NodeId, NodeId>> from_groups;
  for (const SuspiciousGroup& group : proposed->groups) {
    from_groups.emplace(group.trade_seller, group.trade_buyer);
  }
  std::set<std::pair<NodeId, NodeId>> reported(
      proposed->suspicious_trades.begin(),
      proposed->suspicious_trades.end());
  EXPECT_EQ(from_groups, reported);
}

INSTANTIATE_TEST_SUITE_P(RandomNets, CompletenessTest,
                         ::testing::Range<uint64_t>(0, 60));

}  // namespace
}  // namespace tpiin
