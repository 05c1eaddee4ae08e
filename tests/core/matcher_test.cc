#include "core/matcher.h"

#include <algorithm>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/pattern_tree.h"
#include "core/subtpiin.h"
#include "tests/core/test_util.h"

namespace tpiin {
namespace {

struct Prepared {
  Tpiin net;
  std::vector<SubTpiin> subs;
  std::vector<PatternGenResult> gens;
};

Prepared Prepare(Tpiin net) {
  Prepared prepared{std::move(net), {}, {}};
  prepared.subs = SegmentTpiin(prepared.net);
  for (const SubTpiin& sub : prepared.subs) {
    auto gen = GeneratePatternBase(sub);
    EXPECT_TRUE(gen.ok());
    prepared.gens.push_back(std::move(gen).value());
  }
  return prepared;
}

// Triangle of Case 2: investor P-like company structure — a person
// influencing two companies that trade.
Tpiin TriangleNet() {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(p, c2);
  builder.AddTradingArc(c1, c2);
  auto net = builder.Build();
  EXPECT_TRUE(net.ok());
  return std::move(net).value();
}

TEST(MatcherTest, TriangleYieldsOneSimpleGroup) {
  Prepared prepared = Prepare(TriangleNet());
  ASSERT_EQ(prepared.subs.size(), 1u);
  MatchResult match =
      MatchPatternsTree(prepared.subs[0], prepared.gens[0].tree);
  EXPECT_EQ(match.num_simple, 1u);
  EXPECT_EQ(match.num_complex, 0u);
  EXPECT_EQ(match.num_cycle_groups, 0u);
  ASSERT_EQ(match.groups.size(), 1u);
  const SuspiciousGroup& group = match.groups[0];
  EXPECT_EQ(prepared.net.Label(group.antecedent), "P");
  EXPECT_EQ(prepared.net.Label(group.trade_seller), "C1");
  EXPECT_EQ(prepared.net.Label(group.trade_buyer), "C2");
  EXPECT_TRUE(group.is_simple);
  EXPECT_EQ(match.suspicious_trading_arcs.size(), 1u);
}

TEST(MatcherTest, NoCommonAntecedentNoGroup) {
  TpiinBuilder builder;
  NodeId p1 = builder.AddPersonNode("P1");
  NodeId p2 = builder.AddPersonNode("P2");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  NodeId c3 = builder.AddCompanyNode("C3");
  builder.AddInfluenceArc(p1, c1);
  builder.AddInfluenceArc(p2, c2);
  builder.AddInfluenceArc(p1, c3);
  builder.AddInfluenceArc(p2, c3);  // Shared company keeps one WCC.
  builder.AddTradingArc(c1, c2);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  Prepared prepared = Prepare(std::move(built).value());
  ASSERT_EQ(prepared.subs.size(), 1u);
  MatchResult match =
      MatchPatternsTree(prepared.subs[0], prepared.gens[0].tree);
  EXPECT_EQ(match.num_simple + match.num_complex, 0u);
  EXPECT_TRUE(match.suspicious_trading_arcs.empty());
}

TEST(MatcherTest, InvestorSellingToInvesteeIsSuspicious) {
  // A == seller degenerate case: C1 invests in C2 and sells to it.
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(c1, c2);
  builder.AddTradingArc(c1, c2);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  Prepared prepared = Prepare(std::move(built).value());
  MatchResult match =
      MatchPatternsTree(prepared.subs[0], prepared.gens[0].tree);
  EXPECT_GE(match.num_simple + match.num_complex, 1u);
  EXPECT_EQ(match.suspicious_trading_arcs.size(), 1u);
}

TEST(MatcherTest, InTrailCycleDetected) {
  // P -> C1 -> C2 (investment), trade C2 -> C1: the walk
  // {P, C1, C2, -> C1} contains the circle {C1, C2 -> C1}.
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(c1, c2);
  builder.AddTradingArc(c2, c1);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  Prepared prepared = Prepare(std::move(built).value());
  MatchResult match =
      MatchPatternsTree(prepared.subs[0], prepared.gens[0].tree);
  EXPECT_EQ(match.num_cycle_groups, 1u);
  bool found_cycle_group = false;
  for (const SuspiciousGroup& group : match.groups) {
    if (group.from_cycle) {
      found_cycle_group = true;
      EXPECT_EQ(prepared.net.Label(group.antecedent), "C1");
      EXPECT_TRUE(group.is_simple);
    }
  }
  EXPECT_TRUE(found_cycle_group);
  // The pairwise rule also matches (partner prefix {P, C1} from the
  // trail itself), so the arc is suspicious either way.
  EXPECT_EQ(match.suspicious_trading_arcs.size(), 1u);
}

TEST(MatcherTest, ComplexGroupWhenTrailsShareIntermediate) {
  // P -> H; H -> C1, H -> C2 (holding structure); trade C1 -> C2.
  // Both trails pass through H => complex.
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId h = builder.AddCompanyNode("H");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddInfluenceArc(p, h);
  builder.AddInfluenceArc(h, c1);
  builder.AddInfluenceArc(h, c2);
  builder.AddTradingArc(c1, c2);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  Prepared prepared = Prepare(std::move(built).value());
  MatchResult match =
      MatchPatternsTree(prepared.subs[0], prepared.gens[0].tree);
  // Anchored at P: trails {P,H,C1->C2} and {P,H,C2} share H -> complex.
  EXPECT_EQ(match.num_complex, 1u);
  EXPECT_EQ(match.num_simple, 0u);
}

TEST(MatcherTest, TwoTradeTrailsDoNotPair) {
  // The paper's π1/π2 counterexample: both trails would contribute a
  // trading arc into the end node, violating Definition 2.
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  NodeId c3 = builder.AddCompanyNode("C3");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(p, c2);
  builder.AddInfluenceArc(p, c3);
  builder.AddTradingArc(c1, c3);
  builder.AddTradingArc(c2, c3);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  Prepared prepared = Prepare(std::move(built).value());
  MatchResult match =
      MatchPatternsTree(prepared.subs[0], prepared.gens[0].tree);
  // Each trade pairs with the influence trail {P, C3}; the two trade
  // trails never pair with each other.
  EXPECT_EQ(match.num_simple + match.num_complex, 2u);
  for (const SuspiciousGroup& group : match.groups) {
    // Partner trails carry no trading arc: their last node is the buyer
    // and all hops are influence (validated structurally in the
    // completeness suite); here check buyer consistency.
    EXPECT_EQ(group.partner_trail.back(), group.trade_buyer);
  }
}

TEST(MatcherTest, MaxGroupsTruncates) {
  Prepared prepared = Prepare(RandomTpiin(5));
  MatchOptions options;
  options.max_groups = 1;
  size_t total = 0;
  for (size_t i = 0; i < prepared.subs.size(); ++i) {
    MatchResult match =
        MatchPatternsTree(prepared.subs[i], prepared.gens[i].tree, options);
    total += match.num_simple + match.num_complex + match.num_cycle_groups;
    EXPECT_LE(total, prepared.subs.size());
  }
}

TEST(MatcherTest, GroupMembersAreSortedUniqueUnion) {
  Prepared prepared = Prepare(TriangleNet());
  MatchResult match =
      MatchPatternsTree(prepared.subs[0], prepared.gens[0].tree);
  ASSERT_EQ(match.groups.size(), 1u);
  const SuspiciousGroup& group = match.groups[0];
  EXPECT_TRUE(std::is_sorted(group.members.begin(), group.members.end()));
  std::set<NodeId> expected(group.trade_trail.begin(),
                            group.trade_trail.end());
  expected.insert(group.partner_trail.begin(), group.partner_trail.end());
  expected.insert(group.trade_buyer);
  EXPECT_EQ(std::set<NodeId>(group.members.begin(), group.members.end()),
            expected);
}

TEST(MatcherTest, FormatMentionsLabelsAndFlags) {
  Prepared prepared = Prepare(TriangleNet());
  MatchResult match =
      MatchPatternsTree(prepared.subs[0], prepared.gens[0].tree);
  ASSERT_EQ(match.groups.size(), 1u);
  std::string text = match.groups[0].Format(prepared.net);
  EXPECT_NE(text.find("P"), std::string::npos);
  EXPECT_NE(text.find("C1"), std::string::npos);
  EXPECT_NE(text.find("[simple]"), std::string::npos);
}

// Equivalence: the tree-driven matcher, run on every subTPIIN's patterns
// tree, must produce exactly the certified root-anchored baseline's
// result on random networks.
class MatcherEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherEquivalenceTest, TreeMatchesBase) {
  Prepared prepared = Prepare(RandomTpiin(GetParam()));
  size_t num_simple = 0;
  size_t num_complex = 0;
  std::vector<SuspiciousGroup> groups;
  std::vector<std::pair<NodeId, NodeId>> trades;
  for (size_t i = 0; i < prepared.subs.size(); ++i) {
    MatchResult match =
        MatchPatternsTree(prepared.subs[i], prepared.gens[i].tree);
    num_simple += match.num_simple;
    num_complex += match.num_complex;
    groups.insert(groups.end(), match.groups.begin(), match.groups.end());
    for (ArcId id : match.suspicious_trading_arcs) {
      const Arc arc = prepared.net.arc(id);
      trades.emplace_back(arc.src, arc.dst);
    }
  }
  std::sort(trades.begin(), trades.end());
  trades.erase(std::unique(trades.begin(), trades.end()), trades.end());

  BaselineResult baseline = DetectBaseline(prepared.net);
  EXPECT_EQ(num_simple, baseline.num_simple);
  EXPECT_EQ(num_complex, baseline.num_complex);
  EXPECT_EQ(PairwiseKeys(groups), PairwiseKeys(baseline.groups));
  EXPECT_EQ(trades, baseline.suspicious_trades);
}

INSTANTIATE_TEST_SUITE_P(RandomNets, MatcherEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace tpiin
