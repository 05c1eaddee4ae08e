#include "core/pattern_tree.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/subtpiin.h"
#include "tests/core/test_util.h"

namespace tpiin {
namespace {

// Single-subTPIIN helper nets.
Tpiin DiamondNet() {
  // P -> C1 -> {C2, C3} -> C4 (investment diamond), trade C4 -> C1.
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  NodeId c3 = builder.AddCompanyNode("C3");
  NodeId c4 = builder.AddCompanyNode("C4");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(c1, c2);
  builder.AddInfluenceArc(c1, c3);
  builder.AddInfluenceArc(c2, c4);
  builder.AddInfluenceArc(c3, c4);
  builder.AddTradingArc(c4, c1);
  auto net = builder.Build();
  EXPECT_TRUE(net.ok());
  return std::move(net).value();
}

std::vector<SubTpiin> SingleSub(const Tpiin& net) {
  SegmentOptions options;
  options.skip_tradeless = false;
  return SegmentTpiin(net, options);
}

TEST(PatternTreeTest, DiamondEnumeratesBothPaths) {
  Tpiin net = DiamondNet();
  std::vector<SubTpiin> subs = SingleSub(net);
  ASSERT_EQ(subs.size(), 1u);
  auto gen = GeneratePatternBase(subs[0]);
  ASSERT_TRUE(gen.ok());
  // Trails: P,C1,C2,C4 -> C1 and P,C1,C3,C4 -> C1 (both trade-stopped).
  EXPECT_EQ(gen->base.size(), 2u);
  EXPECT_EQ(gen->num_trails, 2u);
  std::set<std::string> formatted;
  for (const auto& t : gen->base) formatted.insert(t.Format(subs[0]));
  EXPECT_TRUE(formatted.count("P, C1, C2, C4 -> C1"));
  EXPECT_TRUE(formatted.count("P, C1, C3, C4 -> C1"));
}

TEST(PatternTreeTest, Rule1StopsAtOutdegreeZero) {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(c1, c2);
  builder.AddTradingArc(c1, c2);  // So the component is kept.
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  std::vector<SubTpiin> subs = SingleSub(*net);
  auto gen = GeneratePatternBase(subs[0]);
  ASSERT_TRUE(gen.ok());
  std::set<std::string> formatted;
  for (const auto& t : gen->base) formatted.insert(t.Format(subs[0]));
  // The pure walk P,C1,C2 stops at C2 (outdegree zero); the trade walk
  // P,C1 -> C2 stops at the first trading arc (Rule 2).
  EXPECT_TRUE(formatted.count("P, C1, C2"));
  EXPECT_TRUE(formatted.count("P, C1 -> C2"));
  EXPECT_EQ(formatted.size(), 2u);
}

TEST(PatternTreeTest, Rule2StopsAtFirstTradingArcOnly) {
  // C2 has a further trading arc; a walk through the first trading arc
  // must not continue past it.
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  NodeId c3 = builder.AddCompanyNode("C3");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(p, c2);
  builder.AddInfluenceArc(p, c3);
  builder.AddTradingArc(c1, c2);
  builder.AddTradingArc(c2, c3);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  std::vector<SubTpiin> subs = SingleSub(*net);
  auto gen = GeneratePatternBase(subs[0]);
  ASSERT_TRUE(gen.ok());
  for (const auto& t : gen->base) {
    // No trail may contain more than one trading hop: nodes are all
    // influence-reached, plus at most the final trade target.
    EXPECT_LE(t.nodes.size(), 2u);
  }
}

TEST(PatternTreeTest, TrailsStartAtInfluenceIndegreeZeroNodes) {
  Tpiin net = RandomTpiin(99);
  for (const SubTpiin& sub : SegmentTpiin(net)) {
    const std::vector<Arc> arcs = LocalArcTable(sub);
    std::vector<uint32_t> influence_in(sub.frozen.NumNodes(), 0);
    for (ArcId id = 0; id < sub.num_influence_arcs; ++id) {
      ++influence_in[arcs[id].dst];
    }
    auto gen = GeneratePatternBase(sub);
    ASSERT_TRUE(gen.ok());
    for (const auto& t : gen->base) {
      EXPECT_EQ(influence_in[t.nodes[0]], 0u) << t.Format(sub);
    }
  }
}

TEST(PatternTreeTest, TrailsAreSimplePathsPlusOptionalTrade) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Tpiin net = RandomTpiin(seed);
    for (const SubTpiin& sub : SegmentTpiin(net)) {
      auto gen = GeneratePatternBase(sub);
      ASSERT_TRUE(gen.ok());
      const std::vector<Arc> arcs = LocalArcTable(sub);
      for (const auto& t : gen->base) {
        // Elements are distinct (Property 1).
        std::set<NodeId> unique(t.nodes.begin(), t.nodes.end());
        EXPECT_EQ(unique.size(), t.nodes.size());
        // Consecutive elements are influence arcs; the final hop (if
        // any) is a trading arc.
        for (size_t i = 1; i < t.nodes.size(); ++i) {
          bool found = false;
          for (ArcId id : sub.frozen.Out(t.nodes[i - 1]).arcs) {
            const Arc& arc = arcs[id];
            if (arc.dst == t.nodes[i] && IsInfluenceArc(arc)) found = true;
          }
          EXPECT_TRUE(found);
        }
        if (t.has_trade()) {
          const Arc& arc = arcs[t.trade_arc];
          EXPECT_TRUE(IsTradingArc(arc));
          EXPECT_EQ(arc.src, t.seller());
          EXPECT_EQ(arc.dst, t.trade_dst);
        }
      }
    }
  }
}

TEST(PatternTreeTest, TreeLeavesAgreeWithTrailCount) {
  for (uint64_t seed = 40; seed < 55; ++seed) {
    Tpiin net = RandomTpiin(seed);
    for (const SubTpiin& sub : SegmentTpiin(net)) {
      auto gen = GeneratePatternBase(sub);
      ASSERT_TRUE(gen.ok());
      EXPECT_EQ(gen->base.size(), gen->num_trails);
      // Every trade trail corresponds to one trading tree leaf.
      size_t trading_leaves = 0;
      for (const auto& node : gen->tree.nodes) {
        trading_leaves += node.via_trading_arc ? 1 : 0;
      }
      size_t trade_trails = 0;
      for (const auto& t : gen->base) trade_trails += t.has_trade();
      EXPECT_EQ(trading_leaves, trade_trails);
    }
  }
}

TEST(PatternTreeTest, PathToReconstructsTrailPrefixes) {
  Tpiin net = DiamondNet();
  std::vector<SubTpiin> subs = SingleSub(net);
  auto gen = GeneratePatternBase(subs[0]);
  ASSERT_TRUE(gen.ok());
  const PatternsTree& tree = gen->tree;
  ASSERT_FALSE(tree.roots.empty());
  for (int32_t i = 0; i < static_cast<int32_t>(tree.nodes.size()); ++i) {
    std::vector<NodeId> path = tree.PathTo(i);
    EXPECT_EQ(path.back(), tree.nodes[i].graph_node);
    EXPECT_EQ(path.front(), tree.nodes[tree.roots[0]].graph_node);
  }
}

TEST(PatternTreeTest, MaxTrailsTruncates) {
  Tpiin net = DiamondNet();
  std::vector<SubTpiin> subs = SingleSub(net);
  PatternGenOptions options;
  options.max_trails = 1;
  auto gen = GeneratePatternBase(subs[0], options);
  ASSERT_TRUE(gen.ok());
  EXPECT_TRUE(gen->truncated);
  EXPECT_EQ(gen->base.size(), 1u);
}

TEST(PatternTreeTest, MaxTrailLengthTruncates) {
  Tpiin net = DiamondNet();
  std::vector<SubTpiin> subs = SingleSub(net);
  PatternGenOptions options;
  options.max_trail_length = 2;
  auto gen = GeneratePatternBase(subs[0], options);
  ASSERT_TRUE(gen.ok());
  EXPECT_TRUE(gen->truncated);
  for (const auto& t : gen->base) EXPECT_LE(t.nodes.size(), 2u);
}

TEST(PatternTreeTest, EmitTrailsOffStillCounts) {
  Tpiin net = DiamondNet();
  std::vector<SubTpiin> subs = SingleSub(net);
  PatternGenOptions options;
  options.emit_trails = false;
  auto gen = GeneratePatternBase(subs[0], options);
  ASSERT_TRUE(gen.ok());
  EXPECT_TRUE(gen->base.empty());
  EXPECT_EQ(gen->num_trails, 2u);
  EXPECT_FALSE(gen->tree.nodes.empty());
}

TEST(PatternTreeTest, CyclicInfluenceRejected) {
  // Hand-built SubTpiin with an influence cycle (invalid input).
  Tpiin net = DiamondNet();  // Parent only for labels.
  SubTpiin sub;
  sub.parent = &net;
  sub.global_of_local = {1, 2};  // Company labels C1, C2.
  sub.frozen = FrozenGraph(
      2, std::vector<Arc>{{0, 1, kArcInfluence}, {1, 0, kArcInfluence}},
      kArcInfluence);
  sub.num_influence_arcs = 2;
  sub.global_arc_of_local = {0, 1};
  auto gen = GeneratePatternBase(sub);
  EXPECT_TRUE(gen.status().IsFailedPrecondition());
}

TEST(ListDTest, SortsByIndegreeThenOutdegree) {
  Tpiin net = DiamondNet();
  std::vector<SubTpiin> subs = SingleSub(net);
  std::vector<ListDEntry> list = ComputeListD(subs[0]);
  for (size_t i = 1; i < list.size(); ++i) {
    bool ordered =
        list[i - 1].in_degree < list[i].in_degree ||
        (list[i - 1].in_degree == list[i].in_degree &&
         list[i - 1].out_degree >= list[i].out_degree);
    EXPECT_TRUE(ordered) << "position " << i;
  }
}

}  // namespace
}  // namespace tpiin
