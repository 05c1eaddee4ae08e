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

// The component patterns of `tree`, read through the one predicate: the
// indices of the tree nodes that end one, in emission order.
std::vector<int32_t> PatternEnds(const SubTpiin& sub,
                                 const PatternsTree& tree) {
  std::vector<int32_t> ends;
  for (int32_t i = 0; i < static_cast<int32_t>(tree.nodes.size()); ++i) {
    if (tree.EndsPattern(sub, i)) ends.push_back(i);
  }
  return ends;
}

// The influence elements A1..Am of the component pattern ending at
// `end`: a trade leaf's trail stops at its parent, before the trade.
std::vector<NodeId> InfluenceNodes(const PatternsTree& tree, int32_t end) {
  const PatternsTree::TreeNode& node = tree.nodes[end];
  return tree.PathTo(node.via_trading_arc ? node.parent : end);
}

std::set<std::string> FormattedTrails(const SubTpiin& sub,
                                      const PatternsTree& tree) {
  std::set<std::string> formatted;
  for (int32_t end : PatternEnds(sub, tree)) {
    formatted.insert(tree.FormatTrail(sub, end));
  }
  return formatted;
}

TEST(PatternTreeTest, DiamondEnumeratesBothPaths) {
  Tpiin net = DiamondNet();
  std::vector<SubTpiin> subs = SingleSub(net);
  ASSERT_EQ(subs.size(), 1u);
  auto gen = GeneratePatternBase(subs[0]);
  ASSERT_TRUE(gen.ok());
  // Trails: P,C1,C2,C4 -> C1 and P,C1,C3,C4 -> C1 (both trade-stopped).
  EXPECT_EQ(PatternEnds(subs[0], gen->tree).size(), 2u);
  EXPECT_EQ(gen->num_trails, 2u);
  std::set<std::string> formatted = FormattedTrails(subs[0], gen->tree);
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
  std::set<std::string> formatted = FormattedTrails(subs[0], gen->tree);
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
  for (int32_t end : PatternEnds(subs[0], gen->tree)) {
    // No trail may contain more than one trading hop: nodes are all
    // influence-reached, plus at most the final trade target.
    EXPECT_LE(InfluenceNodes(gen->tree, end).size(), 2u);
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
    for (int32_t end : PatternEnds(sub, gen->tree)) {
      EXPECT_EQ(influence_in[InfluenceNodes(gen->tree, end)[0]], 0u)
          << gen->tree.FormatTrail(sub, end);
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
      const PatternsTree& tree = gen->tree;
      for (int32_t end : PatternEnds(sub, tree)) {
        const std::vector<NodeId> nodes = InfluenceNodes(tree, end);
        // Elements are distinct (Property 1).
        std::set<NodeId> unique(nodes.begin(), nodes.end());
        EXPECT_EQ(unique.size(), nodes.size());
        // Consecutive elements are influence arcs; the final hop (if
        // any) is a trading arc.
        for (size_t i = 1; i < nodes.size(); ++i) {
          bool found = false;
          for (ArcId id : sub.frozen.Out(nodes[i - 1]).arcs) {
            const Arc& arc = arcs[id];
            if (arc.dst == nodes[i] && IsInfluenceArc(arc)) found = true;
          }
          EXPECT_TRUE(found);
        }
        if (tree.nodes[end].via_trading_arc) {
          const Arc& arc = arcs[tree.nodes[end].via_arc];
          EXPECT_TRUE(IsTradingArc(arc));
          EXPECT_EQ(arc.src, nodes.back());
          EXPECT_EQ(arc.dst, tree.nodes[end].graph_node);
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
      const PatternsTree& tree = gen->tree;
      // Without truncation the component patterns are exactly the tree
      // leaves: a walk stops only at a trade or an outdegree-zero node.
      std::vector<uint8_t> has_child(tree.nodes.size(), 0);
      for (const PatternsTree::TreeNode& node : tree.nodes) {
        if (node.parent >= 0) has_child[node.parent] = 1;
      }
      std::vector<int32_t> leaves;
      for (int32_t i = 0; i < static_cast<int32_t>(tree.nodes.size()); ++i) {
        if (!has_child[i]) leaves.push_back(i);
      }
      EXPECT_EQ(PatternEnds(sub, tree), leaves);
      EXPECT_EQ(leaves.size(), gen->num_trails);
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
  EXPECT_EQ(PatternEnds(subs[0], gen->tree).size(), 1u);
}

TEST(PatternTreeTest, MaxTrailLengthTruncates) {
  Tpiin net = DiamondNet();
  std::vector<SubTpiin> subs = SingleSub(net);
  PatternGenOptions options;
  options.max_trail_length = 2;
  auto gen = GeneratePatternBase(subs[0], options);
  ASSERT_TRUE(gen.ok());
  EXPECT_TRUE(gen->truncated);
  for (int32_t end : PatternEnds(subs[0], gen->tree)) {
    EXPECT_LE(InfluenceNodes(gen->tree, end).size(), 2u);
  }
}

TEST(PatternTreeTest, EndsPatternCountsEveryTrailUnderValves) {
  // Truncation stops the walk between steps, and each step adds a tree
  // node together with the trail it ends, so the predicate still finds
  // exactly num_trails patterns.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Tpiin net = RandomTpiin(seed, /*max_persons=*/8, /*max_companies=*/16);
    for (const SubTpiin& sub : SegmentTpiin(net)) {
      for (size_t max_trails : {0, 1, 3, 17}) {
        for (size_t max_len : {0, 1, 2, 4}) {
          PatternGenOptions options;
          options.max_trails = max_trails;
          options.max_trail_length = max_len;
          auto gen = GeneratePatternBase(sub, options);
          ASSERT_TRUE(gen.ok());
          EXPECT_EQ(PatternEnds(sub, gen->tree).size(), gen->num_trails)
              << "seed " << seed << " max_trails " << max_trails
              << " max_trail_length " << max_len;
        }
      }
    }
  }
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
