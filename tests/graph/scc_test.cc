#include "graph/scc.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/traversal.h"

namespace tpiin {
namespace {

TEST(SccTest, DagHasOnlyTrivialComponents) {
  const FrozenGraph g(4, std::vector<Arc>{{0, 1, 0}, {1, 2, 0}, {0, 3, 0}});
  SccResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 4u);
  EXPECT_TRUE(scc.nontrivial_components.empty());
}

TEST(SccTest, SimpleCycle) {
  const FrozenGraph g(
      4, std::vector<Arc>{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}, {2, 3, 0}});
  SccResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 2u);
  ASSERT_EQ(scc.nontrivial_components.size(), 1u);
  NodeId comp = scc.nontrivial_components[0];
  std::set<NodeId> members(scc.members[comp].begin(),
                           scc.members[comp].end());
  EXPECT_EQ(members, (std::set<NodeId>{0, 1, 2}));
  EXPECT_NE(scc.component_of[3], comp);
}

TEST(SccTest, SelfLoopIsNontrivial) {
  const FrozenGraph g(2, std::vector<Arc>{{0, 0, 0}});
  SccResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 2u);
  ASSERT_EQ(scc.nontrivial_components.size(), 1u);
  EXPECT_EQ(scc.members[scc.nontrivial_components[0]],
            std::vector<NodeId>{0});
}

TEST(SccTest, TwoDisjointCycles) {
  const FrozenGraph g(6, std::vector<Arc>{{0, 1, 0},
                                          {1, 0, 0},
                                          {2, 3, 0},
                                          {3, 4, 0},
                                          {4, 2, 0}});
  SccResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 3u);  // {0,1}, {2,3,4}, {5}.
  EXPECT_EQ(scc.nontrivial_components.size(), 2u);
}

TEST(SccTest, ReverseTopologicalComponentIds) {
  // Tarjan emits components in reverse topological order: if comp(u) has
  // an arc to comp(v) (u, v in different components), then
  // component_of[u] > component_of[v].
  const std::vector<Arc> arcs = {
      {0, 1, 0}, {1, 2, 0}, {2, 1, 0} /* {1,2} cycle. */, {2, 3, 0}, {3, 4, 0}};
  SccResult scc = StronglyConnectedComponents(FrozenGraph(5, arcs));
  for (const Arc& arc : arcs) {
    if (scc.component_of[arc.src] != scc.component_of[arc.dst]) {
      EXPECT_GT(scc.component_of[arc.src], scc.component_of[arc.dst]);
    }
  }
}

TEST(SccTest, ArcClassRestrictsDecomposition) {
  // Color 2 lies outside the partition class: no cycle remains.
  const FrozenGraph g(3, std::vector<Arc>{{0, 1, /*color=*/1},
                                          {1, 0, /*color=*/2}},
                      /*influence_color=*/1);
  SccResult all = StronglyConnectedComponents(g);
  EXPECT_EQ(all.nontrivial_components.size(), 1u);
  SccResult filtered =
      StronglyConnectedComponents(g, FrozenArcClass::kInfluence);
  EXPECT_TRUE(filtered.nontrivial_components.empty());
}

TEST(SccTest, DeepChainDoesNotOverflowStack) {
  constexpr NodeId kN = 200000;
  std::vector<Arc> arcs;
  for (NodeId i = 1; i < kN; ++i) arcs.push_back({i - 1, i, 0});
  arcs.push_back({kN - 1, 0, 0});  // One giant cycle.
  SccResult scc = StronglyConnectedComponents(FrozenGraph(kN, arcs));
  EXPECT_EQ(scc.num_components, 1u);
  EXPECT_EQ(scc.members[0].size(), kN);
}

// Property sweep: on random digraphs, SCC membership must agree with
// mutual reachability.
class SccPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SccPropertyTest, AgreesWithMutualReachability) {
  Rng rng(GetParam());
  const NodeId n = 2 + static_cast<NodeId>(rng.UniformU64(28));
  std::vector<Arc> arcs(rng.UniformU64(3 * n));
  for (Arc& arc : arcs) {
    arc.src = static_cast<NodeId>(rng.UniformU64(n));
    arc.dst = static_cast<NodeId>(rng.UniformU64(n));
    arc.color = 0;
  }
  const FrozenGraph g(n, arcs);
  SccResult scc = StronglyConnectedComponents(g);

  std::vector<std::vector<bool>> reach;
  reach.reserve(n);
  for (NodeId v = 0; v < n; ++v) reach.push_back(ReachableFrom(g, v));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      bool mutual = reach[u][v] && reach[v][u];
      EXPECT_EQ(mutual, scc.component_of[u] == scc.component_of[v])
          << "nodes " << u << "," << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SccPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace tpiin
