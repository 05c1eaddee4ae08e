#include "graph/connected.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/traversal.h"

namespace tpiin {
namespace {

TEST(WccTest, IsolatedNodesAreSingletons) {
  WccResult wcc = WeaklyConnectedComponents(FrozenGraph(3, {}));
  EXPECT_EQ(wcc.num_components, 3u);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(wcc.members[wcc.component_of[v]], std::vector<NodeId>{v});
  }
}

TEST(WccTest, DirectionIsIgnored) {
  WccResult wcc = WeaklyConnectedComponents(
      FrozenGraph(4, std::vector<Arc>{{1, 0, 0}, {1, 2, 0}}));
  EXPECT_EQ(wcc.num_components, 2u);  // {0,1,2}, {3}.
  EXPECT_EQ(wcc.component_of[0], wcc.component_of[2]);
  EXPECT_NE(wcc.component_of[0], wcc.component_of[3]);
}

TEST(WccTest, ArcClassSplitsComponents) {
  // Color 2 lies outside the partition class walked below.
  const FrozenGraph g(4, std::vector<Arc>{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}},
                      /*influence_color=*/1);
  WccResult all = WeaklyConnectedComponents(g);
  EXPECT_EQ(all.num_components, 1u);
  WccResult filtered =
      WeaklyConnectedComponents(g, FrozenArcClass::kInfluence);
  EXPECT_EQ(filtered.num_components, 2u);
  EXPECT_EQ(filtered.component_of[0], filtered.component_of[1]);
  EXPECT_EQ(filtered.component_of[2], filtered.component_of[3]);
  EXPECT_NE(filtered.component_of[1], filtered.component_of[2]);
}

TEST(WccTest, MembersAreSortedAndPartitionNodes) {
  WccResult wcc = WeaklyConnectedComponents(
      FrozenGraph(6, std::vector<Arc>{{5, 0, 0}, {0, 3, 0}}));
  size_t total = 0;
  for (const std::vector<NodeId>& members : wcc.members) {
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    total += members.size();
  }
  EXPECT_EQ(total, 6u);
}

// The union-find implementation and the paper's DFS findsubgraph() must
// produce the same partition on random graphs.
class WccEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WccEquivalenceTest, UnionFindMatchesDfs) {
  Rng rng(GetParam());
  const NodeId n = 1 + static_cast<NodeId>(rng.UniformU64(40));
  std::vector<Arc> arcs(rng.UniformU64(2 * n));
  for (Arc& arc : arcs) {
    arc.src = static_cast<NodeId>(rng.UniformU64(n));
    arc.dst = static_cast<NodeId>(rng.UniformU64(n));
    arc.color = static_cast<ArcColor>(rng.UniformU64(2));
  }
  // Walk the color-0 arcs only.
  const FrozenGraph g(n, arcs, /*influence_color=*/0);
  WccResult a = WeaklyConnectedComponents(g, FrozenArcClass::kInfluence);
  WccResult b = FindSubgraphsDfs(g, FrozenArcClass::kInfluence);
  ASSERT_EQ(a.num_components, b.num_components);
  // Same partition up to component relabeling.
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      EXPECT_EQ(a.component_of[u] == a.component_of[v],
                b.component_of[u] == b.component_of[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, WccEquivalenceTest,
                         ::testing::Range<uint64_t>(100, 120));

}  // namespace
}  // namespace tpiin
