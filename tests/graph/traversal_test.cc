#include "graph/traversal.h"

#include <vector>

#include <gtest/gtest.h>

namespace tpiin {
namespace {

TEST(ReachableFromTest, StartIsAlwaysReachable) {
  std::vector<bool> reach = ReachableFrom(FrozenGraph(3, {}), 1);
  EXPECT_FALSE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
}

TEST(ReachableFromTest, FollowsDirection) {
  std::vector<bool> reach = ReachableFrom(
      FrozenGraph(4, std::vector<Arc>{{0, 1, 0}, {1, 2, 0}, {3, 2, 0}}), 0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_TRUE(reach[2]);
  EXPECT_FALSE(reach[3]);  // Arc points into 2, not out of it.
}

TEST(ReachableFromTest, HandlesCycles) {
  std::vector<bool> reach = ReachableFrom(
      FrozenGraph(3, std::vector<Arc>{{0, 1, 0}, {1, 0, 0}, {1, 2, 0}}), 0);
  EXPECT_TRUE(reach[0] && reach[1] && reach[2]);
}

TEST(ReachableFromTest, FilterBlocksArcs) {
  std::vector<bool> reach =
      ReachableFrom(FrozenGraph(3, std::vector<Arc>{{0, 1, 1}, {1, 2, 2}},
                                /*influence_color=*/1),
                    0, FrozenArcClass::kInfluence);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
}

TEST(FindSubgraphsDfsTest, MembersSortedAndComplete) {
  WccResult wcc = FindSubgraphsDfs(
      FrozenGraph(5, std::vector<Arc>{{4, 2, 0}, {2, 0, 0}}));
  EXPECT_EQ(wcc.num_components, 3u);
  std::vector<NodeId> big = wcc.members[wcc.component_of[0]];
  EXPECT_EQ(big, (std::vector<NodeId>{0, 2, 4}));
}

}  // namespace
}  // namespace tpiin
