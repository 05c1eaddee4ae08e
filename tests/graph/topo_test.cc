#include "graph/topo.h"

#include <vector>

#include <gtest/gtest.h>

namespace tpiin {
namespace {

TEST(TopoTest, EmptyAndSingleton) {
  EXPECT_TRUE(TopologicalSort(FrozenGraph(0, {}))->empty());
  EXPECT_EQ(TopologicalSort(FrozenGraph(1, {}))->size(), 1u);
}

TEST(TopoTest, OrderRespectsArcs) {
  const std::vector<Arc> arcs = {{0, 2, 0}, {2, 4, 0}, {1, 2, 0}, {3, 4, 0}};
  auto order = TopologicalSort(FrozenGraph(5, arcs));
  ASSERT_TRUE(order.ok());
  std::vector<size_t> pos(5);
  for (size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  for (const Arc& arc : arcs) {
    EXPECT_LT(pos[arc.src], pos[arc.dst]);
  }
}

TEST(TopoTest, CycleIsFailedPrecondition) {
  const FrozenGraph g(3, std::vector<Arc>{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}});
  EXPECT_TRUE(TopologicalSort(g).status().IsFailedPrecondition());
  EXPECT_FALSE(IsDag(g));
}

TEST(TopoTest, SelfLoopIsCycle) {
  EXPECT_FALSE(IsDag(FrozenGraph(2, std::vector<Arc>{{0, 0, 0}})));
}

TEST(TopoTest, FilterCanRestoreAcyclicity) {
  // The cycle-closing arc has a different color.
  const FrozenGraph g(3, std::vector<Arc>{{0, 1, 1}, {1, 2, 1}, {2, 0, 9}},
                      /*influence_color=*/1);
  EXPECT_FALSE(IsDag(g));
  EXPECT_TRUE(IsDag(g, FrozenArcClass::kInfluence));
}

}  // namespace
}  // namespace tpiin
