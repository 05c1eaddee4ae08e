#include "graph/degree.h"

#include <vector>

#include <gtest/gtest.h>

namespace tpiin {
namespace {

TEST(DegreeStatsTest, EmptyGraph) {
  DegreeStats stats = ComputeDegreeStats(FrozenGraph(0, {}));
  EXPECT_EQ(stats.num_nodes, 0u);
  EXPECT_EQ(stats.num_arcs, 0u);
  EXPECT_DOUBLE_EQ(stats.average_degree, 0.0);
}

TEST(DegreeStatsTest, CountsAndAverages) {
  DegreeStats stats = ComputeDegreeStats(
      FrozenGraph(4, std::vector<Arc>{{0, 1, 0}, {0, 2, 0}, {1, 2, 0}}));
  EXPECT_EQ(stats.num_nodes, 4u);
  EXPECT_EQ(stats.num_arcs, 3u);
  // Gephi convention for directed graphs: |E| / |V|.
  EXPECT_DOUBLE_EQ(stats.average_degree, 0.75);
  EXPECT_EQ(stats.max_out_degree, 2u);
  EXPECT_EQ(stats.max_in_degree, 2u);
  EXPECT_EQ(stats.num_indegree_zero, 2u);   // 0 and 3.
  EXPECT_EQ(stats.num_outdegree_zero, 2u);  // 2 and 3.
  EXPECT_EQ(stats.num_isolated, 1u);        // 3.
}

TEST(DegreeStatsTest, FilterChangesEverything) {
  DegreeStats stats = ComputeDegreeStats(
      FrozenGraph(3, std::vector<Arc>{{0, 1, 1}, {1, 2, 2}},
                  /*influence_color=*/1),
      FrozenArcClass::kInfluence);
  EXPECT_EQ(stats.num_arcs, 1u);
  EXPECT_EQ(stats.num_isolated, 1u);  // Node 2 under the filter.
}

}  // namespace
}  // namespace tpiin
