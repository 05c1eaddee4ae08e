// The parallel graph drivers (partitioned Tarjan SCC, chunked-forest
// WCC, chunked UnionArcs) promise bit-identical output to their serial
// counterparts at any thread count. These tests exercise graphs above
// the parallel-engagement thresholds (2^13 nodes / 2^14 arcs) so the
// concurrent code paths actually run, plus small graphs that take the
// serial fallback.

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/connected.h"
#include "graph/frozen.h"
#include "graph/scc.h"
#include "graph/union_find.h"

namespace tpiin {
namespace {

// Random two-color arc table. Arcs are clustered inside blocks of
// `block` nodes so the graph has many weakly connected partitions of
// varying size — the shape the partition-parallel SCC driver fans out
// over — with a sprinkle of long-range arcs to create big partitions.
std::vector<Arc> RandomArcs(uint64_t seed, NodeId n, ArcId m, NodeId block) {
  Rng rng(seed);
  std::vector<Arc> arcs;
  for (ArcId i = 0; i < m; ++i) {
    NodeId src = static_cast<NodeId>(rng.UniformU64(n));
    NodeId dst;
    if (rng.UniformU64(100) < 95) {
      NodeId base = src - (src % block);
      dst = base + static_cast<NodeId>(rng.UniformU64(block));
      if (dst >= n) dst = n - 1;
    } else {
      dst = static_cast<NodeId>(rng.UniformU64(n));
    }
    arcs.push_back(Arc{src, dst, static_cast<ArcColor>(rng.UniformU64(2))});
  }
  return arcs;
}

void ExpectSccEqual(const SccResult& expected, const SccResult& actual) {
  EXPECT_EQ(actual.num_components, expected.num_components);
  EXPECT_EQ(actual.component_of, expected.component_of);
  EXPECT_EQ(actual.members, expected.members);
  EXPECT_EQ(actual.nontrivial_components,
            expected.nontrivial_components);
}

class ParallelGraphTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParallelGraphTest, SccMatchesSerialAboveThreshold) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    FrozenGraph frozen(20000,
                       RandomArcs(seed, /*n=*/20000, /*m=*/50000,
                                  /*block=*/64),
                       /*influence_color=*/1);
    SccResult serial =
        StronglyConnectedComponents(frozen, FrozenArcClass::kAll);
    SccResult parallel = StronglyConnectedComponents(
        frozen, FrozenArcClass::kAll, GetParam());
    ExpectSccEqual(serial, parallel);

    SccResult serial_infl =
        StronglyConnectedComponents(frozen, FrozenArcClass::kInfluence);
    SccResult parallel_infl = StronglyConnectedComponents(
        frozen, FrozenArcClass::kInfluence, GetParam());
    ExpectSccEqual(serial_infl, parallel_infl);
  }
}

TEST_P(ParallelGraphTest, SccMatchesSerialOnOneBigPartition) {
  // A single weak partition forces the parallel driver through its
  // single-partition fallback (nothing to fan out over).
  Rng rng(11);
  const NodeId n = 10000;
  std::vector<Arc> arcs;
  for (NodeId v = 0; v + 1 < n; ++v) arcs.push_back(Arc{v, v + 1, 0});
  for (int i = 0; i < 2000; ++i) {
    NodeId src = static_cast<NodeId>(rng.UniformU64(n));
    NodeId dst = static_cast<NodeId>(rng.UniformU64(n));
    arcs.push_back(Arc{src, dst, 0});
  }
  FrozenGraph frozen(n, arcs);
  ExpectSccEqual(
      StronglyConnectedComponents(frozen, FrozenArcClass::kAll),
      StronglyConnectedComponents(frozen, FrozenArcClass::kAll,
                                  GetParam()));
}

TEST_P(ParallelGraphTest, SccMatchesSerialBelowThreshold) {
  FrozenGraph frozen(
      500, RandomArcs(7, /*n=*/500, /*m=*/1500, /*block=*/16));
  ExpectSccEqual(
      StronglyConnectedComponents(frozen, FrozenArcClass::kAll),
      StronglyConnectedComponents(frozen, FrozenArcClass::kAll,
                                  GetParam()));
}

TEST_P(ParallelGraphTest, WccMatchesSerialAboveThreshold) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    FrozenGraph frozen(20000,
                       RandomArcs(100 + seed, /*n=*/20000, /*m=*/40000,
                                  /*block=*/32),
                       /*influence_color=*/1);
    for (FrozenArcClass arc_class :
         {FrozenArcClass::kAll, FrozenArcClass::kInfluence}) {
      WccResult serial = WeaklyConnectedComponents(frozen, arc_class);
      WccResult parallel =
          WeaklyConnectedComponents(frozen, arc_class, GetParam());
      EXPECT_EQ(parallel.num_components, serial.num_components);
      EXPECT_EQ(parallel.component_of, serial.component_of);
      EXPECT_EQ(parallel.members, serial.members);
    }
  }
}

TEST_P(ParallelGraphTest, UnionArcsMatchesSerialAboveThreshold) {
  Rng rng(42);
  const NodeId n = 30000;
  std::vector<Arc> arcs;
  for (int i = 0; i < 70000; ++i) {
    arcs.push_back(Arc{static_cast<NodeId>(rng.UniformU64(n)),
                       static_cast<NodeId>(rng.UniformU64(n)), 0});
  }
  UnionFind serial = UnionArcs(n, arcs, 1);
  UnionFind parallel = UnionArcs(n, arcs, GetParam());
  EXPECT_EQ(parallel.NumSets(), serial.NumSets());
  EXPECT_EQ(parallel.DenseComponentIds(), serial.DenseComponentIds());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelGraphTest,
                         ::testing::Values(2u, 4u, 8u));

}  // namespace
}  // namespace tpiin
