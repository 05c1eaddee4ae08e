// FrozenGraph: the immutable CSR graph with color-partitioned adjacency,
// built from an arc table. The contract under test: every arc appears
// exactly once in the out CSR and once in the in CSR, each node's run is
// partitioned with the influence class first, and within a color class
// both runs list arcs in ascending arc id.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/frozen.h"

namespace tpiin {
namespace {

constexpr ArcColor kTrading = 0;
constexpr ArcColor kInfluence = 1;

bool Ascending(std::span<const ArcId> ids) {
  return std::is_sorted(ids.begin(), ids.end());
}

TEST(FrozenGraphTest, EmptyGraph) {
  FrozenGraph fg(0, {}, kInfluence);
  EXPECT_EQ(fg.NumNodes(), 0u);
  EXPECT_EQ(fg.NumArcs(), 0u);
  EXPECT_EQ(fg.NumInfluenceArcs(), 0u);
}

TEST(FrozenGraphTest, SingletonNodeHasEmptySpans) {
  FrozenGraph fg(1, {}, kInfluence);
  EXPECT_EQ(fg.NumNodes(), 1u);
  EXPECT_EQ(fg.NumArcs(), 0u);
  EXPECT_TRUE(fg.Out(0).empty());
  EXPECT_TRUE(fg.In(0).empty());
  EXPECT_TRUE(fg.InfluenceOut(0).empty());
  EXPECT_TRUE(fg.TradingOut(0).empty());
  EXPECT_TRUE(fg.InfluenceIn(0).empty());
  EXPECT_TRUE(fg.TradingIn(0).empty());
  EXPECT_EQ(fg.OutDegree(0), 0u);
  EXPECT_EQ(fg.InDegree(0), 0u);
}

TEST(FrozenGraphTest, DefaultConstructedIsEmpty) {
  FrozenGraph fg;
  EXPECT_EQ(fg.NumNodes(), 0u);
  EXPECT_EQ(fg.NumArcs(), 0u);
}

// Arcs listed with the colors interleaved still come out partitioned:
// influence run first, then trading, each in arc-id order.
TEST(FrozenGraphTest, PartitionsInterleavedColors) {
  const ArcId t0 = 0, i0 = 1, t1 = 2, i1 = 3;
  FrozenGraph fg(5,
                 std::vector<Arc>{{0, 1, kTrading},
                                  {0, 2, kInfluence},
                                  {0, 3, kTrading},
                                  {0, 4, kInfluence}},
                 kInfluence);

  EXPECT_EQ(fg.NumInfluenceArcs(), 2u);
  ASSERT_EQ(fg.OutDegree(0), 4u);
  ASSERT_EQ(fg.InfluenceOutDegree(0), 2u);
  ASSERT_EQ(fg.TradingOutDegree(0), 2u);

  AdjSpan influence = fg.InfluenceOut(0);
  EXPECT_EQ(std::vector<NodeId>(influence.nodes.begin(),
                                influence.nodes.end()),
            (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(std::vector<ArcId>(influence.arcs.begin(), influence.arcs.end()),
            (std::vector<ArcId>{i0, i1}));

  AdjSpan trading = fg.TradingOut(0);
  EXPECT_EQ(std::vector<NodeId>(trading.nodes.begin(), trading.nodes.end()),
            (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(std::vector<ArcId>(trading.arcs.begin(), trading.arcs.end()),
            (std::vector<ArcId>{t0, t1}));

  // The full run is the concatenation: influence first.
  AdjSpan all = fg.Out(0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.nodes[0], 2u);
  EXPECT_EQ(all.nodes[1], 4u);
  EXPECT_EQ(all.nodes[2], 1u);
  EXPECT_EQ(all.nodes[3], 3u);
}

TEST(FrozenGraphTest, PartitionBoundariesAtAllInfluenceAndAllTrading) {
  FrozenGraph fg(3,
                 std::vector<Arc>{{0, 1, kInfluence},
                                  {0, 2, kInfluence},
                                  {1, 2, kTrading}},
                 kInfluence);

  // Node 0: all influence — trading span empty, at the run's end.
  EXPECT_EQ(fg.InfluenceOutDegree(0), 2u);
  EXPECT_EQ(fg.TradingOutDegree(0), 0u);
  EXPECT_TRUE(fg.TradingOut(0).empty());
  // Node 1: all trading — influence span empty, at the run's start.
  EXPECT_EQ(fg.InfluenceOutDegree(1), 0u);
  EXPECT_EQ(fg.TradingOutDegree(1), 1u);
  EXPECT_TRUE(fg.InfluenceOut(1).empty());
  // Node 2: sink; in-CSR partitioned the same way.
  EXPECT_EQ(fg.InfluenceInDegree(2), 1u);
  EXPECT_EQ(fg.TradingInDegree(2), 1u);
  EXPECT_EQ(fg.InfluenceIn(2).nodes[0], 0u);
  EXPECT_EQ(fg.TradingIn(2).nodes[0], 1u);
}

// Every arc of the table appears exactly once in the out CSR and once in
// the in CSR, with matching endpoints.
TEST(FrozenGraphTest, InOutSymmetry) {
  const std::vector<Arc> arcs = {
      {0, 3, kInfluence}, {3, 4, kInfluence}, {1, 3, kInfluence},
      {4, 5, kTrading},   {3, 5, kTrading},
      {5, 3, kTrading},     // Back-arc: both directions between 3 and 5.
      {2, 2, kInfluence},   // Self-loop.
  };
  FrozenGraph fg(8, arcs, kInfluence);
  ASSERT_EQ(fg.NumArcs(), arcs.size());

  std::vector<uint8_t> seen_out(arcs.size(), 0);
  std::vector<uint8_t> seen_in(arcs.size(), 0);
  for (NodeId v = 0; v < fg.NumNodes(); ++v) {
    AdjSpan out = fg.Out(v);
    for (size_t i = 0; i < out.size(); ++i) {
      const Arc& arc = arcs[out.arcs[i]];
      EXPECT_EQ(arc.src, v);
      EXPECT_EQ(arc.dst, out.nodes[i]);
      EXPECT_EQ(++seen_out[out.arcs[i]], 1);
    }
    AdjSpan in = fg.In(v);
    for (size_t i = 0; i < in.size(); ++i) {
      const Arc& arc = arcs[in.arcs[i]];
      EXPECT_EQ(arc.dst, v);
      EXPECT_EQ(arc.src, in.nodes[i]);
      EXPECT_EQ(++seen_in[in.arcs[i]], 1);
    }
    // Degree accessors agree with the spans.
    EXPECT_EQ(fg.OutDegree(v), out.size());
    EXPECT_EQ(fg.InDegree(v), in.size());
    EXPECT_EQ(fg.InfluenceOutDegree(v) + fg.TradingOutDegree(v),
              fg.OutDegree(v));
    EXPECT_EQ(fg.InfluenceInDegree(v) + fg.TradingInDegree(v),
              fg.InDegree(v));
  }
  for (ArcId id = 0; id < arcs.size(); ++id) {
    EXPECT_EQ(seen_out[id], 1) << "arc " << id;
    EXPECT_EQ(seen_in[id], 1) << "arc " << id;
  }
}

TEST(FrozenGraphTest, OutClassSelectorsMatchNamedSpans) {
  FrozenGraph fg(3, std::vector<Arc>{{0, 1, kInfluence}, {0, 2, kTrading}},
                 kInfluence);
  EXPECT_EQ(fg.OutClass(0, FrozenArcClass::kAll).size(), 2u);
  EXPECT_EQ(fg.OutClass(0, FrozenArcClass::kInfluence).nodes[0], 1u);
  EXPECT_EQ(fg.OutClass(0, FrozenArcClass::kTrading).nodes[0], 2u);
  EXPECT_EQ(fg.InClass(1, FrozenArcClass::kInfluence).size(), 1u);
  EXPECT_EQ(fg.InClass(1, FrozenArcClass::kTrading).size(), 0u);
  EXPECT_EQ(fg.InClass(2, FrozenArcClass::kTrading).nodes[0], 0u);
}

// The stable counting sort: within each color class, every out run and
// every in run lists its arcs in ascending arc id, whatever order the
// endpoints appear in the table.
TEST(FrozenGraphTest, RunsFollowArcIdOrderWithinEachClass) {
  Rng rng(3);
  const NodeId n = 12;
  std::vector<Arc> arcs(300);
  for (Arc& arc : arcs) {
    arc.src = static_cast<NodeId>(rng.UniformU64(n));
    arc.dst = static_cast<NodeId>(rng.UniformU64(n));
    arc.color = rng.Bernoulli(0.5) ? kInfluence : kTrading;
  }
  FrozenGraph fg(n, arcs, kInfluence);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_TRUE(Ascending(fg.InfluenceOut(v).arcs)) << "node " << v;
    EXPECT_TRUE(Ascending(fg.TradingOut(v).arcs)) << "node " << v;
    EXPECT_TRUE(Ascending(fg.InfluenceIn(v).arcs)) << "node " << v;
    EXPECT_TRUE(Ascending(fg.TradingIn(v).arcs)) << "node " << v;
    for (ArcId id : fg.InfluenceOut(v).arcs) {
      EXPECT_EQ(arcs[id].color, kInfluence);
    }
    for (ArcId id : fg.TradingIn(v).arcs) {
      EXPECT_EQ(arcs[id].color, kTrading);
    }
  }

  // Single-color tables: the whole out run is in arc-id order.
  FrozenGraph one_color(4, std::vector<Arc>{{0, 1, 0}, {0, 3, 0}, {0, 2, 0}});
  AdjSpan out = one_color.Out(0);
  EXPECT_EQ(std::vector<NodeId>(out.nodes.begin(), out.nodes.end()),
            (std::vector<NodeId>{1, 3, 2}));
  EXPECT_EQ(std::vector<ArcId>(out.arcs.begin(), out.arcs.end()),
            (std::vector<ArcId>{0, 1, 2}));
  EXPECT_EQ(one_color.OutDegree(1), 0u);
}

TEST(FrozenGraphTest, ParallelArcsAndSelfLoopsKept) {
  FrozenGraph fg(2, std::vector<Arc>{{0, 1, 0}, {0, 1, 0}, {1, 1, 0}});
  EXPECT_EQ(fg.NumArcs(), 3u);
  EXPECT_EQ(fg.OutDegree(0), 2u);
  EXPECT_EQ(fg.InDegree(1), 3u);
  AdjSpan in = fg.In(1);
  EXPECT_EQ(std::vector<NodeId>(in.nodes.begin(), in.nodes.end()),
            (std::vector<NodeId>{0, 0, 1}));
  EXPECT_EQ(std::vector<ArcId>(in.arcs.begin(), in.arcs.end()),
            (std::vector<ArcId>{0, 1, 2}));
}

// The two CSR halves build concurrently at num_threads > 1; every array
// must be identical to the single-threaded build.
TEST(FrozenGraphTest, IdenticalAtOneAndFourThreads) {
  Rng rng(17);
  const NodeId n = 5000;
  std::vector<Arc> arcs(20000);
  for (Arc& arc : arcs) {
    arc.src = static_cast<NodeId>(rng.UniformU64(n));
    arc.dst = static_cast<NodeId>(rng.UniformU64(n));
    arc.color = rng.Bernoulli(0.3) ? kInfluence : kTrading;
  }
  const FrozenGraph serial(n, arcs, kInfluence, /*num_threads=*/1);
  const FrozenGraph parallel(n, arcs, kInfluence, /*num_threads=*/4);
  EXPECT_EQ(parallel.NumInfluenceArcs(), serial.NumInfluenceArcs());
  const FrozenGraph::Parts a = serial.parts();
  const FrozenGraph::Parts b = parallel.parts();
  auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_TRUE(same(a.out_offsets, b.out_offsets));
  EXPECT_TRUE(same(a.out_influence_end, b.out_influence_end));
  EXPECT_TRUE(same(a.out_targets, b.out_targets));
  EXPECT_TRUE(same(a.out_arc_ids, b.out_arc_ids));
  EXPECT_TRUE(same(a.in_offsets, b.in_offsets));
  EXPECT_TRUE(same(a.in_influence_end, b.in_influence_end));
  EXPECT_TRUE(same(a.in_sources, b.in_sources));
  EXPECT_TRUE(same(a.in_arc_ids, b.in_arc_ids));
}

}  // namespace
}  // namespace tpiin
