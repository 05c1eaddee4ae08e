#include "core/subtpiin.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "tests/core/test_util.h"

namespace tpiin {
namespace {

// Two antecedent components: {P1, C1, C2} and {P2, C3, C4}, with
// internal trades C1->C2, C3->C4 and a cross-component trade C2->C3.
Tpiin TwoComponentNet() {
  TpiinBuilder builder;
  NodeId p1 = builder.AddPersonNode("P1");
  NodeId p2 = builder.AddPersonNode("P2");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  NodeId c3 = builder.AddCompanyNode("C3");
  NodeId c4 = builder.AddCompanyNode("C4");
  builder.AddInfluenceArc(p1, c1);
  builder.AddInfluenceArc(p1, c2);
  builder.AddInfluenceArc(p2, c3);
  builder.AddInfluenceArc(p2, c4);
  builder.AddTradingArc(c1, c2);
  builder.AddTradingArc(c3, c4);
  builder.AddTradingArc(c2, c3);  // Cross-component: unsuspicious.
  auto net = builder.Build();
  EXPECT_TRUE(net.ok());
  return std::move(net).value();
}

TEST(SegmentTest, CrossComponentTradesAreDropped) {
  Tpiin net = TwoComponentNet();
  SegmentStats stats;
  std::vector<SubTpiin> subs = SegmentTpiin(net, {}, &stats);
  EXPECT_EQ(stats.num_components, 2u);
  EXPECT_EQ(stats.trading_arcs_internal, 2u);
  EXPECT_EQ(stats.trading_arcs_cross, 1u);
  ASSERT_EQ(subs.size(), 2u);
  for (const SubTpiin& sub : subs) {
    EXPECT_EQ(sub.frozen.NumNodes(), 3u);
    EXPECT_EQ(sub.num_influence_arcs, 2u);
    EXPECT_EQ(sub.num_trading_arcs(), 1u);
  }
}

TEST(SegmentTest, LocalGlobalMappingsRoundTrip) {
  Tpiin net = TwoComponentNet();
  for (const SubTpiin& sub : SegmentTpiin(net)) {
    for (NodeId local = 0; local < sub.frozen.NumNodes(); ++local) {
      NodeId global = sub.ToGlobal(local);
      EXPECT_LT(global, net.NumNodes());
      EXPECT_EQ(sub.Label(local), net.Label(global));
    }
    const std::vector<Arc> arcs = LocalArcTable(sub);
    for (ArcId local = 0; local < sub.frozen.NumArcs(); ++local) {
      const Arc& local_arc = arcs[local];
      const Arc& global_arc = net.arc(sub.ToGlobalArc(local));
      EXPECT_EQ(local_arc.color, global_arc.color);
      EXPECT_EQ(sub.ToGlobal(local_arc.src), global_arc.src);
      EXPECT_EQ(sub.ToGlobal(local_arc.dst), global_arc.dst);
    }
  }
}

TEST(SegmentTest, InfluenceArcsPrecedeTradingLocally) {
  Tpiin net = TwoComponentNet();
  for (const SubTpiin& sub : SegmentTpiin(net)) {
    const std::vector<Arc> arcs = LocalArcTable(sub);
    for (ArcId id = 0; id < sub.frozen.NumArcs(); ++id) {
      bool is_influence = IsInfluenceArc(arcs[id]);
      EXPECT_EQ(is_influence, id < sub.num_influence_arcs);
    }
  }
}

TEST(SegmentTest, TradelessComponentsSkippedByDefault) {
  TpiinBuilder builder;
  NodeId p1 = builder.AddPersonNode("P1");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId p2 = builder.AddPersonNode("P2");
  NodeId c2 = builder.AddCompanyNode("C2");
  NodeId c3 = builder.AddCompanyNode("C3");
  builder.AddInfluenceArc(p1, c1);
  builder.AddInfluenceArc(p2, c2);
  builder.AddInfluenceArc(p2, c3);
  builder.AddTradingArc(c2, c3);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());

  SegmentStats stats;
  std::vector<SubTpiin> defaults = SegmentTpiin(*net, {}, &stats);
  EXPECT_EQ(stats.num_components, 2u);
  EXPECT_EQ(defaults.size(), 1u);  // {P1,C1} has no internal trade.

  SegmentOptions keep_all;
  keep_all.skip_tradeless = false;
  EXPECT_EQ(SegmentTpiin(*net, keep_all).size(), 2u);
}

TEST(SegmentTest, SingletonComponentsSkipped) {
  TpiinBuilder builder;
  builder.AddPersonNode("Idle");
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(p, c2);
  builder.AddTradingArc(c1, c2);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  SegmentStats stats;
  std::vector<SubTpiin> subs = SegmentTpiin(*net, {}, &stats);
  EXPECT_EQ(stats.num_components, 2u);  // The idle person is a singleton.
  EXPECT_EQ(subs.size(), 1u);
}

}  // namespace
}  // namespace tpiin
