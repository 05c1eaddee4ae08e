// Influence-weight semantics through the builder and the fusion
// pipeline (§7 future-work edge weights).

#include <gtest/gtest.h>

#include "common/timer.h"
#include "fusion/pipeline.h"
#include "fusion/tpiin.h"

namespace tpiin {
namespace {

// Prevents the timed loops from being optimized away.
volatile double benchmark_sink_ = 0;

TEST(WeightsTest, BuilderKeepsMaximumOnDuplicates) {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c = builder.AddCompanyNode("C");
  builder.AddInfluenceArc(p, c, 0.3);
  builder.AddInfluenceArc(p, c, 0.9);  // Duplicate raises the weight.
  builder.AddInfluenceArc(p, c, 0.5);  // Weaker duplicate is ignored.
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  ASSERT_EQ(net->NumArcs(), 1u);
  EXPECT_DOUBLE_EQ(net->ArcWeight(0), 0.9);

  // Two keys interleaved a, b, a, b, a, each key's maximum last: arc
  // ids follow first occurrence and each weight is its key's maximum.
  TpiinBuilder interleaved;
  NodeId q = interleaved.AddPersonNode("Q");
  NodeId a = interleaved.AddCompanyNode("A");
  NodeId b = interleaved.AddCompanyNode("B");
  interleaved.AddInfluenceArc(q, b, 0.2);
  interleaved.AddInfluenceArc(q, a, 0.3);
  interleaved.AddInfluenceArc(q, b, 0.6);
  interleaved.AddInfluenceArc(q, a, 0.4);
  interleaved.AddInfluenceArc(q, b, 0.8);
  auto two = interleaved.Build();
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two->NumArcs(), 2u);
  EXPECT_EQ(two->arc(0).dst, b);
  EXPECT_EQ(two->arc(1).dst, a);
  EXPECT_DOUBLE_EQ(two->ArcWeight(0), 0.8);
  EXPECT_DOUBLE_EQ(two->ArcWeight(1), 0.4);
}

TEST(WeightsTest, TradingArcsCarryUnitWeight) {
  TpiinBuilder builder;
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  builder.AddTradingArc(c1, c2);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  EXPECT_DOUBLE_EQ(net->ArcWeight(0), 1.0);
}

TEST(WeightsTest, PipelineAssignsRoleBasedWeights) {
  RawDataset data;
  PersonId lp = data.AddPerson("LP", kRoleCeo);
  PersonId director = data.AddPerson("D", kRoleDirector);
  CompanyId c1 = data.AddCompany("C1");
  CompanyId c2 = data.AddCompany("C2");
  data.AddInfluence(lp, c1, InfluenceKind::kCeoOf, true);
  data.AddInfluence(lp, c2, InfluenceKind::kCeoOf, true);
  data.AddInfluence(director, c1, InfluenceKind::kDirectorOf, false);
  data.AddInvestment(c1, c2, 0.64);
  auto fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok());
  const Tpiin& net = fused->tpiin;

  auto weight_of = [&](NodeId src, NodeId dst) {
    for (ArcId id = 0; id < net.num_influence_arcs(); ++id) {
      const Arc& arc = net.arc(id);
      if (arc.src == src && arc.dst == dst) return net.ArcWeight(id);
    }
    ADD_FAILURE() << "arc not found";
    return -1.0;
  };
  // Legal-person links are full strength; director links weaker;
  // investment arcs carry the share fraction.
  EXPECT_DOUBLE_EQ(
      weight_of(net.NodeOfPerson(lp), net.NodeOfCompany(c1)), 1.0);
  EXPECT_DOUBLE_EQ(
      weight_of(net.NodeOfPerson(director), net.NodeOfCompany(c1)), 0.6);
  EXPECT_DOUBLE_EQ(
      weight_of(net.NodeOfCompany(c1), net.NodeOfCompany(c2)), 0.64);
}

TEST(WeightsTest, LpLinkDominatesDirectorLinkOnSamePair) {
  RawDataset data;
  PersonId p = data.AddPerson("P", kRoleCeo);
  CompanyId c = data.AddCompany("C");
  data.AddInfluence(p, c, InfluenceKind::kDirectorOf, false);  // 0.6.
  data.AddInfluence(p, c, InfluenceKind::kCeoOf, true);        // 1.0.
  auto fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(fused->tpiin.num_influence_arcs(), 1u);
  EXPECT_DOUBLE_EQ(fused->tpiin.ArcWeight(0), 1.0);
}

TEST(TimerTest, WallTimerMeasuresForwardTime) {
  WallTimer timer;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i * 0.5;
  benchmark_sink_ = sink;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMicros(), 0);
  double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LE(timer.ElapsedSeconds(), before + 1.0);
}

TEST(TimerTest, ScopedTimerAccumulates) {
  double sink = 0;
  {
    ScopedTimer timer(&sink);
    int work = 0;
    for (int i = 0; i < 1000; ++i) work += i;
    benchmark_sink_ = work;
  }
  double first = sink;
  EXPECT_GE(first, 0.0);
  {
    ScopedTimer timer(&sink);
  }
  EXPECT_GE(sink, first);  // Accumulates, never resets.
}

}  // namespace
}  // namespace tpiin
