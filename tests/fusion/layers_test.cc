#include "fusion/layers.h"

#include <vector>

#include <gtest/gtest.h>

namespace tpiin {
namespace {

RawDataset TwoCompanyDataset() {
  RawDataset data;
  PersonId p1 = data.AddPerson("L1", kRoleCeo);
  PersonId p2 = data.AddPerson("L2", kRoleCeo);
  CompanyId c1 = data.AddCompany("C1");
  CompanyId c2 = data.AddCompany("C2");
  data.AddInfluence(p1, c1, InfluenceKind::kCeoOf, true);
  data.AddInfluence(p2, c2, InfluenceKind::kCeoOf, true);
  return data;
}

TEST(LayersTest, InterdependenceDedupsPairsKeepingFirst) {
  RawDataset data = TwoCompanyDataset();
  data.AddInterdependence(0, 1, InterdependenceKind::kKinship);
  data.AddInterdependence(1, 0, InterdependenceKind::kInterlocking);
  std::vector<Arc> g1 = BuildInterdependenceGraph(data);
  ASSERT_EQ(g1.size(), 1u);  // "If both exist, keep one" (§4.1).
  EXPECT_EQ(g1[0].color, kLayerKinship);
  // Normalized direction: low id -> high id.
  EXPECT_EQ(g1[0].src, 0u);
  EXPECT_EQ(g1[0].dst, 1u);
}

TEST(LayersTest, InterdependenceKeepsDistinctPairs) {
  RawDataset data = TwoCompanyDataset();
  data.AddPerson("L3", kRoleCeo);
  data.AddInterdependence(0, 1, InterdependenceKind::kKinship);
  data.AddInterdependence(1, 2, InterdependenceKind::kInterlocking);
  EXPECT_EQ(BuildInterdependenceGraph(data).size(), 2u);
}

TEST(LayersTest, InfluenceLayerIsBipartite) {
  RawDataset data = TwoCompanyDataset();
  data.AddInfluence(0, 1, InfluenceKind::kDirectorOf, false);
  data.AddInfluence(0, 1, InfluenceKind::kChairmanOf, false);  // Duplicate pair.
  std::vector<Arc> g2 = BuildInfluenceLayerGraph(data);
  EXPECT_EQ(g2.size(), 3u);  // 2 LP links + 1 deduped director link.
  // 2 persons + 2 companies.
  for (const Arc& arc : g2) {
    EXPECT_LT(arc.src, 2u);   // Person side.
    EXPECT_GE(arc.dst, 2u);   // Company side.
    EXPECT_EQ(arc.color, kLayerInfluence);
  }
}

TEST(LayersTest, InvestmentGraphDedups) {
  RawDataset data = TwoCompanyDataset();
  data.AddInvestment(0, 1, 0.6);
  data.AddInvestment(0, 1, 0.7);
  data.AddInvestment(1, 0, 0.2);
  std::vector<Arc> gi = BuildInvestmentGraph(data);
  EXPECT_EQ(gi.size(), 2u);  // 0->1 deduped; 1->0 kept (directional).
  for (const Arc& arc : gi) {
    EXPECT_LT(arc.src, 2u);  // One node per company.
    EXPECT_LT(arc.dst, 2u);
  }
}

TEST(LayersTest, TradingGraphDedups) {
  RawDataset data = TwoCompanyDataset();
  data.AddTrade(0, 1);
  data.AddTrade(0, 1);
  data.AddTrade(1, 0);
  EXPECT_EQ(BuildTradingGraph(data).size(), 2u);
}

}  // namespace
}  // namespace tpiin
