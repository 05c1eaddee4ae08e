#include "fusion/pipeline.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datagen/worked_example.h"
#include "graph/topo.h"

namespace tpiin {
namespace {

// Base dataset: three persons, three companies, one LP each.
RawDataset BaseDataset() {
  RawDataset data;
  for (int i = 0; i < 3; ++i) {
    data.AddPerson(StringPrintf("L%d", i + 1), kRoleCeo);
  }
  for (int i = 0; i < 3; ++i) {
    CompanyId c = data.AddCompany(StringPrintf("C%d", i + 1));
    data.AddInfluence(i, c, InfluenceKind::kCeoOf, true);
  }
  return data;
}

TEST(PipelineTest, ValidatesDatasetByDefault) {
  RawDataset data;  // No companies' LP -> invalid once a company exists.
  data.AddCompany("C1");
  EXPECT_TRUE(BuildTpiin(data).status().IsFailedPrecondition());
}

TEST(PipelineTest, ValidationCanBeSkipped) {
  // The same structurally-sound graph passes when the caller vouches.
  RawDataset data = BaseDataset();
  FusionOptions options;
  options.validate_dataset = false;
  EXPECT_TRUE(BuildTpiin(data, options).ok());
}

TEST(PipelineTest, PersonContractionMergesInterdependenceComponents) {
  RawDataset data = BaseDataset();
  data.AddInterdependence(0, 1, InterdependenceKind::kKinship);
  data.AddInterdependence(1, 2, InterdependenceKind::kInterlocking);
  auto fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok());
  // All three persons merged into one syndicate node.
  EXPECT_EQ(fused->stats.person_syndicates, 1u);
  EXPECT_EQ(fused->stats.persons_in_syndicates, 3u);
  NodeId syn = fused->tpiin.NodeOfPerson(0);
  EXPECT_EQ(fused->tpiin.NodeOfPerson(1), syn);
  EXPECT_EQ(fused->tpiin.NodeOfPerson(2), syn);
  EXPECT_TRUE(fused->tpiin.node(syn).IsSyndicate());
  EXPECT_EQ(fused->tpiin.node(syn).person_members.size(), 3u);
  // Syndicate label is the brace-joined member list.
  EXPECT_EQ(fused->tpiin.Label(syn), "{L1+L2+L3}");
}

TEST(PipelineTest, InfluenceArcsDedupAfterContraction) {
  RawDataset data = BaseDataset();
  data.AddInterdependence(0, 1, InterdependenceKind::kKinship);
  // After merging L1 and L2, their LP links to C1 and C2 stay distinct
  // arcs, but two director links to the same company collapse.
  data.AddInfluence(0, 2, InfluenceKind::kDirectorOf, false);
  data.AddInfluence(1, 2, InfluenceKind::kDirectorOf, false);
  auto fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok());
  // 3 LP links + 1 deduped director link.
  EXPECT_EQ(fused->stats.influence_arcs, 4u);
}

TEST(PipelineTest, InvestmentCycleContractsIntoCompanySyndicate) {
  RawDataset data = BaseDataset();
  data.AddInvestment(0, 1, 0.6);
  data.AddInvestment(1, 2, 0.6);
  data.AddInvestment(2, 0, 0.6);
  auto fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(fused->stats.company_syndicates, 1u);
  EXPECT_EQ(fused->stats.companies_in_syndicates, 3u);
  EXPECT_EQ(fused->stats.investment_arcs_intra_scc, 3u);
  NodeId syn = fused->tpiin.NodeOfCompany(0);
  EXPECT_EQ(fused->tpiin.NodeOfCompany(1), syn);
  EXPECT_EQ(fused->tpiin.NodeOfCompany(2), syn);
  EXPECT_EQ(fused->tpiin.node(syn).internal_investments.size(), 3u);
}

TEST(PipelineTest, IntraSyndicateTradeRecorded) {
  RawDataset data = BaseDataset();
  data.AddInvestment(0, 1, 0.6);
  data.AddInvestment(1, 0, 0.6);
  data.AddTrade(0, 1);  // Inside the future syndicate.
  data.AddTrade(0, 2);  // Regular arc.
  auto fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(fused->stats.intra_syndicate_trades, 1u);
  EXPECT_EQ(fused->stats.trading_arcs, 1u);
  ASSERT_EQ(fused->tpiin.intra_syndicate_trades().size(), 1u);
  EXPECT_EQ(fused->tpiin.intra_syndicate_trades()[0].seller, 0u);
  EXPECT_EQ(fused->tpiin.intra_syndicate_trades()[0].buyer, 1u);
}

TEST(PipelineTest, AntecedentIsAlwaysDag) {
  RawDataset data = BaseDataset();
  data.AddInvestment(0, 1, 0.6);
  data.AddInvestment(1, 2, 0.6);
  data.AddInvestment(2, 0, 0.6);  // Cycle contracted away.
  data.AddInvestment(1, 0, 0.6);
  auto fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(IsDag(fused->tpiin.frozen(), FrozenArcClass::kInfluence));
}

TEST(PipelineTest, TradingArcsDedupAndMapThroughContraction) {
  RawDataset data = BaseDataset();
  data.AddTrade(0, 1);
  data.AddTrade(0, 1);  // Duplicate record.
  data.AddTrade(1, 0);  // Opposite direction is distinct.
  auto fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(fused->stats.trading_arcs, 2u);

  // C1 and C2 contract into one syndicate. Each sells to C3, which maps
  // to one arc; the two trades between them stay two records.
  RawDataset syndicate = BaseDataset();
  syndicate.AddInvestment(0, 1, 0.6);
  syndicate.AddInvestment(1, 0, 0.6);
  syndicate.AddTrade(0, 2);
  syndicate.AddTrade(0, 1);
  syndicate.AddTrade(1, 2);
  syndicate.AddTrade(1, 0);
  auto contracted = BuildTpiin(syndicate);
  ASSERT_TRUE(contracted.ok());
  const Tpiin& net = contracted->tpiin;
  EXPECT_EQ(contracted->stats.trading_arcs, 1u);
  ASSERT_EQ(net.num_trading_arcs(), 1u);
  const Arc arc = net.arc(net.num_influence_arcs());
  EXPECT_EQ(arc.src, net.NodeOfCompany(0));
  EXPECT_EQ(arc.dst, net.NodeOfCompany(2));
  EXPECT_EQ(contracted->stats.intra_syndicate_trades, 2u);
  ASSERT_EQ(net.intra_syndicate_trades().size(), 2u);
  EXPECT_EQ(net.intra_syndicate_trades()[0].seller, 0u);
  EXPECT_EQ(net.intra_syndicate_trades()[0].buyer, 1u);
  EXPECT_EQ(net.intra_syndicate_trades()[1].seller, 1u);
  EXPECT_EQ(net.intra_syndicate_trades()[1].buyer, 0u);
}

TEST(PipelineTest, WorkedExampleMatchesDirectConstruction) {
  // Fusing the Fig. 7 dataset must produce a network isomorphic to the
  // directly-built Fig. 8 TPIIN: same counts, same labels modulo the
  // syndicate naming.
  auto fused = BuildTpiin(BuildWorkedExampleDataset());
  ASSERT_TRUE(fused.ok());
  Tpiin direct = BuildWorkedExampleTpiin();
  EXPECT_EQ(fused->tpiin.NumNodes(), direct.NumNodes());
  EXPECT_EQ(fused->tpiin.num_influence_arcs(), direct.num_influence_arcs());
  EXPECT_EQ(fused->tpiin.num_trading_arcs(), direct.num_trading_arcs());
  std::set<std::string> labels;
  for (NodeId v = 0; v < fused->tpiin.NumNodes(); ++v) {
    labels.insert(std::string(fused->tpiin.Label(v)));
  }
  EXPECT_TRUE(labels.count("{L6+LB}"));
  EXPECT_TRUE(labels.count("{B5+B6}"));
  EXPECT_TRUE(labels.count("C5"));
}

TEST(PipelineTest, StatsToStringMentionsEveryStage) {
  auto fused = BuildTpiin(BaseDataset());
  ASSERT_TRUE(fused.ok());
  std::string text = fused->stats.ToString();
  for (const char* needle : {"G1", "G2", "GI", "Antecedent", "Trading"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace tpiin
