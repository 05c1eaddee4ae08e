#include "datagen/province.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "fusion/pipeline.h"
#include "graph/topo.h"

namespace tpiin {
namespace {

TEST(ProvinceTest, SmallConfigGeneratesValidDataset) {
  auto province = GenerateProvince(SmallProvinceConfig(40, 7));
  ASSERT_TRUE(province.ok()) << province.status().ToString();
  EXPECT_TRUE(province->dataset.Validate().ok());
  EXPECT_EQ(province->dataset.companies().size(), 40u);
}

TEST(ProvinceTest, DeterministicForSameSeed) {
  auto a = GenerateProvince(SmallProvinceConfig(60, 11));
  auto b = GenerateProvince(SmallProvinceConfig(60, 11));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->dataset.persons().size(), b->dataset.persons().size());
  EXPECT_EQ(a->dataset.trades().size(), b->dataset.trades().size());
  for (size_t i = 0; i < a->dataset.trades().size(); ++i) {
    EXPECT_EQ(a->dataset.trades()[i].seller, b->dataset.trades()[i].seller);
    EXPECT_EQ(a->dataset.trades()[i].buyer, b->dataset.trades()[i].buyer);
  }
  for (size_t i = 0; i < a->dataset.influence().size(); ++i) {
    EXPECT_EQ(a->dataset.influence()[i].person,
              b->dataset.influence()[i].person);
  }
}

TEST(ProvinceTest, DifferentSeedsDiffer) {
  auto a = GenerateProvince(SmallProvinceConfig(60, 1));
  auto b = GenerateProvince(SmallProvinceConfig(60, 2));
  ASSERT_TRUE(a.ok() && b.ok());
  bool identical = a->dataset.trades().size() == b->dataset.trades().size();
  if (identical) {
    for (size_t i = 0; i < a->dataset.trades().size(); ++i) {
      if (a->dataset.trades()[i].seller != b->dataset.trades()[i].seller) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(ProvinceTest, PaperConfigMatchesPublishedPopulation) {
  ProvinceConfig config = PaperProvinceConfig();
  EXPECT_EQ(config.num_companies, 2452u);
  EXPECT_EQ(config.num_legal_persons, 1350u);
  EXPECT_EQ(config.num_directors, 776u);
  auto province = GenerateProvince(config);
  ASSERT_TRUE(province.ok());
  EXPECT_EQ(province->dataset.persons().size(), 2126u);
  EXPECT_EQ(province->dataset.companies().size(), 2452u);
}

TEST(ProvinceTest, GroupsPartitionCompanies) {
  auto province = GenerateProvince(SmallProvinceConfig(80, 13));
  ASSERT_TRUE(province.ok());
  std::set<CompanyId> seen;
  for (const std::vector<CompanyId>& group : province->groups) {
    EXPECT_FALSE(group.empty());
    for (CompanyId c : group) {
      EXPECT_TRUE(seen.insert(c).second) << "company in two groups";
    }
  }
  EXPECT_EQ(seen.size(), 80u);
}

TEST(ProvinceTest, InvestmentLayerIsAcyclicWithoutInjectedCycles) {
  auto province = GenerateProvince(SmallProvinceConfig(100, 17));
  ASSERT_TRUE(province.ok());
  std::vector<Arc> gi;
  for (const InvestmentRecord& rec : province->dataset.investments()) {
    gi.push_back(Arc{rec.investor, rec.investee, 0});
  }
  EXPECT_TRUE(IsDag(FrozenGraph(
      static_cast<NodeId>(province->dataset.companies().size()), gi)));
}

TEST(ProvinceTest, InjectedCyclesCreateSccSyndicates) {
  ProvinceConfig config = SmallProvinceConfig(60, 19);
  config.num_investment_cycles = 2;
  auto province = GenerateProvince(config);
  ASSERT_TRUE(province.ok());
  auto fused = BuildTpiin(province->dataset);
  ASSERT_TRUE(fused.ok());
  EXPECT_GE(fused->stats.company_syndicates, 1u);
}

TEST(ProvinceTest, TooFewLegalPersonsIsError) {
  ProvinceConfig config = SmallProvinceConfig(50, 3);
  config.num_legal_persons = 1;  // Dozens of groups need one LP each.
  auto province = GenerateProvince(config);
  EXPECT_TRUE(province.status().IsInvalidArgument());
}

TEST(ProvinceTest, ZeroCompaniesIsError) {
  ProvinceConfig config;
  config.num_companies = 0;
  EXPECT_TRUE(GenerateProvince(config).status().IsInvalidArgument());
}

TEST(ProvinceTest, FusedProvinceAntecedentIsDag) {
  auto province = GenerateProvince(SmallProvinceConfig(120, 23));
  ASSERT_TRUE(province.ok());
  auto fused = BuildTpiin(province->dataset);
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(IsDag(fused->tpiin.frozen(), FrozenArcClass::kInfluence));
}

TEST(TradingNetworkTest, ZeroProbabilityYieldsNoTrades) {
  Rng rng(1);
  EXPECT_TRUE(GenerateTradingNetwork(100, 0.0, rng).empty());
  EXPECT_TRUE(GenerateTradingNetwork(1, 0.5, rng).empty());
}

TEST(TradingNetworkTest, FullProbabilityYieldsCompleteGraph) {
  Rng rng(1);
  std::vector<TradeRecord> trades = GenerateTradingNetwork(5, 1.0, rng);
  EXPECT_EQ(trades.size(), 20u);  // 5 * 4 ordered pairs.
  std::set<std::pair<CompanyId, CompanyId>> unique;
  for (const TradeRecord& t : trades) {
    EXPECT_NE(t.seller, t.buyer);
    unique.emplace(t.seller, t.buyer);
  }
  EXPECT_EQ(unique.size(), 20u);
}

TEST(TradingNetworkTest, EdgeCountNearExpectation) {
  Rng rng(5);
  constexpr uint32_t kN = 500;
  constexpr double kP = 0.01;
  std::vector<TradeRecord> trades = GenerateTradingNetwork(kN, kP, rng);
  double expected = kN * (kN - 1) * kP;  // 2495.
  EXPECT_NEAR(static_cast<double>(trades.size()), expected,
              5 * std::sqrt(expected));
  for (const TradeRecord& t : trades) {
    EXPECT_LT(t.seller, kN);
    EXPECT_LT(t.buyer, kN);
    EXPECT_NE(t.seller, t.buyer);
  }
}

TEST(TradingNetworkTest, SlotsAreStrictlyIncreasingNoDuplicates) {
  Rng rng(9);
  std::vector<TradeRecord> trades = GenerateTradingNetwork(80, 0.05, rng);
  std::set<std::pair<CompanyId, CompanyId>> unique;
  for (const TradeRecord& t : trades) {
    EXPECT_TRUE(unique.emplace(t.seller, t.buyer).second);
  }
}

}  // namespace
}  // namespace tpiin
