// Full two-phase pipeline on a synthetic province: generate -> plant ->
// fuse -> detect (MSG) -> ledger -> audit (ITE), with the paper's
// invariants checked along the way.

#include <set>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/detector.h"
#include "datagen/plant.h"
#include "datagen/province.h"
#include "fusion/pipeline.h"
#include "graph/topo.h"
#include "ite/audit.h"
#include "ite/ledger.h"

namespace tpiin {
namespace {

class EndToEndTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EndToEndTest, FullPipelineInvariantsHold) {
  ProvinceConfig config = SmallProvinceConfig(150, GetParam());
  config.trading_probability = 0.005;
  config.num_investment_cycles = GetParam() % 2;
  auto province = GenerateProvince(config);
  ASSERT_TRUE(province.ok());
  Rng rng(GetParam() * 31 + 1);
  std::vector<PlantedScheme> planted =
      PlantSuspiciousTrades(province->dataset, rng, 20);

  // Fusion invariants.
  auto fused = BuildTpiin(province->dataset);
  ASSERT_TRUE(fused.ok());
  const Tpiin& net = fused->tpiin;
  EXPECT_TRUE(IsDag(net.frozen(), FrozenArcClass::kInfluence));
  for (ArcId id = 0; id < net.NumArcs(); ++id) {
    bool influence = IsInfluenceArc(net.arc(id));
    EXPECT_EQ(influence, id < net.num_influence_arcs());
  }

  // MSG phase.
  auto detection = DetectSuspiciousGroups(net);
  ASSERT_TRUE(detection.ok());

  // Accuracy: identical to the root-anchored baseline (Table 1's 100%).
  BaselineOptions baseline_options;
  baseline_options.collect_groups = false;
  BaselineResult baseline = DetectBaseline(net, baseline_options);
  EXPECT_EQ(detection->num_simple, baseline.num_simple);
  EXPECT_EQ(detection->num_complex, baseline.num_complex);
  EXPECT_EQ(detection->suspicious_trades, baseline.suspicious_trades);

  // Planted schemes all flagged.
  std::set<std::pair<NodeId, NodeId>> suspicious(
      detection->suspicious_trades.begin(),
      detection->suspicious_trades.end());
  std::set<std::pair<CompanyId, CompanyId>> intra;
  for (const IntraSyndicateFinding& finding : detection->intra_syndicate) {
    intra.emplace(finding.seller, finding.buyer);
  }
  std::vector<std::pair<CompanyId, CompanyId>> iat_pairs;
  for (const PlantedScheme& scheme : planted) {
    iat_pairs.emplace_back(scheme.seller, scheme.buyer);
    bool flagged =
        suspicious.count({net.NodeOfCompany(scheme.seller),
                          net.NodeOfCompany(scheme.buyer)}) > 0 ||
        intra.count({scheme.seller, scheme.buyer}) > 0;
    EXPECT_TRUE(flagged) << "planted " << SchemeKindName(scheme.kind);
  }

  // ITE phase: the screened audit must recover every planted mispricing
  // while examining a strict subset of the ledger.
  Ledger ledger = GenerateLedger(province->dataset.trades(), iat_pairs);
  std::vector<std::pair<CompanyId, CompanyId>> suspicious_pairs;
  for (const auto& [seller_node, buyer_node] :
       detection->suspicious_trades) {
    for (CompanyId s : net.node(seller_node).company_members) {
      for (CompanyId b : net.node(buyer_node).company_members) {
        suspicious_pairs.emplace_back(s, b);
      }
    }
  }
  for (const auto& pair : intra) suspicious_pairs.push_back(pair);

  AuditReport screened = RunAudit(ledger, suspicious_pairs);
  AuditOptions full_options;
  full_options.examine_all = true;
  AuditReport full = RunAudit(ledger, {}, full_options);
  EXPECT_DOUBLE_EQ(screened.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(full.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(screened.total_adjustment, full.total_adjustment);
  if (!ledger.transactions.empty()) {
    EXPECT_LT(screened.ExaminedFraction(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(DeterminismTest, WholePipelineIsReproducible) {
  auto run = [](uint64_t seed) {
    ProvinceConfig config = SmallProvinceConfig(120, seed);
    config.trading_probability = 0.01;
    auto province = GenerateProvince(config);
    EXPECT_TRUE(province.ok());
    auto fused = BuildTpiin(province->dataset);
    EXPECT_TRUE(fused.ok());
    auto detection = DetectSuspiciousGroups(fused->tpiin);
    EXPECT_TRUE(detection.ok());
    return std::make_tuple(detection->num_simple, detection->num_complex,
                           detection->suspicious_trades);
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(std::get<2>(run(5)), std::get<2>(run(6)));
}

}  // namespace
}  // namespace tpiin
