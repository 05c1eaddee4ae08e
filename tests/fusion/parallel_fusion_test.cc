// FusionOptions::num_threads must be a pure performance knob: the
// fused TPIIN — node ids, labels, membership lists, arc ids, colors,
// weights and the build statistics — is bit-identical to the serial
// pipeline at any thread count.

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/province.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"

namespace tpiin {
namespace {

void ExpectTpiinEqual(const Tpiin& expected, const Tpiin& actual) {
  ASSERT_EQ(actual.NumNodes(), expected.NumNodes());
  ASSERT_EQ(actual.NumArcs(), expected.NumArcs());
  EXPECT_EQ(actual.num_influence_arcs(), expected.num_influence_arcs());
  EXPECT_EQ(actual.ToEdgeList(), expected.ToEdgeList());
  for (NodeId v = 0; v < expected.NumNodes(); ++v) {
    const TpiinNode e = expected.node(v);
    const TpiinNode a = actual.node(v);
    EXPECT_EQ(a.color, e.color) << "node " << v;
    EXPECT_EQ(a.label, e.label) << "node " << v;
    EXPECT_TRUE(std::ranges::equal(a.person_members, e.person_members))
        << "node " << v;
    EXPECT_TRUE(std::ranges::equal(a.company_members, e.company_members))
        << "node " << v;
  }
  for (ArcId id = 0; id < expected.NumArcs(); ++id) {
    EXPECT_EQ(actual.ArcWeight(id), expected.ArcWeight(id))
        << "arc " << id;
  }
}

void ExpectStatsEqual(const FusionStats& expected,
                      const FusionStats& actual) {
  EXPECT_EQ(actual.g1_nodes, expected.g1_nodes);
  EXPECT_EQ(actual.g1_edges, expected.g1_edges);
  EXPECT_EQ(actual.person_syndicates, expected.person_syndicates);
  EXPECT_EQ(actual.persons_in_syndicates,
            expected.persons_in_syndicates);
  EXPECT_EQ(actual.influence_arcs, expected.influence_arcs);
  EXPECT_EQ(actual.investment_arcs, expected.investment_arcs);
  EXPECT_EQ(actual.investment_arcs_intra_scc,
            expected.investment_arcs_intra_scc);
  EXPECT_EQ(actual.company_syndicates, expected.company_syndicates);
  EXPECT_EQ(actual.companies_in_syndicates,
            expected.companies_in_syndicates);
  EXPECT_EQ(actual.antecedent_nodes, expected.antecedent_nodes);
  EXPECT_EQ(actual.antecedent_arcs, expected.antecedent_arcs);
  EXPECT_EQ(actual.trading_arcs, expected.trading_arcs);
  EXPECT_EQ(actual.intra_syndicate_trades,
            expected.intra_syndicate_trades);
}

class ParallelFusionTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParallelFusionTest, WorkedExampleIsIdentical) {
  RawDataset dataset = BuildWorkedExampleDataset();
  auto serial = BuildTpiin(dataset);
  ASSERT_TRUE(serial.ok());

  FusionOptions options;
  options.num_threads = GetParam();
  auto parallel = BuildTpiin(dataset, options);
  ASSERT_TRUE(parallel.ok());
  ExpectTpiinEqual(serial->tpiin, parallel->tpiin);
  ExpectStatsEqual(serial->stats, parallel->stats);
}

TEST_P(ParallelFusionTest, RandomProvincesAreIdentical) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    ProvinceConfig config = SmallProvinceConfig(150, seed);
    config.trading_probability = 0.02;
    auto province = GenerateProvince(config);
    ASSERT_TRUE(province.ok());

    auto serial = BuildTpiin(province->dataset);
    ASSERT_TRUE(serial.ok());
    FusionOptions options;
    options.num_threads = GetParam();
    auto parallel = BuildTpiin(province->dataset, options);
    ASSERT_TRUE(parallel.ok());
    ExpectTpiinEqual(serial->tpiin, parallel->tpiin);
    ExpectStatsEqual(serial->stats, parallel->stats);
  }
}

TEST_P(ParallelFusionTest, LargeProvinceIsIdentical) {
  ProvinceConfig config = SmallProvinceConfig(6000, 3);
  config.trading_probability = 0.001;
  auto province = GenerateProvince(config);
  ASSERT_TRUE(province.ok());

  auto serial = BuildTpiin(province->dataset);
  ASSERT_TRUE(serial.ok());
  FusionOptions options;
  options.num_threads = GetParam();
  auto parallel = BuildTpiin(province->dataset, options);
  ASSERT_TRUE(parallel.ok());
  ExpectTpiinEqual(serial->tpiin, parallel->tpiin);
  ExpectStatsEqual(serial->stats, parallel->stats);
}

// 0 = auto-detect; must behave like any explicit count.
INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelFusionTest,
                         ::testing::Values(0u, 2u, 4u, 8u));

TEST(ParallelFusionTest, InvalidDatasetStillRejected) {
  RawDataset dataset = BuildWorkedExampleDataset();
  // Out-of-range company in a trade record must fail identically with
  // the concurrent validate/freeze passes.
  std::vector<TradeRecord> trades = dataset.trades();
  trades.push_back(TradeRecord{9999, 0});
  dataset.SetTrades(std::move(trades));
  FusionOptions options;
  options.num_threads = 8;
  auto result = BuildTpiin(dataset, options);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace tpiin
