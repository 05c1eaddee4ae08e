// Gates two promises the out-of-core path leans on: StreamProvinceCsv
// writes byte-for-byte what SaveDatasetCsv(GenerateProvince(config))
// writes (the sharded and in-memory pipelines consume literally the
// same input), and ScaleConfig's population scaling keeps the largest
// business group bounded while growing the province.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/province.h"
#include "datagen/stream.h"
#include "io/dataset_csv.h"

namespace tpiin {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

constexpr const char* kTables[] = {
    "persons.csv",    "companies.csv",  "interdependence.csv",
    "influence.csv",  "investment.csv", "trades.csv"};

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_stream_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void ExpectStreamMatchesBatch(const ProvinceConfig& config) {
    const std::string batch_dir = dir_ + "/batch";
    const std::string stream_dir = dir_ + "/stream";
    std::filesystem::create_directories(batch_dir);
    std::filesystem::create_directories(stream_dir);

    Result<Province> province = GenerateProvince(config);
    ASSERT_TRUE(province.ok()) << province.status().ToString();
    ASSERT_TRUE(SaveDatasetCsv(batch_dir, province->dataset).ok());

    Result<StreamStats> stats = StreamProvinceCsv(config, stream_dir);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    for (const char* table : kTables) {
      EXPECT_EQ(Slurp(stream_dir + "/" + table),
                Slurp(batch_dir + "/" + table))
          << table << " differs between streamed and batch generation";
    }
    EXPECT_EQ(stats->persons, province->dataset.persons().size());
    EXPECT_EQ(stats->companies, province->dataset.companies().size());
    EXPECT_EQ(stats->trades, province->dataset.trades().size());
  }

  std::string dir_;
};

TEST_F(StreamTest, MatchesBatchGeneratorDefaults) {
  ProvinceConfig config = SmallProvinceConfig(180, /*seed=*/21);
  config.trading_probability = 0.02;
  ExpectStreamMatchesBatch(config);
}

TEST_F(StreamTest, MatchesBatchGeneratorWithCycles) {
  ProvinceConfig config = SmallProvinceConfig(200, /*seed=*/33);
  config.num_investment_cycles = 5;
  config.trading_probability = 0.05;
  ExpectStreamMatchesBatch(config);
}

TEST_F(StreamTest, MatchesBatchGeneratorPaperConfig) {
  ProvinceConfig config = PaperProvinceConfig(/*seed=*/20170402);
  config.trading_probability = 0.01;
  ExpectStreamMatchesBatch(config);
}

TEST_F(StreamTest, MatchesBatchGeneratorOnCompleteAndEmptyTradingLayers) {
  // p = 1 takes the complete-graph branch of the trading layer, which
  // draws nothing; without a trading layer trades.csv is header-only.
  ProvinceConfig complete = SmallProvinceConfig(30, /*seed=*/41);
  complete.trading_probability = 1.0;
  ExpectStreamMatchesBatch(complete);
  ProvinceConfig no_trading = SmallProvinceConfig(30, /*seed=*/41);
  no_trading.generate_trading = false;
  ExpectStreamMatchesBatch(no_trading);
}

TEST_F(StreamTest, OversizedLargeGroupStopsTheListWithoutWrap) {
  // A configured group size near UINT32_MAX must stop the large-group
  // scan: a wrapping `used + s` admission check would accept a group
  // billions of companies larger than the province and hang both
  // generators apportioning persons over it.
  ProvinceConfig config = SmallProvinceConfig(40, /*seed=*/7);
  config.trading_probability = 0.02;
  config.large_group_sizes = {10, ~uint32_t{0} - 2, 8};
  ExpectStreamMatchesBatch(config);
}

TEST(ScaleConfigTest, FactorOneIsIdentity) {
  const ProvinceConfig base = PaperProvinceConfig(7);
  const ProvinceConfig scaled = ScaleConfig(base, 1.0);
  EXPECT_EQ(scaled.num_companies, base.num_companies);
  EXPECT_EQ(scaled.num_legal_persons, base.num_legal_persons);
  EXPECT_EQ(scaled.num_directors, base.num_directors);
  EXPECT_EQ(scaled.large_group_sizes, base.large_group_sizes);
}

TEST(ScaleConfigTest, ShrinkMatchesLegacyLadderScaling) {
  // The scaling bench always scaled this way; ScaleConfig must keep the
  // historical rungs (300/600/1200 companies) bit-compatible.
  const ProvinceConfig base = PaperProvinceConfig(7);
  for (uint32_t companies : {300u, 600u, 1200u}) {
    const double factor =
        static_cast<double>(companies) / base.num_companies;
    const ProvinceConfig scaled = ScaleConfig(base, factor);
    EXPECT_EQ(scaled.num_companies, companies);
    EXPECT_EQ(scaled.num_legal_persons,
              std::max<uint32_t>(
                  4, static_cast<uint32_t>(base.num_legal_persons * factor)));
    EXPECT_EQ(scaled.num_directors,
              std::max<uint32_t>(
                  2, static_cast<uint32_t>(base.num_directors * factor)));
    ASSERT_EQ(scaled.large_group_sizes.size(),
              base.large_group_sizes.size());
    for (size_t i = 0; i < base.large_group_sizes.size(); ++i) {
      EXPECT_EQ(scaled.large_group_sizes[i],
                std::max<uint32_t>(
                    4, static_cast<uint32_t>(base.large_group_sizes[i] *
                                             factor)));
    }
  }
}

TEST(ScaleConfigTest, GrowthTilesGroupsInsteadOfInflating) {
  const ProvinceConfig base = PaperProvinceConfig(7);
  const uint32_t base_max = *std::max_element(
      base.large_group_sizes.begin(), base.large_group_sizes.end());
  for (double factor : {10.0, 100.0, 408.0}) {
    const ProvinceConfig scaled = ScaleConfig(base, factor);
    EXPECT_EQ(scaled.num_companies,
              static_cast<uint32_t>(
                  std::llround(base.num_companies * factor)));
    // The unit of shard balance (and per-shard peak memory) is the
    // largest business group; growth must not inflate it.
    const uint32_t scaled_max =
        *std::max_element(scaled.large_group_sizes.begin(),
                          scaled.large_group_sizes.end());
    EXPECT_EQ(scaled_max, base_max) << "factor " << factor;
    // The group list must fit the company budget (the generator stops
    // consuming at the first group that does not fit).
    const uint64_t listed = std::accumulate(
        scaled.large_group_sizes.begin(), scaled.large_group_sizes.end(),
        uint64_t{0});
    EXPECT_LE(listed, scaled.num_companies) << "factor " << factor;
    // Tiling preserves roughly the large-group fraction of the
    // population: `whole` full copies plus a partial one.
    EXPECT_GE(scaled.large_group_sizes.size(),
              static_cast<size_t>(factor) * base.large_group_sizes.size())
        << "factor " << factor;
  }
}

TEST(ScaleConfigTest, GeneratesValidProvinceAfterScaling) {
  ProvinceConfig config = ScaleConfig(SmallProvinceConfig(200, 3), 0.5);
  config.trading_probability = 0.02;
  Result<Province> province = GenerateProvince(config);
  ASSERT_TRUE(province.ok()) << province.status().ToString();
  EXPECT_EQ(province->dataset.companies().size(), config.num_companies);
}

}  // namespace
}  // namespace tpiin
