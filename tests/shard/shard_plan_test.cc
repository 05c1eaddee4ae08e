// Shard planner units: the streaming union-find's component structure on
// a hand-built dataset, cross-trade accounting, balance determinism, and
// strictness against malformed input.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/province.h"
#include "io/dataset_csv.h"
#include "shard/build.h"
#include "shard/plan.h"

namespace tpiin {
namespace {

class ShardPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_plan_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteTable(const std::string& name, const std::string& contents) {
    std::ofstream out(dir_ + "/" + name, std::ios::trunc);
    out << contents;
  }

  // Two antecedent islands: persons {0,1} + companies {0,1,2} linked
  // through influence/investment, and person {2} + company {3}. Company
  // 4 is an isolated singleton component.
  void WriteDataset() {
    WriteTable("persons.csv",
               "id,name,roles\n"
               "0,P0,legal_person\n"
               "1,P1,director\n"
               "2,P2,legal_person\n");
    WriteTable("companies.csv",
               "id,name\n"
               "0,C0\n1,C1\n2,C2\n3,C3\n4,C4\n");
    WriteTable("interdependence.csv",
               "person_a,person_b,kind\n"
               "0,1,kinship\n");
    WriteTable("influence.csv",
               "person,company,kind,legal_person\n"
               "0,0,legal_person,1\n"
               "1,1,director,0\n"
               "2,3,legal_person,1\n");
    WriteTable("investment.csv",
               "investor,investee,share\n"
               "0,2,0.6\n");
    WriteTable("trades.csv",
               "seller,buyer\n"
               "0,1\n"   // intra-component (island 1)
               "0,3\n"   // cross: island 1 -> island 2
               "3,4\n"   // cross: island 2 -> singleton
               "2,0\n"); // intra-component (island 1)
  }

  std::string dir_;
};

TEST_F(ShardPlanTest, ComponentsAndCrossTrades) {
  WriteDataset();
  Result<ShardPlan> plan = PlanShards(dir_, {.num_shards = 2});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->num_persons, 3u);
  EXPECT_EQ(plan->num_companies, 5u);
  EXPECT_EQ(plan->num_components, 3u);
  EXPECT_EQ(plan->trade_rows, 4u);
  EXPECT_EQ(plan->cross_trade_rows, 2u);

  // Island 1: persons 0,1 with companies 0,1,2. Island 2: person 2 with
  // company 3. Company 4 alone.
  EXPECT_EQ(plan->person_component[0], plan->person_component[1]);
  EXPECT_EQ(plan->person_component[0], plan->company_component[0]);
  EXPECT_EQ(plan->company_component[0], plan->company_component[1]);
  EXPECT_EQ(plan->company_component[0], plan->company_component[2]);
  EXPECT_EQ(plan->person_component[2], plan->company_component[3]);
  EXPECT_NE(plan->person_component[0], plan->person_component[2]);
  EXPECT_NE(plan->company_component[4], plan->company_component[0]);
  EXPECT_NE(plan->company_component[4], plan->company_component[3]);

  // Greedy balance puts the heaviest island alone on one shard.
  const uint32_t big = plan->ShardOfCompanyRow(0);
  EXPECT_NE(big, plan->ShardOfCompanyRow(3));
  EXPECT_EQ(plan->ShardOfCompanyRow(3), plan->ShardOfCompanyRow(4));
  const uint64_t total_weight =
      plan->shard_weight[0] + plan->shard_weight[1];
  // Entities (8) + relation rows (5) + intra-component trades (2).
  EXPECT_EQ(total_weight, 8u + 5u + 2u);
}

TEST_F(ShardPlanTest, Deterministic) {
  WriteDataset();
  Result<ShardPlan> a = PlanShards(dir_, {.num_shards = 4});
  Result<ShardPlan> b = PlanShards(dir_, {.num_shards = 4});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->component_shard, b->component_shard);
  EXPECT_EQ(a->shard_weight, b->shard_weight);
  EXPECT_EQ(a->person_component, b->person_component);
  EXPECT_EQ(a->company_component, b->company_component);
}

TEST_F(ShardPlanTest, ZeroShardsInvalid) {
  WriteDataset();
  EXPECT_TRUE(PlanShards(dir_, {.num_shards = 0}).status()
                  .IsInvalidArgument());
}

TEST_F(ShardPlanTest, DanglingTradeEndpointIsCorruption) {
  WriteDataset();
  WriteTable("trades.csv", "seller,buyer\n0,99\n");
  Result<ShardPlan> plan = PlanShards(dir_, {.num_shards = 2});
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsCorruption()) << plan.status().ToString();
}

TEST_F(ShardPlanTest, WrongColumnCountIsCorruption) {
  WriteDataset();
  WriteTable("investment.csv", "investor,investee,share\n0,2\n");
  EXPECT_TRUE(
      PlanShards(dir_, {.num_shards = 2}).status().IsCorruption());
}

TEST_F(ShardPlanTest, MissingTableFails) {
  WriteDataset();
  std::filesystem::remove(dir_ + "/influence.csv");
  EXPECT_FALSE(PlanShards(dir_, {.num_shards = 2}).ok());
}

// Row damage must fail a sharded build at the input table and line, as
// the single-process loader reports it, before any shard is written, and
// leave no spill behind. Id damage fails in plan, value damage in route.
TEST_F(ShardPlanTest, DamagedRowFailsBuildAtInputTableAndLine) {
  struct Damage {
    const char* table;
    size_t line;  // 1-based; line 1 is the header.
    std::string replacement;
    const char* error;
  };
  const Damage damages[] = {
      {"persons.csv", 4, "2,\"L0002,1", "unterminated CSV quote"},
      {"companies.csv", 10, "7,C0008", "duplicate company id 7"},
      {"companies.csv", 5, "3," + std::string(70000, 'x'),
       "exceeds limit"},
      {"persons.csv", 30, "28,L0028,999", "bad roles mask 999"},
      {"interdependence.csv", 2, "0,1,cousin",
       "bad interdependence kind cousin"},
      {"influence.csv", 3, "0,0,7,0", "bad influence kind 7"},
      {"influence.csv", 4, "0,0,1,2", "bad legal_person flag 2"},
      {"investment.csv", 2, "0,1,abc", "bad share abc"},
      {"companies.csv", 6, "4,C\xff\xfe", "name is not valid UTF-8"},
  };
  ProvinceConfig config = SmallProvinceConfig(60, /*seed=*/3);
  Result<Province> province = GenerateProvince(config);
  ASSERT_TRUE(province.ok()) << province.status().ToString();
  for (const Damage& damage : damages) {
    SCOPED_TRACE(std::string(damage.table) + ":" +
                 std::to_string(damage.line));
    ASSERT_TRUE(SaveDatasetCsv(dir_, province->dataset).ok());
    const std::string path = dir_ + "/" + damage.table;
    std::ifstream in(path);
    std::ostringstream damaged;
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
      ++lines;
      damaged << (lines == damage.line ? damage.replacement : line) << "\n";
    }
    in.close();
    ASSERT_GE(lines, damage.line);
    WriteTable(damage.table, damaged.str());

    const std::string out_dir = dir_ + "/shards";
    std::filesystem::remove_all(out_dir);
    Result<ShardManifest> manifest =
        BuildShards(dir_, out_dir, {.num_shards = 4});
    ASSERT_FALSE(manifest.ok());
    const std::string message = manifest.status().ToString();
    EXPECT_TRUE(manifest.status().IsCorruption()) << message;
    EXPECT_NE(message.find(path + ":" + std::to_string(damage.line) + ":"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(damage.error), std::string::npos) << message;
    EXPECT_EQ(message.find("spill"), std::string::npos) << message;
    for (const auto& entry : std::filesystem::directory_iterator(out_dir)) {
      EXPECT_NE(entry.path().filename().string().rfind("part-", 0), 0u)
          << entry.path();
    }
    EXPECT_FALSE(std::filesystem::exists(out_dir + "/spill"));
  }
}

}  // namespace
}  // namespace tpiin
