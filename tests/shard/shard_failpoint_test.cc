// Crash safety of the sharded pipeline under fault injection: a fault
// at any stage must surface as a clean Status, leave previously
// completed artifacts valid, and never leave a manifest that commits a
// half-built directory. Recovery is re-running the same command.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "datagen/province.h"
#include "io/dataset_csv.h"
#include "shard/build.h"
#include "shard/detect.h"
#include "shard/manifest.h"
#include "shard/merge.h"
#include "snapshot/snapshot.h"

namespace tpiin {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class ShardFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Clear();
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_shard_fp_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    data_dir_ = dir_ + "/data";
    shard_dir_ = dir_ + "/shards";
    std::filesystem::create_directories(data_dir_);
    ProvinceConfig config = SmallProvinceConfig(150, /*seed=*/5);
    config.trading_probability = 0.03;
    Result<Province> province = GenerateProvince(config);
    ASSERT_TRUE(province.ok()) << province.status().ToString();
    ASSERT_TRUE(SaveDatasetCsv(data_dir_, province->dataset).ok());
    build_.num_shards = 4;
  }
  void TearDown() override {
    Failpoints::Clear();
    std::filesystem::remove_all(dir_);
  }

  std::string ManifestPath() const {
    return shard_dir_ + "/" + std::string(kShardManifestName);
  }

  std::string dir_;
  std::string data_dir_;
  std::string shard_dir_;
  ShardBuildOptions build_;
};

TEST_F(ShardFailpointTest, PlanScanFaultFailsCleanly) {
  ASSERT_TRUE(Failpoints::Configure("shard.plan.scan:ioerror").ok());
  Result<ShardManifest> manifest =
      BuildShards(data_dir_, shard_dir_, build_);
  ASSERT_FALSE(manifest.ok());
  EXPECT_TRUE(manifest.status().IsIOError());
  EXPECT_FALSE(std::filesystem::exists(ManifestPath()));
}

TEST_F(ShardFailpointTest, FuseCrashLeavesPriorShardsValidAndNoManifest) {
  // Fail fusing the second shard: shard 0's snapshot is already on disk
  // and must still open; the manifest must be absent so every consumer
  // refuses the directory.
  ASSERT_TRUE(Failpoints::Configure("shard.fuse:error@2").ok());
  Result<ShardManifest> manifest =
      BuildShards(data_dir_, shard_dir_, build_);
  ASSERT_FALSE(manifest.ok());
  EXPECT_FALSE(std::filesystem::exists(ManifestPath()));

  const std::string part0 = shard_dir_ + "/part-00000.tpiin";
  ASSERT_TRUE(std::filesystem::exists(part0));
  Result<std::unique_ptr<SnapshotView>> view = SnapshotView::Open(part0);
  EXPECT_TRUE(view.ok()) << view.status().ToString();

  // Consumers refuse a manifest-less directory outright.
  EXPECT_TRUE(DetectShards(shard_dir_, {}).status().IsNotFound());
  EXPECT_TRUE(MergeShards(shard_dir_, dir_ + "/merged.txt")
                  .status()
                  .IsNotFound());

  // Recovery: the same command, re-run clean, commits.
  Failpoints::Clear();
  Result<ShardManifest> retry =
      BuildShards(data_dir_, shard_dir_, build_);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(ManifestPath()));
  ASSERT_TRUE(DetectShards(shard_dir_, {}).ok());
  EXPECT_TRUE(MergeShards(shard_dir_, dir_ + "/merged.txt").ok());
}

// A failed build removes <out>/spill/ (about a copy of the input) unless
// keep_spill asks for it, whether it fails in route or in a per-shard
// load.
TEST_F(ShardFailpointTest, FailedBuildRemovesSpillUnlessKept) {
  const std::string spill = shard_dir_ + "/spill";
  const std::string persons = data_dir_ + "/persons.csv";
  const std::string clean_persons = Slurp(persons);
  for (bool keep_spill : {false, true}) {
    SCOPED_TRACE(keep_spill ? "keep_spill" : "default");
    build_.keep_spill = keep_spill;

    // Route: a roles mask out of range on the last person row.
    std::string damaged = clean_persons;
    damaged.replace(damaged.rfind(',') + 1, std::string::npos, "999\n");
    {
      std::ofstream out(persons, std::ios::binary | std::ios::trunc);
      out << damaged;
    }
    std::filesystem::remove_all(shard_dir_);
    Result<ShardManifest> manifest =
        BuildShards(data_dir_, shard_dir_, build_);
    ASSERT_FALSE(manifest.ok());
    EXPECT_NE(manifest.status().message().find("bad roles mask 999"),
              std::string::npos)
        << manifest.status().ToString();
    EXPECT_EQ(std::filesystem::exists(spill), keep_spill);
    {
      std::ofstream out(persons, std::ios::binary | std::ios::trunc);
      out << clean_persons;
    }

    // Per-shard load: the second shard's fuse fails.
    std::filesystem::remove_all(shard_dir_);
    ASSERT_TRUE(Failpoints::Configure("shard.fuse:error@2").ok());
    manifest = BuildShards(data_dir_, shard_dir_, build_);
    Failpoints::Clear();
    ASSERT_FALSE(manifest.ok());
    EXPECT_TRUE(std::filesystem::exists(shard_dir_ + "/part-00000.tpiin"));
    EXPECT_EQ(std::filesystem::exists(spill), keep_spill);
  }
}

// The trade scan of the plan is the build's only read of trades.csv:
// plan opens the six input tables, route the five others, and each
// populated shard's load its six spill tables.
TEST_F(ShardFailpointTest, BuildOpensEachInputTableOncePerPass) {
  // A rule on an unrelated site turns on hit counting.
  ASSERT_TRUE(Failpoints::Configure("shard.merge:off").ok());
  Result<ShardManifest> manifest =
      BuildShards(data_dir_, shard_dir_, build_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  uint64_t populated = 0;
  for (const ShardEntry& entry : manifest->shards) populated += !entry.empty;
  EXPECT_EQ(Failpoints::HitCount("io.csv.open"), 6 + 5 + 6 * populated);
}

TEST_F(ShardFailpointTest, ManifestWriteFaultLeavesNoManifest) {
  ASSERT_TRUE(Failpoints::Configure("shard.manifest.write:ioerror").ok());
  Result<ShardManifest> manifest =
      BuildShards(data_dir_, shard_dir_, build_);
  ASSERT_FALSE(manifest.ok());
  EXPECT_TRUE(manifest.status().IsIOError());
  EXPECT_FALSE(std::filesystem::exists(ManifestPath()));
}

TEST_F(ShardFailpointTest, GidsWriteFaultFailsBuild) {
  ASSERT_TRUE(Failpoints::Configure("shard.gids.write:ioerror").ok());
  Result<ShardManifest> manifest =
      BuildShards(data_dir_, shard_dir_, build_);
  ASSERT_FALSE(manifest.ok());
  EXPECT_FALSE(std::filesystem::exists(ManifestPath()));
}

TEST_F(ShardFailpointTest, DetectFaultKeepsPriorResultsAndRecovers) {
  Result<ShardManifest> manifest =
      BuildShards(data_dir_, shard_dir_, build_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  ASSERT_TRUE(Failpoints::Configure("shard.detect:error@2").ok());
  Result<ShardDetectStats> stats = DetectShards(shard_dir_, {});
  ASSERT_FALSE(stats.ok());
  // The first shard's result committed before the fault and is already
  // a valid, CRC'd file.
  const std::string result0 =
      ShardResultPath(shard_dir_, *manifest, /*shard=*/0);
  ASSERT_TRUE(std::filesystem::exists(result0));
  EXPECT_TRUE(ParseShardResult(Slurp(result0), result0, 0).ok());

  // Merge over the incomplete detect run must fail, not fabricate.
  EXPECT_FALSE(MergeShards(shard_dir_, dir_ + "/merged.txt").ok());

  Failpoints::Clear();
  ASSERT_TRUE(DetectShards(shard_dir_, {}).ok());
  EXPECT_TRUE(MergeShards(shard_dir_, dir_ + "/merged.txt").ok());
}

TEST_F(ShardFailpointTest, MergeFaultLeavesNoOutput) {
  ASSERT_TRUE(BuildShards(data_dir_, shard_dir_, build_).ok());
  ASSERT_TRUE(DetectShards(shard_dir_, {}).ok());
  ASSERT_TRUE(Failpoints::Configure("shard.merge:ioerror").ok());
  const std::string out = dir_ + "/merged.txt";
  EXPECT_FALSE(MergeShards(shard_dir_, out).ok());
  EXPECT_FALSE(std::filesystem::exists(out));
  Failpoints::Clear();
  EXPECT_TRUE(MergeShards(shard_dir_, out).ok());
  EXPECT_TRUE(std::filesystem::exists(out));
}

TEST_F(ShardFailpointTest, StaleResultCountsAreRefused) {
  // Detect results carry per-shard counts cross-checked against the
  // manifest, so a well-formed result file left behind by a run over
  // different data (valid CRC, wrong counts) must not silently merge.
  Result<ShardManifest> manifest =
      BuildShards(data_dir_, shard_dir_, build_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_TRUE(DetectShards(shard_dir_, {}).ok());

  uint32_t victim = 0;
  while (manifest->shards[victim].empty) ++victim;
  const std::string path = ShardResultPath(shard_dir_, *manifest, victim);
  Result<CanonicalReport> report =
      ParseShardResult(Slurp(path), path, victim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  report->summary.total_trading_arcs += 1;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << SerializeShardResult(victim, *report);
  }
  Result<ShardMergeStats> merged =
      MergeShards(shard_dir_, dir_ + "/merged.txt");
  ASSERT_FALSE(merged.ok());
  EXPECT_TRUE(merged.status().IsCorruption())
      << merged.status().ToString();
}

}  // namespace
}  // namespace tpiin
