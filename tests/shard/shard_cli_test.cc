// End-to-end `tpiin shard build / detect / merge` through the CLI
// dispatcher, gating the user-facing byte-identity claim: the merged
// report equals the `detect --out` ranked report over the same dataset,
// and budget degradation propagates as exit code 2.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/thread_pool.h"

namespace tpiin {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class ShardCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_shard_cli_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Run(const std::vector<std::string>& args,
                  Status* status_out = nullptr, int* exit_code = nullptr) {
    std::ostringstream out;
    Status status = RunCli(args, out, exit_code);
    if (status_out != nullptr) {
      *status_out = status;
    } else {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    return out.str();
  }

  std::string dir_;
};

TEST_F(ShardCliTest, BuildDetectMergeMatchesUnshardedDetect) {
  const std::string data = dir_ + "/data";
  const std::string snap = dir_ + "/net.snap";
  const std::string shards = dir_ + "/shards";
  const std::string merged = dir_ + "/merged.txt";
  const std::string out_dir = dir_ + "/detect_out";

  Run({"gen", "--out=" + data, "--companies=200", "--p=0.03",
       "--seed=13"});
  Run({"build", "--data=" + data, "--out=" + snap});
  Run({"detect", "--snapshot=" + snap, "--out=" + out_dir});

  std::string build_output = Run({"shard", "build", "--data=" + data,
                                  "--out=" + shards, "--shards=4"});
  EXPECT_NE(build_output.find("shards populated"), std::string::npos)
      << build_output;
  Run({"shard", "detect", "--dir=" + shards});
  Run({"shard", "merge", "--dir=" + shards, "--out=" + merged});

  const std::string unsharded = Slurp(out_dir + "/ranked.txt");
  ASSERT_FALSE(unsharded.empty());
  EXPECT_EQ(Slurp(merged), unsharded);
}

TEST_F(ShardCliTest, ThreadsZeroAutoDetectsInBuildAndDetect) {
  // --threads=0 means auto-detect in the shard verbs as everywhere
  // else: the merged bytes do not move, and each run report records
  // the thread count the library resolved.
  const std::string data = dir_ + "/data";
  const std::string snap = dir_ + "/net.snap";
  const std::string shards = dir_ + "/shards";
  const std::string merged = dir_ + "/merged.txt";
  const std::string out_dir = dir_ + "/detect_out";

  Run({"gen", "--out=" + data, "--companies=200", "--p=0.03",
       "--seed=13"});
  Run({"build", "--data=" + data, "--out=" + snap});
  Run({"detect", "--snapshot=" + snap, "--out=" + out_dir});
  Run({"shard", "build", "--data=" + data, "--out=" + shards,
       "--shards=4", "--threads=0", "--report=" + dir_ + "/build.json"});
  Run({"shard", "detect", "--dir=" + shards, "--threads=0",
       "--report=" + dir_ + "/detect.json"});
  Run({"shard", "merge", "--dir=" + shards, "--out=" + merged});

  const std::string unsharded = Slurp(out_dir + "/ranked.txt");
  ASSERT_FALSE(unsharded.empty());
  EXPECT_EQ(Slurp(merged), unsharded);
  const std::string threads =
      "\"threads\": " + std::to_string(ResolveThreadCount(0)) + ",";
  for (const char* report : {"/build.json", "/detect.json"}) {
    const std::string json = Slurp(dir_ + report);
    EXPECT_NE(json.find(threads), std::string::npos) << report << ": "
                                                     << json;
  }
}

TEST_F(ShardCliTest, DegradedDetectExitsTwoAndMergePropagates) {
  const std::string data = dir_ + "/data";
  const std::string shards = dir_ + "/shards";
  Run({"gen", "--out=" + data, "--companies=200", "--p=0.03",
       "--seed=13"});
  Run({"shard", "build", "--data=" + data, "--out=" + shards,
       "--shards=2"});

  // A structural cap that always binds: every subTPIIN exceeds one node.
  int exit_code = 0;
  Status status;
  std::string output = Run({"shard", "detect", "--dir=" + shards,
                            "--max-sub-nodes=1"},
                           &status, &exit_code);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(exit_code, 2) << output;

  exit_code = 0;
  output = Run({"shard", "merge", "--dir=" + shards,
                "--out=" + dir_ + "/merged.txt"},
               &status, &exit_code);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(exit_code, 2) << output;
}

TEST_F(ShardCliTest, UsageErrors) {
  Status status;
  Run({"shard"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"shard", "frobnicate"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"shard", "build", "--out=" + dir_ + "/x"}, &status);
  EXPECT_TRUE(status.IsInvalidArgument());
  Run({"shard", "detect", "--dir=" + dir_ + "/nonexistent"}, &status);
  EXPECT_FALSE(status.ok());
  Run({"shard", "merge", "--dir=" + dir_ + "/nonexistent",
       "--out=" + dir_ + "/m.txt"},
      &status);
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace tpiin
