#include "io/pattern_file.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "datagen/worked_example.h"

namespace tpiin {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class PatternFileTest : public ::testing::Test {
 protected:
  PatternFileTest() : net_(BuildWorkedExampleTpiin()) {
    auto result = DetectSuspiciousGroups(net_);
    EXPECT_TRUE(result.ok());
    detection_ = std::move(result).value();
  }

  Tpiin net_;
  DetectionResult detection_;
};

TEST_F(PatternFileTest, SusGroupFileListsAllGroups) {
  std::string path = TempPath("tpiin_susgroup_1.txt");
  ASSERT_TRUE(
      WriteSuspiciousGroupsFile(path, net_, detection_.groups).ok());
  std::string text = ReadAll(path);
  EXPECT_NE(text.find("B1"), std::string::npos);
  EXPECT_NE(text.find("[simple]"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(PatternFileTest, SusTradeFileListsArcs) {
  std::string path = TempPath("tpiin_sustrade_1.txt");
  ASSERT_TRUE(WriteSuspiciousTradesFile(path, net_,
                                        detection_.suspicious_trades)
                  .ok());
  std::string text = ReadAll(path);
  EXPECT_NE(text.find("C3 -> C5"), std::string::npos);
  EXPECT_NE(text.find("C5 -> C6"), std::string::npos);
  EXPECT_NE(text.find("C7 -> C8"), std::string::npos);
  EXPECT_EQ(text.find("C8 -> C4"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(PatternFileTest, DetectionReportIsComprehensive) {
  std::string path = TempPath("tpiin_report.txt");
  ASSERT_TRUE(WriteDetectionReport(path, net_, detection_).ok());
  std::string text = ReadAll(path);
  EXPECT_NE(text.find("Suspicious trading relationships"),
            std::string::npos);
  EXPECT_NE(text.find("Suspicious groups"), std::string::npos);
  EXPECT_NE(text.find("simple=3"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(PatternFileTest, UnwritablePathsFail) {
  EXPECT_TRUE(WriteSuspiciousGroupsFile("/no/dir/g.txt", net_, {})
                  .IsIOError());
  EXPECT_TRUE(WriteSuspiciousTradesFile("/no/dir/t.txt", net_, {})
                  .IsIOError());
  EXPECT_TRUE(
      WriteDetectionReport("/no/dir/r.txt", net_, detection_).IsIOError());
}

}  // namespace
}  // namespace tpiin
