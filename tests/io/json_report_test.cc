#include "io/json_report.h"

#include <gtest/gtest.h>

#include "datagen/worked_example.h"

namespace tpiin {
namespace {

class JsonReportTest : public ::testing::Test {
 protected:
  JsonReportTest() : net_(BuildWorkedExampleTpiin()) {
    auto result = DetectSuspiciousGroups(net_);
    EXPECT_TRUE(result.ok());
    detection_ = std::move(result).value();
    scoring_ = ScoreDetection(net_, detection_);
  }

  Tpiin net_;
  DetectionResult detection_;
  ScoringResult scoring_;
};

TEST_F(JsonReportTest, SummaryFieldsPresent) {
  std::string json = DetectionToJson(net_, detection_, &scoring_);
  EXPECT_NE(json.find("\"simple\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"complex\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"suspicious_trades\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"total_trades\": 5"), std::string::npos);
}

TEST_F(JsonReportTest, TradesAndGroupsListed) {
  std::string json = DetectionToJson(net_, detection_, &scoring_);
  EXPECT_NE(json.find("\"seller\": \"C3\", \"buyer\": \"C5\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"simple\""), std::string::npos);
  EXPECT_NE(json.find("\"antecedent\": \"B1\""), std::string::npos);
  // Scores from the scoring pass are attached.
  EXPECT_NE(json.find("\"score\": 1.000000"), std::string::npos);
}

TEST_F(JsonReportTest, WithoutScoringOmitsScores) {
  std::string json = DetectionToJson(net_, detection_, nullptr);
  EXPECT_EQ(json.find("\"score\""), std::string::npos);
  EXPECT_NE(json.find("\"groups\": ["), std::string::npos);
}

TEST_F(JsonReportTest, SyndicateLabelsEscapedSafely) {
  std::string json = DetectionToJson(net_, detection_, &scoring_);
  // The direct-built worked example uses the paper's syndicate labels
  // L1/B2; the fused variant's brace labels contain no JSON specials
  // either, checked via a hand-built net below.
  EXPECT_NE(json.find("\"L1\""), std::string::npos);
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("{L6+LB}");
  NodeId c = builder.AddCompanyNode("C1");
  builder.AddInfluenceArc(p, c);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  auto detection = DetectSuspiciousGroups(*net);
  ASSERT_TRUE(detection.ok());
  std::string other = DetectionToJson(*net, *detection, nullptr);
  EXPECT_NE(other.find("\"summary\""), std::string::npos);
}

TEST_F(JsonReportTest, BalancedBracesSmokeCheck) {
  std::string json = DetectionToJson(net_, detection_, &scoring_);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace
}  // namespace tpiin
