// End-to-end validation of the mining pipeline against the paper's worked
// example (Figs. 7-10): the contracted TPIIN of Fig. 8 must yield one
// subTPIIN, the 15-trail component pattern base of Fig. 10, and exactly
// the three suspicious groups named in §4.3.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/matcher.h"
#include "core/pattern_tree.h"
#include "core/subtpiin.h"
#include "datagen/worked_example.h"

namespace tpiin {
namespace {

class WorkedExampleTest : public ::testing::Test {
 protected:
  WorkedExampleTest() : net_(BuildWorkedExampleTpiin()) {}

  NodeId NodeByLabel(const std::string& label) const {
    for (NodeId v = 0; v < net_.NumNodes(); ++v) {
      if (net_.Label(v) == label) return v;
    }
    ADD_FAILURE() << "no node labeled " << label;
    return kInvalidNode;
  }

  Tpiin net_;
};

TEST_F(WorkedExampleTest, NetworkShapeMatchesFig8) {
  EXPECT_EQ(net_.NumNodes(), 15u);  // 7 person (syndicate) + 8 companies.
  EXPECT_EQ(net_.num_influence_arcs(), 14u);
  EXPECT_EQ(net_.num_trading_arcs(), 5u);
}

TEST_F(WorkedExampleTest, SegmentationYieldsSingleSubTpiin) {
  SegmentStats stats;
  std::vector<SubTpiin> subs = SegmentTpiin(net_, {}, &stats);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(stats.num_components, 1u);
  EXPECT_EQ(stats.trading_arcs_internal, 5u);
  EXPECT_EQ(stats.trading_arcs_cross, 0u);
  EXPECT_EQ(subs[0].frozen.NumNodes(), 15u);
  EXPECT_EQ(subs[0].frozen.NumArcs(), 19u);
}

TEST_F(WorkedExampleTest, PatternBaseMatchesFig10) {
  std::vector<SubTpiin> subs = SegmentTpiin(net_);
  ASSERT_EQ(subs.size(), 1u);
  auto gen = GeneratePatternBase(subs[0]);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();

  // Fig. 10 lists exactly 15 suspicious relationship trails; they are
  // rendered from the patterns tree in Algorithm 2's emission order
  // (roots in listD order, out arcs in arc-id order).
  EXPECT_EQ(gen->num_trails, 15u);
  EXPECT_EQ(FormatPatternBase(subs[0], gen->tree),
            "1. L1, C1, C3 -> C5\n"
            "2. L1, C2, C5 -> C6\n"
            "3. L1, C2, C5 -> C7\n"
            "4. L1, C4\n"
            "5. L4, C6\n"
            "6. L4, C7 -> C8\n"
            "7. B1, C5 -> C6\n"
            "8. B1, C5 -> C7\n"
            "9. B1, C6\n"
            "10. B2, C7 -> C8\n"
            "11. B2, C8 -> C4\n"
            "12. L2, C3 -> C5\n"
            "13. L3, C5 -> C6\n"
            "14. L3, C5 -> C7\n"
            "15. L5, C8 -> C4\n");
}

TEST_F(WorkedExampleTest, ListDOrdersRootsFirst) {
  std::vector<SubTpiin> subs = SegmentTpiin(net_);
  std::vector<ListDEntry> list = ComputeListD(subs[0]);
  ASSERT_EQ(list.size(), 15u);
  // The seven person nodes have indegree zero and must come first.
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(list[i].in_degree, 0u) << "position " << i;
  }
  // Among the indegree-0 nodes, higher outdegree sorts earlier; L1 has
  // outdegree 3, more than any other person node.
  EXPECT_EQ(subs[0].Label(list[0].node), "L1");
}

TEST_F(WorkedExampleTest, PatternsTreeSharesRootPrefixes) {
  std::vector<SubTpiin> subs = SegmentTpiin(net_);
  auto gen = GeneratePatternBase(subs[0]);
  ASSERT_TRUE(gen.ok());
  const PatternsTree& tree = gen->tree;
  // One tree root per indegree-zero node.
  EXPECT_EQ(tree.roots.size(), 7u);
  // The rendering mentions every node label at least once.
  std::string rendering = tree.ToString(subs[0]);
  for (const char* label : {"L1", "L2", "L3", "L4", "L5", "B1", "B2"}) {
    EXPECT_NE(rendering.find(label), std::string::npos) << label;
  }
}

TEST_F(WorkedExampleTest, DetectsExactlyThePapersThreeGroups) {
  auto result = DetectSuspiciousGroups(net_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // §4.3: suspicious groups (L1, C1, C2, C3, C5), (B1, C5, C6),
  // (B2, C7, C8) — all simple, no circle or intra-SCC findings.
  EXPECT_EQ(result->num_simple, 3u);
  EXPECT_EQ(result->num_complex, 0u);
  EXPECT_EQ(result->num_cycle_groups, 0u);
  EXPECT_TRUE(result->intra_syndicate.empty());
  ASSERT_EQ(result->groups.size(), 3u);

  std::set<std::vector<std::string>> member_sets;
  for (const SuspiciousGroup& group : result->groups) {
    std::vector<std::string> labels;
    for (NodeId v : group.members) {
      labels.push_back(std::string(net_.Label(v)));
    }
    std::sort(labels.begin(), labels.end());
    member_sets.insert(labels);
    EXPECT_TRUE(group.is_simple) << group.Format(net_);
  }
  EXPECT_TRUE(member_sets.count({"B1", "C5", "C6"}));
  EXPECT_TRUE(member_sets.count({"B2", "C7", "C8"}));
  EXPECT_TRUE(member_sets.count({"C1", "C2", "C3", "C5", "L1"}));
}

TEST_F(WorkedExampleTest, SuspiciousTradesAreTheThreeIats) {
  auto result = DetectSuspiciousGroups(net_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->suspicious_trades.size(), 3u);

  std::set<std::pair<std::string, std::string>> trades;
  for (const auto& [seller, buyer] : result->suspicious_trades) {
    trades.emplace(net_.Label(seller), net_.Label(buyer));
  }
  EXPECT_TRUE(trades.count({"C3", "C5"}));
  EXPECT_TRUE(trades.count({"C5", "C6"}));
  EXPECT_TRUE(trades.count({"C7", "C8"}));
  // C5 -> C7 and C8 -> C4 are not suspicious: no common antecedent.
  EXPECT_FALSE(trades.count({"C5", "C7"}));
  EXPECT_FALSE(trades.count({"C8", "C4"}));
}

TEST_F(WorkedExampleTest, GroupAntecedentsMatchThePaper) {
  auto result = DetectSuspiciousGroups(net_);
  ASSERT_TRUE(result.ok());
  std::set<std::string> antecedents;
  for (const SuspiciousGroup& group : result->groups) {
    antecedents.insert(std::string(net_.Label(group.antecedent)));
  }
  EXPECT_EQ(antecedents, (std::set<std::string>{"L1", "B1", "B2"}));
}

}  // namespace
}  // namespace tpiin
