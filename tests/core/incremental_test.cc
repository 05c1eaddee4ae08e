#include "core/incremental.h"

#include <set>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "datagen/worked_example.h"
#include "tests/core/test_util.h"

namespace tpiin {
namespace {

TEST(IncrementalTest, WorkedExampleArcsMatchPaper) {
  Tpiin net = BuildWorkedExampleTpiin();
  IncrementalScreener screener(net);

  auto node = [&](const char* label) {
    for (NodeId v = 0; v < net.NumNodes(); ++v) {
      if (net.Label(v) == label) return v;
    }
    ADD_FAILURE() << label;
    return kInvalidNode;
  };

  // The three IATs of §4.3 are suspicious...
  EXPECT_TRUE(screener.IsSuspicious(node("C3"), node("C5")));
  EXPECT_TRUE(screener.IsSuspicious(node("C5"), node("C6")));
  EXPECT_TRUE(screener.IsSuspicious(node("C7"), node("C8")));
  // ... and the other two trading arcs are not.
  EXPECT_FALSE(screener.IsSuspicious(node("C5"), node("C7")));
  EXPECT_FALSE(screener.IsSuspicious(node("C8"), node("C4")));
  // Suspicion of a relationship is direction-independent (a common
  // antecedent serves both directions).
  EXPECT_TRUE(screener.IsSuspicious(node("C5"), node("C3")));
}

TEST(IncrementalTest, WitnessIsARealCommonAntecedent) {
  Tpiin net = BuildWorkedExampleTpiin();
  IncrementalScreener screener(net);
  for (NodeId u = 0; u < net.NumNodes(); ++u) {
    for (NodeId v = 0; v < net.NumNodes(); ++v) {
      auto witness = screener.CommonAntecedent(u, v);
      if (!witness.has_value()) continue;
      const std::vector<NodeId>& au = screener.AncestorsOrSelf(u);
      const std::vector<NodeId>& av = screener.AncestorsOrSelf(v);
      EXPECT_TRUE(std::binary_search(au.begin(), au.end(), *witness));
      EXPECT_TRUE(std::binary_search(av.begin(), av.end(), *witness));
    }
  }
}

TEST(IncrementalTest, AncestorSetsAreSortedUniqueAndReflexive) {
  Tpiin net = BuildWorkedExampleTpiin();
  IncrementalScreener screener(net);
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    const std::vector<NodeId>& anc = screener.AncestorsOrSelf(v);
    EXPECT_TRUE(std::is_sorted(anc.begin(), anc.end()));
    EXPECT_EQ(std::adjacent_find(anc.begin(), anc.end()), anc.end());
    EXPECT_TRUE(std::binary_search(anc.begin(), anc.end(), v));
  }
  EXPECT_GT(screener.TotalAncestorEntries(), net.NumNodes());
}

// Arc-level agreement with Algorithm 1 on random TPIINs: a trading arc
// of the network is suspicious per the detector iff the screener says so
// for its endpoints.
class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalPropertyTest, AgreesWithDetectorArcSet) {
  Tpiin net = RandomTpiin(GetParam(), /*max_persons=*/8,
                          /*max_companies=*/14);
  DetectorOptions options;
  options.match.collect_groups = false;
  auto detection = DetectSuspiciousGroups(net, options);
  ASSERT_TRUE(detection.ok());
  std::set<std::pair<NodeId, NodeId>> suspicious(
      detection->suspicious_trades.begin(),
      detection->suspicious_trades.end());

  IncrementalScreener screener(net);
  for (ArcId id = net.num_influence_arcs(); id < net.NumArcs();
       ++id) {
    const Arc& arc = net.arc(id);
    EXPECT_EQ(screener.IsSuspicious(arc.src, arc.dst),
              suspicious.count({arc.src, arc.dst}) > 0)
        << "arc " << net.Label(arc.src) << " -> " << net.Label(arc.dst);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNets, IncrementalPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

TEST(IncrementalTest, ScreensArcsNotInTheNetwork) {
  // The point of the screener: classify relationships that do not exist
  // yet. P influences C1 and C2; no trade between them is present.
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  NodeId c2 = builder.AddCompanyNode("C2");
  NodeId c3 = builder.AddCompanyNode("C3");
  NodeId q = builder.AddPersonNode("Q");
  builder.AddInfluenceArc(p, c1);
  builder.AddInfluenceArc(p, c2);
  builder.AddInfluenceArc(q, c3);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  IncrementalScreener screener(*net);
  EXPECT_TRUE(screener.IsSuspicious(c1, c2));
  EXPECT_FALSE(screener.IsSuspicious(c1, c3));
  EXPECT_TRUE(screener.IsSuspicious(c1, c1));  // Self = intra-syndicate.
}

}  // namespace
}  // namespace tpiin
