#include "fusion/neighborhood.h"

#include <set>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "datagen/worked_example.h"

namespace tpiin {
namespace {

class NeighborhoodTest : public ::testing::Test {
 protected:
  NeighborhoodTest() : net_(BuildWorkedExampleTpiin()) {}

  NodeId NodeByLabel(const Tpiin& net, const std::string& label) const {
    for (NodeId v = 0; v < net.NumNodes(); ++v) {
      if (net.Label(v) == label) return v;
    }
    return kInvalidNode;
  }

  std::set<std::string> Labels(const Tpiin& net) const {
    std::set<std::string> out;
    for (NodeId v = 0; v < net.NumNodes(); ++v) {
      out.insert(std::string(net.Label(v)));
    }
    return out;
  }

  Tpiin net_;
};

TEST_F(NeighborhoodTest, DepthOneInfluenceNeighborhood) {
  NodeId c5 = NodeByLabel(net_, "C5");
  EgoOptions options;
  options.depth = 1;
  auto ego = ExtractEgoNetwork(net_, c5, options);
  ASSERT_TRUE(ego.ok()) << ego.status().ToString();
  // C5's influence neighbors: L3, B1 (influencers) and C2 (investor).
  EXPECT_EQ(Labels(*ego), (std::set<std::string>{"C5", "L3", "B1", "C2"}));
}

TEST_F(NeighborhoodTest, DepthZeroIsJustTheCenter) {
  NodeId c5 = NodeByLabel(net_, "C5");
  EgoOptions options;
  options.depth = 0;
  auto ego = ExtractEgoNetwork(net_, c5, options);
  ASSERT_TRUE(ego.ok());
  EXPECT_EQ(ego->NumNodes(), 1u);
  EXPECT_EQ(ego->Label(0), "C5");
  EXPECT_EQ(ego->NumArcs(), 0u);
}

TEST_F(NeighborhoodTest, TradingArcsBetweenKeptNodesAreRetained) {
  // Depth-1 around C5 keeps C2; the original has no C2<->C5 trading
  // arc, but the influence arc C2 -> C5 must be there with C5's other
  // incident influence arcs.
  NodeId c5 = NodeByLabel(net_, "C5");
  EgoOptions options;
  options.depth = 1;
  auto ego = ExtractEgoNetwork(net_, c5, options);
  ASSERT_TRUE(ego.ok());
  EXPECT_EQ(ego->num_influence_arcs(), 3u);  // L3->C5, B1->C5, C2->C5.
  EXPECT_EQ(ego->num_trading_arcs(), 0u);
}

TEST_F(NeighborhoodTest, FollowTradingExpandsToCounterparties) {
  NodeId c5 = NodeByLabel(net_, "C5");
  EgoOptions options;
  options.depth = 1;
  options.follow_trading = true;
  auto ego = ExtractEgoNetwork(net_, c5, options);
  ASSERT_TRUE(ego.ok());
  std::set<std::string> labels = Labels(*ego);
  // Trading neighbors C3 (incoming), C6, C7 (outgoing) join.
  EXPECT_TRUE(labels.count("C6"));
  EXPECT_TRUE(labels.count("C7"));
  EXPECT_TRUE(labels.count("C3"));
  EXPECT_GT(ego->num_trading_arcs(), 0u);
}

TEST_F(NeighborhoodTest, WholeComponentAtLargeDepth) {
  NodeId c5 = NodeByLabel(net_, "C5");
  EgoOptions options;
  options.depth = 100;
  options.follow_trading = true;
  auto ego = ExtractEgoNetwork(net_, c5, options);
  ASSERT_TRUE(ego.ok());
  EXPECT_EQ(ego->NumNodes(), net_.NumNodes());
  EXPECT_EQ(ego->NumArcs(), net_.NumArcs());
}

TEST_F(NeighborhoodTest, EgoNetworkIsMinableAndConsistent) {
  // Mining the full-depth ego network reproduces the original results.
  NodeId c5 = NodeByLabel(net_, "C5");
  EgoOptions options;
  options.depth = 100;
  options.follow_trading = true;
  auto ego = ExtractEgoNetwork(net_, c5, options);
  ASSERT_TRUE(ego.ok());
  auto original = DetectSuspiciousGroups(net_);
  auto from_ego = DetectSuspiciousGroups(*ego);
  ASSERT_TRUE(original.ok() && from_ego.ok());
  EXPECT_EQ(from_ego->num_simple, original->num_simple);
  EXPECT_EQ(from_ego->num_complex, original->num_complex);
}

TEST_F(NeighborhoodTest, WeightsSurviveExtraction) {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("P");
  NodeId c1 = builder.AddCompanyNode("C1");
  builder.AddInfluenceArc(p, c1, 0.42);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  auto ego = ExtractEgoNetwork(*net, p);
  ASSERT_TRUE(ego.ok());
  ASSERT_EQ(ego->NumArcs(), 1u);
  EXPECT_DOUBLE_EQ(ego->ArcWeight(0), 0.42);
}

TEST_F(NeighborhoodTest, OutOfRangeCenterRejected) {
  auto ego = ExtractEgoNetwork(net_, 9999);
  EXPECT_TRUE(ego.status().IsInvalidArgument());
}

}  // namespace
}  // namespace tpiin
