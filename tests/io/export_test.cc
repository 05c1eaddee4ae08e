#include <filesystem>

#include <gtest/gtest.h>

#include "datagen/worked_example.h"
#include "fusion/layers.h"
#include "io/dot_export.h"
#include "io/gexf_export.h"

namespace tpiin {
namespace {

TEST(DotExportTest, TpiinDotHasNodesAndColoredArcs) {
  Tpiin net = BuildWorkedExampleTpiin();
  std::string dot = TpiinToDot(net, "worked_example");
  EXPECT_NE(dot.find("digraph \"worked_example\""), std::string::npos);
  // Person nodes are ellipses, company nodes are red boxes.
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  // Influence arcs blue, trading arcs black.
  EXPECT_NE(dot.find("[color=blue]"), std::string::npos);
  EXPECT_NE(dot.find("[color=black]"), std::string::npos);
  // Every label present.
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    EXPECT_NE(dot.find(net.Label(v)), std::string::npos);
  }
}

TEST(DotExportTest, LayerDotRendersUndirectedInterdependence) {
  RawDataset data = BuildWorkedExampleDataset();
  std::vector<std::string> labels;
  for (const Person& p : data.persons()) labels.push_back(p.name);
  std::string dot =
      LayerToDot(static_cast<NodeId>(labels.size()),
                 BuildInterdependenceGraph(data), labels, "G1");
  EXPECT_NE(dot.find("dir=none"), std::string::npos);
  EXPECT_NE(dot.find("brown"), std::string::npos);   // Kinship.
  EXPECT_NE(dot.find("gold"), std::string::npos);    // Interlocking.
}

TEST(DotExportTest, EscapesQuotesInLabels) {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("say \"hi\"");
  NodeId c = builder.AddCompanyNode("C");
  builder.AddInfluenceArc(p, c);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  std::string dot = TpiinToDot(*net, "g");
  EXPECT_NE(dot.find("say \\\"hi\\\""), std::string::npos);
}

TEST(DotExportTest, WriteStringToFile) {
  std::string path =
      (std::filesystem::temp_directory_path() / "tpiin_dot_test.dot")
          .string();
  ASSERT_TRUE(WriteStringToFile(path, "digraph {}\n").ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(
      WriteStringToFile("/no/such/dir/file.dot", "x").IsIOError());
  std::filesystem::remove(path);
}

TEST(GexfExportTest, ValidStructureWithAttributes) {
  Tpiin net = BuildWorkedExampleTpiin();
  std::string gexf = TpiinToGexf(net);
  EXPECT_NE(gexf.find("<?xml"), std::string::npos);
  EXPECT_NE(gexf.find("<gexf"), std::string::npos);
  EXPECT_NE(gexf.find("defaultedgetype=\"directed\""), std::string::npos);
  // 15 nodes and 19 edges.
  size_t node_count = 0;
  size_t pos = 0;
  while ((pos = gexf.find("<node ", pos)) != std::string::npos) {
    ++node_count;
    ++pos;
  }
  EXPECT_EQ(node_count, 15u);
  size_t edge_count = 0;
  pos = 0;
  while ((pos = gexf.find("<edge ", pos)) != std::string::npos) {
    ++edge_count;
    ++pos;
  }
  EXPECT_EQ(edge_count, 19u);
  EXPECT_NE(gexf.find("value=\"influence\""), std::string::npos);
  EXPECT_NE(gexf.find("value=\"trading\""), std::string::npos);
}

TEST(GexfExportTest, EscapesXmlSpecials) {
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("A&B <corp>");
  NodeId c = builder.AddCompanyNode("C");
  builder.AddInfluenceArc(p, c);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  std::string gexf = TpiinToGexf(*net);
  EXPECT_NE(gexf.find("A&amp;B &lt;corp&gt;"), std::string::npos);
  EXPECT_EQ(gexf.find("A&B <corp>"), std::string::npos);
}

}  // namespace
}  // namespace tpiin
