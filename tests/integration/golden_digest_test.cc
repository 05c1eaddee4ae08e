// Pins output bytes across commits. Every other byte-diff compares two
// code paths of the same build; these CRC-32C digests were recorded once
// and must never be edited: a change in any of them means the mining
// output, an exporter or the snapshot format moved.
//
// Covered: susGroup.txt (RenderSuspiciousGroups) and the canonical
// ranked report, the snapshot file, the edge list, DOT/GEXF, the layer
// DOT renderings of G1-G4, and the pattern bases and patterns trees of
// small random networks (untruncated and under the truncation valves).

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/detector.h"
#include "core/pattern_tree.h"
#include "core/scoring.h"
#include "core/subtpiin.h"
#include "datagen/worked_example.h"
#include "fusion/layers.h"
#include "fusion/pipeline.h"
#include "io/dataset_csv.h"
#include "io/dot_export.h"
#include "io/edge_list.h"
#include "io/gexf_export.h"
#include "io/pattern_file.h"
#include "shard/canonical.h"
#include "snapshot/snapshot.h"
#include "tests/core/test_util.h"

namespace tpiin {
namespace {

uint32_t Digest(const std::string& bytes) {
  return Crc32c(bytes.data(), bytes.size());
}

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string Hex(uint32_t value) { return StringPrintf("0x%08x", value); }

// Digests of every artifact derived from one network.
struct NetDigests {
  uint32_t groups = 0;
  uint32_t ranked = 0;
  uint32_t snapshot = 0;
  uint32_t edge_list = 0;
  uint32_t dot = 0;
  uint32_t gexf = 0;
};

class GoldenDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_golden_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  NetDigests DigestNet(const Tpiin& net) {
    NetDigests d;
    Result<DetectionResult> detection = DetectSuspiciousGroups(net);
    EXPECT_TRUE(detection.ok()) << detection.status().ToString();
    if (!detection.ok()) return d;
    ScoringResult scoring = ScoreDetection(net, *detection);
    d.groups = Digest(RenderSuspiciousGroups(net, detection->groups));
    d.ranked = Digest(RenderCanonicalReport(
        BuildCanonicalReport(net, *detection, scoring)));

    const std::string snap = dir_ + "/net.snap";
    Status status = WriteSnapshot(net, snap);
    EXPECT_TRUE(status.ok()) << status.ToString();
    d.snapshot = Digest(ReadFileToString(snap));

    const std::string edges = dir_ + "/net.edges";
    status = WriteTpiinEdgeList(edges, net);
    EXPECT_TRUE(status.ok()) << status.ToString();
    d.edge_list = Digest(ReadFileToString(edges));

    d.dot = Digest(TpiinToDot(net, "TPIIN"));
    d.gexf = Digest(TpiinToGexf(net));
    return d;
  }

  // The dataset of CI's snapshot round trip: `tpiin gen --companies=150
  // --p=0.02 --plant=12 --seed=11`, loaded back from its CSV files.
  RawDataset CiExtract() {
    std::ostringstream out;
    Status status = RunCli({"gen", "--out=" + dir_ + "/data",
                            "--companies=150", "--p=0.02", "--plant=12",
                            "--seed=11"},
                           out);
    EXPECT_TRUE(status.ok()) << status.ToString();
    Result<RawDataset> dataset = LoadDatasetCsv(dir_ + "/data");
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    return std::move(*dataset);
  }

  std::string dir_;
};

void ExpectDigests(const NetDigests& got, const NetDigests& want) {
  EXPECT_EQ(Hex(got.groups), Hex(want.groups)) << "susGroup.txt";
  EXPECT_EQ(Hex(got.ranked), Hex(want.ranked)) << "ranked report";
  EXPECT_EQ(Hex(got.snapshot), Hex(want.snapshot)) << "snapshot file";
  EXPECT_EQ(Hex(got.edge_list), Hex(want.edge_list)) << "edge list";
  EXPECT_EQ(Hex(got.dot), Hex(want.dot)) << "TpiinToDot";
  EXPECT_EQ(Hex(got.gexf), Hex(want.gexf)) << "TpiinToGexf";
}

// Layer DOT renderings of G1 (interdependence), G2 (influence), G3
// (investment) and G4 (trading), in that order.
std::vector<uint32_t> LayerDigests(const RawDataset& data) {
  const NodeId persons = static_cast<NodeId>(data.persons().size());
  const NodeId companies = static_cast<NodeId>(data.companies().size());
  return {
      Digest(LayerToDot(persons, BuildInterdependenceGraph(data), {}, "G1")),
      Digest(LayerToDot(persons + companies, BuildInfluenceLayerGraph(data),
                        {}, "G2")),
      Digest(LayerToDot(companies, BuildInvestmentGraph(data), {}, "G3")),
      Digest(LayerToDot(companies, BuildTradingGraph(data), {}, "G4")),
  };
}

void ExpectLayerDigests(const std::vector<uint32_t>& got,
                        const std::vector<uint32_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Hex(got[i]), Hex(want[i])) << "G" << i + 1;
  }
}

// One digest over every subTPIIN of `net`: the FormatPatternBase text,
// the trail count and truncation flag, and the patterns-tree rows
// (graph_node, parent, via_trading_arc, via_arc) in emission order.
uint32_t PatternDigest(const Tpiin& net, const PatternGenOptions& options) {
  std::string text;
  for (const SubTpiin& sub : SegmentTpiin(net)) {
    Result<PatternGenResult> gen = GeneratePatternBase(sub, options);
    EXPECT_TRUE(gen.ok()) << gen.status().ToString();
    if (!gen.ok()) return 0;
    text += FormatPatternBase(sub, gen->tree);
    text += StringPrintf("trails=%zu truncated=%d\n", gen->num_trails,
                         gen->truncated ? 1 : 0);
    for (const PatternsTree::TreeNode& node : gen->tree.nodes) {
      text += StringPrintf("%u %d %d %u\n", node.graph_node, node.parent,
                           node.via_trading_arc ? 1 : 0, node.via_arc);
    }
    text += "--\n";
  }
  return Digest(text);
}

TEST_F(GoldenDigestTest, WorkedExampleArtifacts) {
  ExpectDigests(DigestNet(BuildWorkedExampleTpiin()),
                NetDigests{
                    .groups = 0x69c3f184,
                    .ranked = 0x2a05e38c,
                    .snapshot = 0x98c81ed5,
                    .edge_list = 0xb2f338df,
                    .dot = 0xae370c49,
                    .gexf = 0xbee696b9,
                });
}

TEST_F(GoldenDigestTest, CiExtractArtifacts) {
  RawDataset data = CiExtract();
  Result<FusionOutput> fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ExpectDigests(DigestNet(fused->tpiin),
                NetDigests{
                    .groups = 0x279b89b4,
                    .ranked = 0x81848c8a,
                    .snapshot = 0xb4a058db,
                    .edge_list = 0x7d603627,
                    .dot = 0x67c0590a,
                    .gexf = 0x144c27d7,
                });
}

// No generated input repeats a record or forms a company syndicate, so
// this one does both: CiExtract() plus three investment cycles (each
// arc with a trade against it), then a shuffled second copy of every
// record. Pins the per-layer dedups, the maximum-weight fold on
// influence and investment arcs, and the intra-syndicate trades, at one
// and at four fusion threads.
TEST_F(GoldenDigestTest, DuplicateRecordArtifacts) {
  RawDataset data = CiExtract();
  Rng rng(16);
  const auto share = [&] { return 1.0 - rng.UniformDouble(); };
  const CompanyId kCycleArcs[][2] = {{0, 1}, {1, 0}, {2, 3}, {3, 2},
                                     {4, 5}, {5, 6}, {6, 4}};
  for (const auto& arc : kCycleArcs) {
    data.AddInvestment(arc[0], arc[1], share());
    data.AddTrade(arc[1], arc[0]);  // Inside the syndicate-to-be.
  }

  std::vector<InterdependenceRecord> interdependence = data.interdependence();
  rng.Shuffle(interdependence);
  for (const InterdependenceRecord& rec : interdependence) {
    data.AddInterdependence(rec.person_b, rec.person_a,
                            rec.kind == InterdependenceKind::kKinship
                                ? InterdependenceKind::kInterlocking
                                : InterdependenceKind::kKinship);
  }
  std::vector<InfluenceRecord> influence = data.influence();
  rng.Shuffle(influence);
  for (const InfluenceRecord& rec : influence) {
    data.AddInfluence(rec.person, rec.company,
                      static_cast<InfluenceKind>(rng.UniformU64(4)),
                      /*is_legal_person=*/false);
  }
  std::vector<InvestmentRecord> investments = data.investments();
  rng.Shuffle(investments);
  for (const InvestmentRecord& rec : investments) {
    data.AddInvestment(rec.investor, rec.investee, share());
  }
  std::vector<TradeRecord> trades = data.trades();
  rng.Shuffle(trades);
  for (const TradeRecord& rec : trades) data.AddTrade(rec.seller, rec.buyer);

  ExpectLayerDigests(LayerDigests(data),
                     {0xac918cbc, 0xf8e768f0, 0x40d19ba6, 0x884aea9d});
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(StringPrintf("threads=%u", threads));
    FusionOptions options;
    options.num_threads = threads;
    Result<FusionOutput> fused = BuildTpiin(data, options);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_EQ(Hex(Digest(fused->stats.ToString())), Hex(0x6aedb91e))
        << fused->stats.ToString();
    ExpectDigests(DigestNet(fused->tpiin),
                  NetDigests{
                      .groups = 0x43fd6c48,
                      .ranked = 0x6c93762b,
                      .snapshot = 0x047630fb,
                      .edge_list = 0xdee535cb,
                      .dot = 0xc47902b2,
                      .gexf = 0xa13c0448,
                  });
  }
}

TEST_F(GoldenDigestTest, WorkedExampleLayerDot) {
  ExpectLayerDigests(LayerDigests(BuildWorkedExampleDataset()),
                     {0x8c6c06a0, 0x5b1dcb49, 0xe537318c, 0x727d61c9});
}

TEST_F(GoldenDigestTest, CiExtractLayerDot) {
  ExpectLayerDigests(LayerDigests(CiExtract()),
                     {0xac918cbc, 0xf8e768f0, 0xd70f8cb8, 0x72e7b428});
}

TEST(GoldenPatternDigestTest, RandomNetPatternBasesAndTrees) {
  // Seeds 100..119.
  const uint32_t kWant[20] = {
      0x0c8414e3, 0xa5e87310, 0x00000000, 0x3defd59f, 0x4883f3a2,
      0x16eb91c9, 0xd5fd93b6, 0x00000000, 0xabd268ac, 0xce820e85,
      0x07465833, 0x2af4da30, 0x26e8a897, 0x5c46e218, 0xba81315b,
      0x1eb11a03, 0xcef67fbf, 0x00000000, 0x2f4bd8a0, 0x00000000,
  };
  for (uint64_t seed = 100; seed < 120; ++seed) {
    Tpiin net = RandomTpiin(seed, /*max_persons=*/8, /*max_companies=*/16);
    EXPECT_EQ(Hex(PatternDigest(net, {})), Hex(kWant[seed - 100]))
        << "seed " << seed;
  }
}

TEST(GoldenPatternDigestTest, TruncatedPatternBasesAndTrees) {
  // Seeds 200..209, each under max_trails in {1, 3} x max_trail_length
  // in {0, 2}, in that nesting order.
  const uint32_t kWant[10][4] = {
      {0x1222cbec, 0x120dd662, 0x2ab9c03c, 0x53d8ec17},
      {0x1b0dde2e, 0xa19e4781, 0xd0216510, 0x3d53dcca},
      {0x00000000, 0x00000000, 0x00000000, 0x00000000},
      {0xdd4e3f17, 0xdd4e3f17, 0xe13c6971, 0xe13c6971},
      {0xb4f836d6, 0xc597ac34, 0x975a3eeb, 0xc597ac34},
      {0x00000000, 0x00000000, 0x00000000, 0x00000000},
      {0xcb2eabfd, 0x355a7b46, 0x41c09ba4, 0x7f2de350},
      {0xe40e3b2f, 0xee4616d6, 0x51015a71, 0x9fa10bd2},
      {0x7b237e89, 0x7b237e89, 0x56f6564f, 0xdde330dc},
      {0xbdc867dc, 0xbdc867dc, 0x5eebd2d5, 0x89828af0},
  };
  for (uint64_t seed = 200; seed < 210; ++seed) {
    Tpiin net = RandomTpiin(seed, /*max_persons=*/8, /*max_companies=*/16);
    int cell = 0;
    for (size_t max_trails : {size_t{1}, size_t{3}}) {
      for (size_t max_len : {size_t{0}, size_t{2}}) {
        PatternGenOptions options;
        options.max_trails = max_trails;
        options.max_trail_length = max_len;
        EXPECT_EQ(Hex(PatternDigest(net, options)),
                  Hex(kWant[seed - 200][cell]))
            << "seed " << seed << " max_trails " << max_trails
            << " max_trail_length " << max_len;
        ++cell;
      }
    }
  }
}

}  // namespace
}  // namespace tpiin
