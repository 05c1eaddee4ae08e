// Round-trip equivalence of the binary snapshot: every column a
// snapshot-backed Tpiin serves must match the fused network it was
// written from, and detection from the mapped view must be bit-identical
// to detection from the in-memory network at any thread count.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "datagen/province.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"
#include "graph/connected.h"
#include "snapshot/snapshot.h"

namespace tpiin {
namespace {

class SnapshotRoundtripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_snap_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

// A province small enough for a fast test but with every feature the
// format stores: syndicates, multi-component antecedent layer, weights,
// intra-syndicate trades (when the seed produces them).
Tpiin FuseProvince() {
  ProvinceConfig config = PaperProvinceConfig();
  config.num_companies = 300;
  config.num_legal_persons = 160;
  config.num_directors = 90;
  for (uint32_t& s : config.large_group_sizes) s = s / 8 + 4;
  config.trading_probability = 0.02;
  Result<Province> province = GenerateProvince(config);
  EXPECT_TRUE(province.ok()) << province.status().ToString();
  Result<FusionOutput> fused = BuildTpiin(province->dataset);
  EXPECT_TRUE(fused.ok()) << fused.status().ToString();
  return std::move(fused->tpiin);
}

void ExpectSameNetwork(const Tpiin& a, const Tpiin& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumArcs(), b.NumArcs());
  EXPECT_EQ(a.num_influence_arcs(), b.num_influence_arcs());

  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(a.color(v), b.color(v)) << "node " << v;
    EXPECT_EQ(a.Label(v), b.Label(v)) << "node " << v;
    TpiinNode na = a.node(v);
    TpiinNode nb = b.node(v);
    ASSERT_EQ(na.person_members.size(), nb.person_members.size());
    for (size_t i = 0; i < na.person_members.size(); ++i) {
      EXPECT_EQ(na.person_members[i], nb.person_members[i]);
    }
    ASSERT_EQ(na.company_members.size(), nb.company_members.size());
    for (size_t i = 0; i < na.company_members.size(); ++i) {
      EXPECT_EQ(na.company_members[i], nb.company_members[i]);
    }
    ASSERT_EQ(na.internal_investments.size(),
              nb.internal_investments.size());
    for (size_t i = 0; i < na.internal_investments.size(); ++i) {
      EXPECT_EQ(na.internal_investments[i].investor,
                nb.internal_investments[i].investor);
      EXPECT_EQ(na.internal_investments[i].investee,
                nb.internal_investments[i].investee);
    }
  }

  for (ArcId id = 0; id < a.NumArcs(); ++id) {
    Arc arc_a = a.arc(id);
    Arc arc_b = b.arc(id);
    EXPECT_EQ(arc_a.src, arc_b.src) << "arc " << id;
    EXPECT_EQ(arc_a.dst, arc_b.dst) << "arc " << id;
    EXPECT_EQ(IsInfluenceArc(arc_a), IsInfluenceArc(arc_b))
        << "arc " << id;
    EXPECT_EQ(a.ArcWeight(id), b.ArcWeight(id)) << "arc " << id;
  }

  // CSR adjacency, both directions and both classes.
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    for (FrozenArcClass c :
         {FrozenArcClass::kAll, FrozenArcClass::kInfluence,
          FrozenArcClass::kTrading}) {
      auto out_a = a.frozen().OutClass(v, c);
      auto out_b = b.frozen().OutClass(v, c);
      ASSERT_EQ(out_a.size(), out_b.size()) << "node " << v;
      for (size_t i = 0; i < out_a.size(); ++i) {
        EXPECT_EQ(out_a.nodes[i], out_b.nodes[i]);
        EXPECT_EQ(out_a.arcs[i], out_b.arcs[i]);
      }
      auto in_a = a.frozen().InClass(v, c);
      auto in_b = b.frozen().InClass(v, c);
      ASSERT_EQ(in_a.size(), in_b.size()) << "node " << v;
      for (size_t i = 0; i < in_a.size(); ++i) {
        EXPECT_EQ(in_a.nodes[i], in_b.nodes[i]);
        EXPECT_EQ(in_a.arcs[i], in_b.arcs[i]);
      }
    }
  }

  ASSERT_EQ(a.intra_syndicate_trades().size(),
            b.intra_syndicate_trades().size());
  for (size_t i = 0; i < a.intra_syndicate_trades().size(); ++i) {
    EXPECT_EQ(a.intra_syndicate_trades()[i].syndicate_node,
              b.intra_syndicate_trades()[i].syndicate_node);
    EXPECT_EQ(a.intra_syndicate_trades()[i].seller,
              b.intra_syndicate_trades()[i].seller);
    EXPECT_EQ(a.intra_syndicate_trades()[i].buyer,
              b.intra_syndicate_trades()[i].buyer);
  }
}

void ExpectSameDetection(const Tpiin& a, const Tpiin& b,
                         uint32_t threads) {
  DetectorOptions options;
  options.num_threads = threads;
  Result<DetectionResult> ra = DetectSuspiciousGroups(a, options);
  Result<DetectionResult> rb = DetectSuspiciousGroups(b, options);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra->num_simple, rb->num_simple);
  EXPECT_EQ(ra->num_complex, rb->num_complex);
  ASSERT_EQ(ra->suspicious_trades.size(), rb->suspicious_trades.size());
  for (size_t i = 0; i < ra->suspicious_trades.size(); ++i) {
    EXPECT_EQ(ra->suspicious_trades[i], rb->suspicious_trades[i]);
  }
  ASSERT_EQ(ra->groups.size(), rb->groups.size());
  for (size_t i = 0; i < ra->groups.size(); ++i) {
    EXPECT_EQ(ra->groups[i].Format(a), rb->groups[i].Format(b));
  }
}

TEST_F(SnapshotRoundtripTest, WorkedExampleAllColumns) {
  Result<FusionOutput> fused = BuildTpiin(BuildWorkedExampleDataset());
  ASSERT_TRUE(fused.ok());
  const std::string path = Path("we.snap");
  ASSERT_TRUE(WriteSnapshot(fused->tpiin, path).ok());

  auto view = SnapshotView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ExpectSameNetwork(fused->tpiin, (*view)->net());
  ExpectSameDetection(fused->tpiin, (*view)->net(), 1);
}

TEST_F(SnapshotRoundtripTest, ProvinceAllColumnsAndDetection) {
  Tpiin net = FuseProvince();
  const std::string path = Path("prov.snap");
  ASSERT_TRUE(WriteSnapshot(net, path).ok());

  auto view = SnapshotView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ExpectSameNetwork(net, (*view)->net());
  for (uint32_t threads : {1u, 8u}) {
    ExpectSameDetection(net, (*view)->net(), threads);
  }
}

TEST_F(SnapshotRoundtripTest, WccIndexMatchesRecomputation) {
  Tpiin net = FuseProvince();
  const std::string path = Path("wcc.snap");
  ASSERT_TRUE(WriteSnapshot(net, path).ok());

  auto view = SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  const Tpiin& mapped = (*view)->net();
  ASSERT_TRUE(mapped.has_wcc_index());
  WccResult wcc = WeaklyConnectedComponents(net.frozen(),
                                            FrozenArcClass::kInfluence);
  EXPECT_EQ(mapped.NumWccComponents(), wcc.num_components);
  ASSERT_EQ(mapped.WccComponentOf().size(), wcc.component_of.size());
  for (size_t i = 0; i < wcc.component_of.size(); ++i) {
    EXPECT_EQ(mapped.WccComponentOf()[i], wcc.component_of[i]);
  }
}

TEST_F(SnapshotRoundtripTest, WithoutWccIndex) {
  Tpiin net = FuseProvince();
  const std::string path = Path("nowcc.snap");
  SnapshotWriteOptions options;
  options.include_wcc_index = false;
  ASSERT_TRUE(WriteSnapshot(net, path, options).ok());

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->flags & kSnapshotFlagHasWccIndex, 0u);
  EXPECT_EQ(info->sections.size(), kSnapshotRequiredSections);

  auto view = SnapshotView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE((*view)->net().has_wcc_index());
  ExpectSameDetection(net, (*view)->net(), 1);
}

TEST_F(SnapshotRoundtripTest, OpenWithoutChecksumVerification) {
  Tpiin net = FuseProvince();
  const std::string path = Path("fast.snap");
  ASSERT_TRUE(WriteSnapshot(net, path).ok());
  SnapshotOpenOptions options;
  options.verify_checksums = false;
  auto view = SnapshotView::Open(path, options);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ExpectSameNetwork(net, (*view)->net());
}

TEST_F(SnapshotRoundtripTest, WriteIsDeterministic) {
  Tpiin net = FuseProvince();
  const std::string p1 = Path("a.snap");
  const std::string p2 = Path("b.snap");
  ASSERT_TRUE(WriteSnapshot(net, p1).ok());
  ASSERT_TRUE(WriteSnapshot(net, p2).ok());
  std::ifstream f1(p1, std::ios::binary);
  std::ifstream f2(p2, std::ios::binary);
  std::string b1((std::istreambuf_iterator<char>(f1)),
                 std::istreambuf_iterator<char>());
  std::string b2((std::istreambuf_iterator<char>(f2)),
                 std::istreambuf_iterator<char>());
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2);
}

TEST_F(SnapshotRoundtripTest, EmptyNetworkRefused) {
  Tpiin empty;
  Status status = WriteSnapshot(empty, Path("empty.snap"));
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(std::filesystem::exists(Path("empty.snap")));
}

TEST_F(SnapshotRoundtripTest, InfoMatchesFile) {
  Tpiin net = FuseProvince();
  const std::string path = Path("info.snap");
  ASSERT_TRUE(WriteSnapshot(net, path).ok());

  auto info = ReadSnapshotInfo(path, /*verify_checksums=*/true);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->file_size, std::filesystem::file_size(path));
  EXPECT_EQ(info->meta.num_nodes, net.NumNodes());
  EXPECT_EQ(info->meta.num_arcs, net.NumArcs());
  EXPECT_EQ(info->sections.size(), kSnapshotRequiredSections + 1);
  for (const SnapshotSectionInfo& section : info->sections) {
    EXPECT_TRUE(section.crc_checked) << section.name;
    EXPECT_TRUE(section.crc_ok) << section.name;
  }
  std::string text = FormatSnapshotInfo(*info);
  EXPECT_NE(text.find("out_offsets"), std::string::npos);
  EXPECT_NE(text.find("wcc_component_of"), std::string::npos);
}

}  // namespace
}  // namespace tpiin
