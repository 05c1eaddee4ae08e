// Hostile-file tests: every malformed snapshot must be rejected with a
// clean Status::Corruption — never a crash, never a garbage network.
// Mutations that invalidate the header or directory are re-checksummed
// so they reach the check under test instead of dying at the CRC gate.

#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"

namespace tpiin {
namespace {

class SnapshotHostileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tpiin_hostile_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);

    Result<FusionOutput> fused = BuildTpiin(BuildWorkedExampleDataset());
    ASSERT_TRUE(fused.ok());
    path_ = dir_ + "/good.snap";
    ASSERT_TRUE(WriteSnapshot(fused->tpiin, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes_.empty());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteBytes(const std::string& name,
                         const std::string& bytes) {
    std::string path = dir_ + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  // Both consumers must reject the file the same way.
  void ExpectRejected(const std::string& path,
                      const std::string& expect_substring) {
    auto view = SnapshotView::Open(path);
    ASSERT_FALSE(view.ok()) << path;
    EXPECT_TRUE(view.status().IsCorruption()) << view.status().ToString();
    EXPECT_NE(view.status().ToString().find(expect_substring),
              std::string::npos)
        << "status: " << view.status().ToString();

    auto info = ReadSnapshotInfo(path);
    ASSERT_FALSE(info.ok()) << path;
    EXPECT_TRUE(info.status().IsCorruption()) << info.status().ToString();
  }

  SnapshotHeader Header() const {
    SnapshotHeader header;
    std::memcpy(&header, bytes_.data(), sizeof(header));
    return header;
  }

  // Stores `header` back into `bytes` with a valid header_crc, so the
  // mutation under test survives the checksum gate.
  static void PutHeader(std::string* bytes, SnapshotHeader header) {
    header.header_crc = 0;
    header.header_crc = Crc32c(&header, sizeof(header));
    std::memcpy(bytes->data(), &header, sizeof(header));
  }

  // Rewrites directory entry `index` and re-seals directory + header
  // CRCs around it.
  void PutEntry(std::string* bytes, size_t index,
                const SectionEntry& entry) const {
    SnapshotHeader header;
    std::memcpy(&header, bytes->data(), sizeof(header));
    std::memcpy(bytes->data() + sizeof(SnapshotHeader) +
                    index * sizeof(SectionEntry),
                &entry, sizeof(entry));
    header.directory_crc =
        Crc32c(bytes->data() + sizeof(SnapshotHeader),
               header.section_count * sizeof(SectionEntry));
    PutHeader(bytes, header);
  }

  SectionEntry Entry(size_t index) const {
    SectionEntry entry;
    std::memcpy(&entry,
                bytes_.data() + sizeof(SnapshotHeader) +
                    index * sizeof(SectionEntry),
                sizeof(entry));
    return entry;
  }

  size_t IndexOf(SectionId id) const {
    const SnapshotHeader header = Header();
    for (size_t i = 0; i < header.section_count; ++i) {
      if (Entry(i).id == static_cast<uint32_t>(id)) return i;
    }
    ADD_FAILURE() << "section id " << static_cast<uint32_t>(id)
                  << " not in directory";
    return 0;
  }

  // Overwrites payload bytes at `byte_off` within section `index` and
  // re-seals its CRC (plus directory + header) so the mutation reaches
  // the shape checks instead of dying at the checksum gate.
  void PutPayload(std::string* bytes, size_t index, uint64_t byte_off,
                  const void* value, size_t value_size) const {
    SectionEntry entry;
    std::memcpy(&entry,
                bytes->data() + sizeof(SnapshotHeader) +
                    index * sizeof(SectionEntry),
                sizeof(entry));
    std::memcpy(bytes->data() + entry.offset + byte_off, value,
                value_size);
    entry.crc = Crc32c(bytes->data() + entry.offset,
                       static_cast<size_t>(entry.size));
    PutEntry(bytes, index, entry);
  }

  // ReadSnapshotInfo stops at the header/directory validator, so
  // payload-level corruption is only caught by the mapping consumer —
  // with and without the checksum pass.
  void ExpectViewRejected(const std::string& path,
                          const std::string& expect_substring) {
    for (bool verify : {true, false}) {
      SnapshotOpenOptions options;
      options.verify_checksums = verify;
      auto view = SnapshotView::Open(path, options);
      ASSERT_FALSE(view.ok()) << path << " verify=" << verify;
      EXPECT_TRUE(view.status().IsCorruption())
          << view.status().ToString();
      EXPECT_NE(view.status().ToString().find(expect_substring),
                std::string::npos)
          << "status: " << view.status().ToString();
    }
  }

  std::string dir_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotHostileTest, TruncatedFile) {
  for (size_t keep : {size_t{0}, size_t{17}, sizeof(SnapshotHeader),
                      bytes_.size() / 2, bytes_.size() - 1}) {
    std::string path =
        WriteBytes("trunc_" + std::to_string(keep) + ".snap",
                   bytes_.substr(0, keep));
    auto view = SnapshotView::Open(path);
    ASSERT_FALSE(view.ok()) << "keep=" << keep;
    EXPECT_TRUE(view.status().IsCorruption()) << view.status().ToString();
  }
}

TEST_F(SnapshotHostileTest, TrailingGarbage) {
  std::string padded = bytes_ + std::string(100, 'x');
  ExpectRejected(WriteBytes("padded.snap", padded), "truncated or padded");
}

TEST_F(SnapshotHostileTest, WrongMagic) {
  std::string bad = bytes_;
  bad[0] = 'X';
  ExpectRejected(WriteBytes("magic.snap", bad), "magic");
}

TEST_F(SnapshotHostileTest, UnsupportedVersion) {
  std::string bad = bytes_;
  SnapshotHeader header = Header();
  header.version = kSnapshotVersion + 7;
  PutHeader(&bad, header);
  ExpectRejected(WriteBytes("version.snap", bad), "version");
}

TEST_F(SnapshotHostileTest, ForeignEndianness) {
  std::string bad = bytes_;
  SnapshotHeader header = Header();
  header.endianness = 0x04030201u;
  PutHeader(&bad, header);
  ExpectRejected(WriteBytes("endian.snap", bad), "endian");
}

TEST_F(SnapshotHostileTest, CorruptHeaderCrc) {
  std::string bad = bytes_;
  bad[offsetof(SnapshotHeader, flags)] ^= 0x01;  // No CRC re-seal.
  auto view = SnapshotView::Open(WriteBytes("hdrcrc.snap", bad));
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsCorruption());
  EXPECT_NE(view.status().ToString().find("header"), std::string::npos);
}

TEST_F(SnapshotHostileTest, FlippedPayloadByte) {
  // Flip one byte in every section payload in turn; each flip must be
  // caught by that section's checksum.
  SnapshotHeader header = Header();
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry = Entry(i);
    if (entry.size == 0) continue;
    std::string bad = bytes_;
    bad[entry.offset + entry.size / 2] ^= 0x20;
    std::string path =
        WriteBytes("flip_" + std::to_string(entry.id) + ".snap", bad);
    auto view = SnapshotView::Open(path);
    ASSERT_FALSE(view.ok()) << "section id " << entry.id;
    EXPECT_TRUE(view.status().IsCorruption());
    EXPECT_NE(view.status().ToString().find("checksum"),
              std::string::npos)
        << view.status().ToString();

    // Info in verify mode flags the section rather than failing.
    auto info = ReadSnapshotInfo(path, /*verify_checksums=*/true);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    size_t mismatches = 0;
    for (const SnapshotSectionInfo& section : info->sections) {
      EXPECT_TRUE(section.crc_checked);
      mismatches += section.crc_checked && !section.crc_ok;
    }
    EXPECT_EQ(mismatches, 1u) << "section id " << entry.id;
  }
}

TEST_F(SnapshotHostileTest, OverlappingSections) {
  // Point section 1 into section 2's bytes (sizes unchanged, CRCs
  // re-sealed): the overlap check must fire.
  SectionEntry first = Entry(1);
  SectionEntry second = Entry(2);
  ASSERT_GT(second.size, 0u);
  std::string bad = bytes_;
  first.offset = second.offset;
  first.crc = Crc32c(bytes_.data() + second.offset,
                     static_cast<size_t>(first.size));
  PutEntry(&bad, 1, first);
  auto view = SnapshotView::Open(WriteBytes("overlap.snap", bad));
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsCorruption());
  EXPECT_NE(view.status().ToString().find("overlap"), std::string::npos)
      << view.status().ToString();
}

TEST_F(SnapshotHostileTest, SectionPastEndOfFile) {
  SectionEntry entry = Entry(1);
  std::string bad = bytes_;
  entry.offset = AlignSnapshotOffset(bytes_.size());
  PutEntry(&bad, 1, entry);
  auto view = SnapshotView::Open(WriteBytes("oob.snap", bad));
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsCorruption());
}

TEST_F(SnapshotHostileTest, MisalignedSectionOffset) {
  SectionEntry entry = Entry(1);
  std::string bad = bytes_;
  entry.offset += 4;  // Still in bounds, no longer 64-byte aligned.
  PutEntry(&bad, 1, entry);
  auto view = SnapshotView::Open(WriteBytes("misaligned.snap", bad));
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsCorruption());
}

TEST_F(SnapshotHostileTest, SizeCountMismatch) {
  SectionEntry entry = Entry(1);
  std::string bad = bytes_;
  entry.count += 1;  // size stays, so size != count * elem_size.
  PutEntry(&bad, 1, entry);
  auto view = SnapshotView::Open(WriteBytes("count.snap", bad));
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsCorruption());
}

TEST_F(SnapshotHostileTest, SizeCountWrappingMultiply) {
  // count=2^62 with elem_size 4 multiplies to 0 mod 2^64, so a
  // wrapping `size != count * elem_size` check would accept size=0
  // (which then passes every bounds/overlap/CRC check) and publish a
  // 2^62-element span. The divide-based check must reject it.
  const size_t index = IndexOf(SectionId::kPersonMembers);
  SectionEntry entry = Entry(index);
  ASSERT_EQ(entry.elem_size, 4u);
  std::string bad = bytes_;
  entry.count = uint64_t{1} << 62;
  entry.size = 0;
  entry.crc = Crc32c(bytes_.data(), 0);
  PutEntry(&bad, index, entry);
  ExpectRejected(WriteBytes("wrap.snap", bad), "size/count mismatch");
}

TEST_F(SnapshotHostileTest, NonMonotonicMemberOffsets) {
  // An interior offset above its successor wraps span lengths
  // (offsets[i+1] - offsets[i]) to ~2^64. Terminals stay valid and all
  // CRCs are re-sealed, so only the per-element pass can catch it.
  const size_t index = IndexOf(SectionId::kPersonMemberOffsets);
  ASSERT_GE(Entry(index).count, 3u);  // Need an interior element.
  const uint64_t huge = ~uint64_t{0};
  std::string bad = bytes_;
  PutPayload(&bad, index, sizeof(uint64_t), &huge, sizeof(huge));
  ExpectViewRejected(WriteBytes("monotone.snap", bad), "not monotone");
}

TEST_F(SnapshotHostileTest, NonMonotonicCsrOffsets) {
  const size_t index = IndexOf(SectionId::kOutOffsets);
  ASSERT_GE(Entry(index).count, 3u);
  const uint32_t huge = ~uint32_t{0};
  std::string bad = bytes_;
  PutPayload(&bad, index, sizeof(uint32_t), &huge, sizeof(huge));
  ExpectViewRejected(WriteBytes("csr_monotone.snap", bad),
                     "not monotone");
}

TEST_F(SnapshotHostileTest, InfluenceSplitOutOfRange) {
  const size_t index = IndexOf(SectionId::kOutInfluenceEnd);
  const uint32_t huge = ~uint32_t{0};
  std::string bad = bytes_;
  PutPayload(&bad, index, 0, &huge, sizeof(huge));
  ExpectViewRejected(WriteBytes("split.snap", bad), "influence split");
}

// CRC-consistent files whose index columns name a node, arc or
// component past the end of the graph: shapes and checksums all pass,
// so only the value pass stands between them and an out-of-bounds read
// in the first traversal.
class SnapshotOutOfRangeTest : public SnapshotHostileTest {
 protected:
  // Writes 0x00FFFFFF over the first element of section `id` in
  // `bytes` (re-sealing every CRC) and expects the view to refuse it.
  // Every snapshot lists its sections in the same directory order, so
  // the fixture's IndexOf addresses `bytes` too.
  void ExpectOutOfRangeRejected(const std::string& bytes, SectionId id) {
    const uint32_t past_end = 0x00FFFFFF;
    std::string bad = bytes;
    PutPayload(&bad, IndexOf(id), 0, &past_end, sizeof(past_end));
    ExpectViewRejected(
        WriteBytes("range_" + std::string(SectionName(id)) + ".snap", bad),
        "out-of-range value");
  }
};

TEST_F(SnapshotOutOfRangeTest, OutTargets) {
  ExpectOutOfRangeRejected(bytes_, SectionId::kOutTargets);
}

TEST_F(SnapshotOutOfRangeTest, InSources) {
  ExpectOutOfRangeRejected(bytes_, SectionId::kInSources);
}

TEST_F(SnapshotOutOfRangeTest, ArcSrc) {
  ExpectOutOfRangeRejected(bytes_, SectionId::kArcSrc);
}

TEST_F(SnapshotOutOfRangeTest, ArcDst) {
  ExpectOutOfRangeRejected(bytes_, SectionId::kArcDst);
}

TEST_F(SnapshotOutOfRangeTest, PersonNode) {
  ExpectOutOfRangeRejected(bytes_, SectionId::kPersonNode);
}

TEST_F(SnapshotOutOfRangeTest, CompanyNode) {
  ExpectOutOfRangeRejected(bytes_, SectionId::kCompanyNode);
}

TEST_F(SnapshotOutOfRangeTest, OutArcIds) {
  ExpectOutOfRangeRejected(bytes_, SectionId::kOutArcIds);
}

TEST_F(SnapshotOutOfRangeTest, InArcIds) {
  ExpectOutOfRangeRejected(bytes_, SectionId::kInArcIds);
}

TEST_F(SnapshotOutOfRangeTest, WccComponentOf) {
  ExpectOutOfRangeRejected(bytes_, SectionId::kWccComponentOf);
}

TEST_F(SnapshotOutOfRangeTest, WccNumComponentsAboveNodeCount) {
  const size_t index = IndexOf(SectionId::kMeta);
  SnapshotMeta meta;
  std::memcpy(&meta, bytes_.data() + Entry(index).offset, sizeof(meta));
  const uint64_t too_many = meta.num_nodes + 1;
  std::string bad = bytes_;
  PutPayload(&bad, index, offsetof(SnapshotMeta, wcc_num_components),
             &too_many, sizeof(too_many));
  ExpectViewRejected(WriteBytes("wcc_count.snap", bad),
                     "more WCC components than nodes");
}

TEST_F(SnapshotOutOfRangeTest, IntraSyndicateTradeNode) {
  // The worked example has no company syndicate; build one (C1 and C2
  // invest in each other) with a trade inside it.
  RawDataset data;
  const PersonId l1 = data.AddPerson("L1", kRoleCeo);
  const PersonId l2 = data.AddPerson("L2", kRoleCeo);
  const CompanyId c1 = data.AddCompany("C1");
  const CompanyId c2 = data.AddCompany("C2");
  const CompanyId c3 = data.AddCompany("C3");
  data.AddInfluence(l1, c1, InfluenceKind::kCeoOf, true);
  data.AddInfluence(l1, c2, InfluenceKind::kCeoOf, true);
  data.AddInfluence(l2, c3, InfluenceKind::kCeoOf, true);
  data.AddInvestment(c1, c2, 0.6);
  data.AddInvestment(c2, c1, 0.6);
  data.AddTrade(c1, c2);
  data.AddTrade(c2, c3);
  Result<FusionOutput> fused = BuildTpiin(data);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused->tpiin.intra_syndicate_trades().size(), 1u);
  const std::string path = dir_ + "/syndicate.snap";
  ASSERT_TRUE(WriteSnapshot(fused->tpiin, path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  static_assert(offsetof(IntraSyndicateTrade, syndicate_node) == 0);
  ExpectOutOfRangeRejected(bytes, SectionId::kIntraSyndicateTrades);
}

TEST_F(SnapshotHostileTest, DuplicateSectionId) {
  SectionEntry a = Entry(1);
  SectionEntry b = Entry(2);
  std::string bad = bytes_;
  b.id = a.id;
  PutEntry(&bad, 2, b);
  auto view = SnapshotView::Open(WriteBytes("dup.snap", bad));
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsCorruption());
}

TEST_F(SnapshotHostileTest, NotASnapshotAtAll) {
  std::string text(4096, 'a');
  auto view = SnapshotView::Open(WriteBytes("text.snap", text));
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsCorruption());
}

TEST_F(SnapshotHostileTest, MissingFile) {
  auto view = SnapshotView::Open(dir_ + "/does_not_exist.snap");
  EXPECT_FALSE(view.ok());
  auto info = ReadSnapshotInfo(dir_ + "/does_not_exist.snap");
  EXPECT_FALSE(info.ok());
}

}  // namespace
}  // namespace tpiin
