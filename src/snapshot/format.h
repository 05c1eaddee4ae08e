#ifndef TPIIN_SNAPSHOT_FORMAT_H_
#define TPIIN_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tpiin {

/// On-disk layout of a TPIIN snapshot (see DESIGN.md "Snapshot format"):
///
///   [SnapshotHeader | 64 B]
///   [SectionEntry x section_count]
///   [64-byte padding]
///   [section payloads, each 64-byte aligned]
///
/// Every section is one fixed-width column copied verbatim from the
/// in-memory representation, so opening a snapshot is mmap + validation
/// + pointer fix-up — nothing is parsed, decompressed or re-allocated.
/// Integers are stored in host byte order; the header records the
/// writer's endianness so a foreign-endian file is rejected instead of
/// silently misread (the snapshot is a cache artifact, not an exchange
/// format — rebuild it from the CSVs when moving architectures).

inline constexpr char kSnapshotMagic[8] = {'T', 'P', 'I', 'I',
                                           'N', 'S', 'N', 'P'};
inline constexpr uint32_t kSnapshotVersion = 1;

/// Section payload alignment. 64 keeps every element type this format
/// stores (u8..u64, double, 12-byte trade records) naturally aligned in
/// the page-aligned mapping and starts each column on its own cache line.
inline constexpr uint64_t kSnapshotAlignment = 64;

/// The value a little-endian writer stores in SnapshotHeader::endianness.
inline constexpr uint32_t kSnapshotLittleEndian = 0x01020304u;

// SnapshotHeader::flags bits.
inline constexpr uint32_t kSnapshotFlagHasWccIndex = 1u << 0;

/// Section ids of format version 1. All sections are required except
/// kWccComponentOf, which is present iff kSnapshotFlagHasWccIndex is set.
enum class SectionId : uint32_t {
  kMeta = 1,
  // FrozenGraph CSR columns, both directions (see FrozenGraph::Parts).
  kOutOffsets = 2,
  kOutInfluenceEnd = 3,
  kOutTargets = 4,
  kOutArcIds = 5,
  kInOffsets = 6,
  kInInfluenceEnd = 7,
  kInSources = 8,
  kInArcIds = 9,
  // Columnar node store.
  kNodeColor = 10,
  kLabelOffsets = 11,
  kLabelBytes = 12,
  kPersonMemberOffsets = 13,
  kPersonMembers = 14,
  kCompanyMemberOffsets = 15,
  kCompanyMembers = 16,
  kInternalInvestmentOffsets = 17,
  kInternalInvestments = 18,
  // The arc table: weight, src and dst per arc id.
  kArcWeight = 19,
  kArcSrc = 20,
  kArcDst = 21,
  // Original-entity maps and deferred self-loop trades.
  kPersonNode = 22,
  kCompanyNode = 23,
  kIntraSyndicateTrades = 24,
  // Segmentation index: antecedent-WCC component id per node.
  kWccComponentOf = 25,
};

inline constexpr uint32_t kSnapshotMaxSectionId = 25;
inline constexpr uint32_t kSnapshotRequiredSections = 24;  // Without WCC.

std::string_view SectionName(SectionId id);

/// Fixed 64-byte file header. `header_crc` is the CRC-32C of this struct
/// with the header_crc field zeroed; `directory_crc` covers the raw
/// SectionEntry array. Both are checked before any entry is trusted.
struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t endianness;  // kSnapshotLittleEndian as written.
  uint64_t file_size;   // Total bytes; must equal the on-disk size.
  uint32_t flags;
  uint32_t section_count;
  uint32_t directory_crc;
  uint32_t header_crc;
  uint8_t reserved[24];
};
static_assert(sizeof(SnapshotHeader) == 64, "header must stay 64 bytes");

/// One directory row. `size == count * elem_size`; `offset` is from the
/// start of the file and kSnapshotAlignment-aligned.
struct SectionEntry {
  uint32_t id;         // SectionId.
  uint32_t elem_size;  // Bytes per element.
  uint64_t offset;
  uint64_t size;
  uint64_t count;
  uint32_t crc;  // CRC-32C of the payload bytes.
  uint32_t reserved;
};
static_assert(sizeof(SectionEntry) == 40, "entry must stay 40 bytes");

/// Payload of the kMeta section (one element). The counts are the
/// cross-check against the directory: each column section must have
/// exactly the element count these totals imply.
struct SnapshotMeta {
  uint64_t num_nodes;
  uint64_t num_arcs;
  uint64_t num_influence_arcs;
  int32_t influence_color;
  uint32_t reserved0;
  uint64_t num_persons;    // Entries in the person -> node map.
  uint64_t num_companies;  // Entries in the company -> node map.
  uint64_t num_intra_syndicate_trades;
  uint64_t wcc_num_components;  // 0 when the WCC section is absent.
  uint8_t reserved[64];
};
static_assert(sizeof(SnapshotMeta) == 128, "meta must stay 128 bytes");

inline uint64_t AlignSnapshotOffset(uint64_t offset) {
  return (offset + kSnapshotAlignment - 1) & ~(kSnapshotAlignment - 1);
}

}  // namespace tpiin

#endif  // TPIIN_SNAPSHOT_FORMAT_H_
