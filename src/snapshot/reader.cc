#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"

namespace tpiin {

namespace {

uint32_t ExpectedElemSize(SectionId id) {
  switch (id) {
    case SectionId::kMeta:
      return sizeof(SnapshotMeta);
    case SectionId::kNodeColor:
    case SectionId::kLabelBytes:
      return 1;
    case SectionId::kLabelOffsets:
    case SectionId::kPersonMemberOffsets:
    case SectionId::kCompanyMemberOffsets:
    case SectionId::kInternalInvestmentOffsets:
      return sizeof(uint64_t);
    case SectionId::kInternalInvestments:
      return sizeof(InvestmentArc);
    case SectionId::kArcWeight:
      return sizeof(double);
    case SectionId::kIntraSyndicateTrades:
      return sizeof(IntraSyndicateTrade);
    default:
      return sizeof(uint32_t);  // CSR columns, endpoints, entity maps.
  }
}

Status BadSnapshot(const std::string& path, const std::string& what) {
  return Status::Corruption(path + ": " + what);
}

/// Validates header + directory read from `base` (at least
/// sizeof(SnapshotHeader) bytes). On success fills `header` and the
/// by-section-id entry table (index = SectionId value; `count`-less ids
/// absent when entry.elem_size == 0).
Status ValidateHeaderAndDirectory(const std::string& path,
                                  const unsigned char* base,
                                  uint64_t actual_size,
                                  SnapshotHeader* header,
                                  std::vector<SectionEntry>* by_id) {
  std::memcpy(header, base, sizeof(SnapshotHeader));
  if (std::memcmp(header->magic, kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return BadSnapshot(path, "not a TPIIN snapshot (bad magic)");
  }
  if (header->version != kSnapshotVersion) {
    return BadSnapshot(
        path, StringPrintf("unsupported snapshot version %u (expected %u)",
                           header->version, kSnapshotVersion));
  }
  if (header->endianness != kSnapshotLittleEndian) {
    return BadSnapshot(path,
                       "snapshot written on a foreign-endian machine; "
                       "rebuild it on this architecture");
  }
  SnapshotHeader crc_copy = *header;
  crc_copy.header_crc = 0;
  if (Crc32c(&crc_copy, sizeof(crc_copy)) != header->header_crc) {
    return BadSnapshot(path, "header checksum mismatch");
  }
  if (header->file_size != actual_size) {
    return BadSnapshot(
        path, StringPrintf("file is %llu bytes but the header says %llu "
                           "(truncated or padded)",
                           static_cast<unsigned long long>(actual_size),
                           static_cast<unsigned long long>(
                               header->file_size)));
  }
  if (header->section_count == 0 ||
      header->section_count > kSnapshotMaxSectionId) {
    return BadSnapshot(path, StringPrintf("implausible section count %u",
                                          header->section_count));
  }
  const uint64_t directory_end =
      sizeof(SnapshotHeader) +
      static_cast<uint64_t>(header->section_count) * sizeof(SectionEntry);
  if (directory_end > actual_size) {
    return BadSnapshot(path, "section directory extends past end of file");
  }
  if (Crc32c(base + sizeof(SnapshotHeader),
             directory_end - sizeof(SnapshotHeader)) !=
      header->directory_crc) {
    return BadSnapshot(path, "section directory checksum mismatch");
  }

  by_id->assign(kSnapshotMaxSectionId + 1, SectionEntry{});
  std::vector<SectionEntry> in_order(header->section_count);
  std::memcpy(in_order.data(), base + sizeof(SnapshotHeader),
              header->section_count * sizeof(SectionEntry));
  for (const SectionEntry& entry : in_order) {
    if (entry.id == 0 || entry.id > kSnapshotMaxSectionId) {
      return BadSnapshot(path,
                         StringPrintf("unknown section id %u", entry.id));
    }
    if ((*by_id)[entry.id].elem_size != 0) {
      return BadSnapshot(
          path, StringPrintf("duplicate section id %u", entry.id));
    }
    const SectionId id = static_cast<SectionId>(entry.id);
    if (entry.elem_size != ExpectedElemSize(id)) {
      return BadSnapshot(
          path, StringPrintf("section %s has element size %u, expected %u",
                             std::string(SectionName(id)).c_str(),
                             entry.elem_size, ExpectedElemSize(id)));
    }
    // Divide, never multiply: `count * elem_size` wraps for a crafted
    // count near 2^62, letting a huge element count masquerade as a
    // tiny (bounds-checked) byte size. elem_size is non-zero here — it
    // just matched ExpectedElemSize.
    if (entry.size % entry.elem_size != 0 ||
        entry.count != entry.size / entry.elem_size) {
      return BadSnapshot(
          path, StringPrintf("section %s size/count mismatch",
                             std::string(SectionName(id)).c_str()));
    }
    if (entry.offset % kSnapshotAlignment != 0) {
      return BadSnapshot(
          path, StringPrintf("section %s is misaligned",
                             std::string(SectionName(id)).c_str()));
    }
    if (entry.offset < directory_end || entry.offset > actual_size ||
        entry.size > actual_size - entry.offset) {
      return BadSnapshot(
          path, StringPrintf("section %s extends past end of file",
                             std::string(SectionName(id)).c_str()));
    }
    (*by_id)[entry.id] = entry;
  }

  // Reject overlapping payloads: sort by offset and require each section
  // to start at or after the previous one's end.
  std::sort(in_order.begin(), in_order.end(),
            [](const SectionEntry& a, const SectionEntry& b) {
              return a.offset < b.offset;
            });
  for (size_t i = 1; i < in_order.size(); ++i) {
    if (in_order[i].offset <
        in_order[i - 1].offset + in_order[i - 1].size) {
      return BadSnapshot(
          path,
          StringPrintf(
              "sections %s and %s overlap",
              std::string(
                  SectionName(static_cast<SectionId>(in_order[i - 1].id)))
                  .c_str(),
              std::string(
                  SectionName(static_cast<SectionId>(in_order[i].id)))
                  .c_str()));
    }
  }

  // Required sections (meta .. intra_syndicate_trades) must all exist;
  // the WCC index exists iff its flag is set.
  for (uint32_t id = 1; id <= kSnapshotRequiredSections; ++id) {
    if ((*by_id)[id].elem_size == 0) {
      return BadSnapshot(
          path, StringPrintf("missing section %s",
                             std::string(SectionName(
                                             static_cast<SectionId>(id)))
                                 .c_str()));
    }
  }
  const bool has_wcc =
      (*by_id)[static_cast<uint32_t>(SectionId::kWccComponentOf)]
          .elem_size != 0;
  if (has_wcc != ((header->flags & kSnapshotFlagHasWccIndex) != 0)) {
    return BadSnapshot(path,
                       "wcc_component_of section disagrees with the "
                       "header flag");
  }
  return Status::OK();
}

const SectionEntry& Entry(const std::vector<SectionEntry>& by_id,
                          SectionId id) {
  return by_id[static_cast<uint32_t>(id)];
}

/// Cross-checks the column shapes the directory promises against the
/// meta counts, then walks every offsets column once: terminals pinned
/// to [0, value-count], interiors monotone, and the CSR influence split
/// inside each node's arc range. Together these make every later span
/// construction in-bounds even for a CRC-consistent hostile file — a
/// non-monotonic interior offset would wrap a span length to ~2^64.
/// O(num_nodes) per offsets column; dwarfed by the optional CRC pass.
Status ValidateShapes(const std::string& path, const unsigned char* base,
                      const std::vector<SectionEntry>& by_id,
                      const SnapshotMeta& meta) {
  if (meta.num_nodes == 0) {
    return BadSnapshot(path, "snapshot holds an empty graph");
  }
  const uint64_t n = meta.num_nodes;
  const uint64_t m = meta.num_arcs;
  if (meta.num_influence_arcs > m) {
    return BadSnapshot(path, "more influence arcs than arcs");
  }
  if (n > static_cast<uint64_t>(kInvalidNode) ||
      m > static_cast<uint64_t>(kInvalidArc)) {
    return BadSnapshot(path, "node or arc count exceeds the id space");
  }

  struct Expectation {
    SectionId id;
    uint64_t count;
  };
  const Expectation expectations[] = {
      {SectionId::kOutOffsets, n + 1},
      {SectionId::kOutInfluenceEnd, n},
      {SectionId::kOutTargets, m},
      {SectionId::kOutArcIds, m},
      {SectionId::kInOffsets, n + 1},
      {SectionId::kInInfluenceEnd, n},
      {SectionId::kInSources, m},
      {SectionId::kInArcIds, m},
      {SectionId::kNodeColor, n},
      {SectionId::kLabelOffsets, n + 1},
      {SectionId::kPersonMemberOffsets, n + 1},
      {SectionId::kCompanyMemberOffsets, n + 1},
      {SectionId::kInternalInvestmentOffsets, n + 1},
      {SectionId::kArcWeight, m},
      {SectionId::kArcSrc, m},
      {SectionId::kArcDst, m},
      {SectionId::kPersonNode, meta.num_persons},
      {SectionId::kCompanyNode, meta.num_companies},
      {SectionId::kIntraSyndicateTrades, meta.num_intra_syndicate_trades},
  };
  for (const Expectation& expected : expectations) {
    if (Entry(by_id, expected.id).count != expected.count) {
      return BadSnapshot(
          path,
          StringPrintf("section %s holds %llu elements, expected %llu",
                       std::string(SectionName(expected.id)).c_str(),
                       static_cast<unsigned long long>(
                           Entry(by_id, expected.id).count),
                       static_cast<unsigned long long>(expected.count)));
    }
  }
  const SectionEntry& wcc = Entry(by_id, SectionId::kWccComponentOf);
  if (wcc.elem_size != 0 && wcc.count != n) {
    return BadSnapshot(path, "wcc_component_of count mismatch");
  }

  // Offsets columns: terminals pin the spanned range (first element 0,
  // last element the value column's length), and every interior step
  // must be non-decreasing or span lengths like offsets[i+1]-offsets[i]
  // underflow to huge values.
  struct OffsetPair {
    SectionId offsets;
    SectionId values;
  };
  const OffsetPair pairs[] = {
      {SectionId::kLabelOffsets, SectionId::kLabelBytes},
      {SectionId::kPersonMemberOffsets, SectionId::kPersonMembers},
      {SectionId::kCompanyMemberOffsets, SectionId::kCompanyMembers},
      {SectionId::kInternalInvestmentOffsets,
       SectionId::kInternalInvestments},
  };
  for (const OffsetPair& pair : pairs) {
    const SectionEntry& offsets = Entry(by_id, pair.offsets);
    const auto* data =
        reinterpret_cast<const uint64_t*>(base + offsets.offset);
    if (data[0] != 0 || data[n] != Entry(by_id, pair.values).count) {
      return BadSnapshot(
          path, StringPrintf("section %s terminal offsets are broken",
                             std::string(SectionName(pair.offsets))
                                 .c_str()));
    }
    for (uint64_t i = 0; i < n; ++i) {
      if (data[i] > data[i + 1]) {
        return BadSnapshot(
            path, StringPrintf("section %s offsets are not monotone",
                               std::string(SectionName(pair.offsets))
                                   .c_str()));
      }
    }
  }

  // CSR columns: same monotonicity contract, plus the influence split
  // must sit inside each node's arc range (FrozenGraph slices both
  // [offsets[v], end[v]) and [end[v], offsets[v+1])).
  struct CsrPair {
    SectionId offsets;
    SectionId influence_end;
  };
  const CsrPair csr[] = {
      {SectionId::kOutOffsets, SectionId::kOutInfluenceEnd},
      {SectionId::kInOffsets, SectionId::kInInfluenceEnd},
  };
  for (const CsrPair& pair : csr) {
    const auto* offsets = reinterpret_cast<const uint32_t*>(
        base + Entry(by_id, pair.offsets).offset);
    const auto* split = reinterpret_cast<const uint32_t*>(
        base + Entry(by_id, pair.influence_end).offset);
    if (offsets[0] != 0 || offsets[n] != m) {
      return BadSnapshot(
          path,
          StringPrintf("section %s terminal offsets are broken",
                       std::string(SectionName(pair.offsets)).c_str()));
    }
    for (uint64_t i = 0; i < n; ++i) {
      if (offsets[i] > offsets[i + 1]) {
        return BadSnapshot(
            path, StringPrintf("section %s offsets are not monotone",
                               std::string(SectionName(pair.offsets))
                                   .c_str()));
      }
      if (split[i] < offsets[i] || split[i] > offsets[i + 1]) {
        return BadSnapshot(
            path,
            StringPrintf(
                "section %s influence split is outside its arc range",
                std::string(SectionName(pair.influence_end)).c_str()));
      }
    }
  }
  return Status::OK();
}

/// Rejects any element at or above its bound in the columns that index
/// nodes, arcs or components. Shapes and CRCs say nothing about values:
/// a CRC-consistent file naming node 2^24 in a 100-node graph would pass
/// every check above and crash the first traversal (or a serve daemon's
/// first cold request after a reload). One pass over O(nodes + arcs)
/// elements, no allocation.
Status ValidateValues(const std::string& path, const unsigned char* base,
                      const std::vector<SectionEntry>& by_id,
                      const SnapshotMeta& meta) {
  const uint64_t n = meta.num_nodes;
  const uint64_t m = meta.num_arcs;
  if (meta.wcc_num_components > n) {
    return BadSnapshot(path, "more WCC components than nodes");
  }
  struct Bound {
    SectionId id;
    uint64_t limit;
  };
  const Bound bounds[] = {
      {SectionId::kOutTargets, n},
      {SectionId::kInSources, n},
      {SectionId::kArcSrc, n},
      {SectionId::kArcDst, n},
      {SectionId::kPersonNode, n},
      {SectionId::kCompanyNode, n},
      {SectionId::kOutArcIds, m},
      {SectionId::kInArcIds, m},
      {SectionId::kWccComponentOf, meta.wcc_num_components},
  };
  const auto out_of_range = [&](SectionId id) {
    return BadSnapshot(
        path, StringPrintf("section %s holds an out-of-range value",
                           std::string(SectionName(id)).c_str()));
  };
  for (const Bound& bound : bounds) {
    const SectionEntry& entry = Entry(by_id, bound.id);
    if (entry.elem_size == 0 || entry.count == 0) continue;
    if (bound.limit == 0) return out_of_range(bound.id);
    // Branch-free so the compiler vectorizes it: every open pays this
    // pass. ValidateShapes capped the limits at 2^32 - 1, so `top`
    // cannot truncate.
    const auto* values =
        reinterpret_cast<const uint32_t*>(base + entry.offset);
    const uint32_t top = static_cast<uint32_t>(bound.limit - 1);
    uint32_t above = 0;
    for (uint64_t i = 0; i < entry.count; ++i) above |= values[i] > top;
    if (above != 0) return out_of_range(bound.id);
  }
  const SectionEntry& trades = Entry(by_id, SectionId::kIntraSyndicateTrades);
  const auto* trade =
      reinterpret_cast<const IntraSyndicateTrade*>(base + trades.offset);
  for (uint64_t i = 0; i < trades.count; ++i) {
    if (trade[i].syndicate_node >= n) {
      return out_of_range(SectionId::kIntraSyndicateTrades);
    }
  }
  return Status::OK();
}

Status VerifySectionChecksums(const std::string& path,
                              const unsigned char* base,
                              const std::vector<SectionEntry>& by_id) {
  TPIIN_SPAN("snapshot_verify_crc");
  for (const SectionEntry& entry : by_id) {
    if (entry.elem_size == 0) continue;
    if (Crc32c(base + entry.offset, entry.size) != entry.crc) {
      return BadSnapshot(
          path,
          StringPrintf("section %s checksum mismatch",
                       std::string(
                           SectionName(static_cast<SectionId>(entry.id)))
                           .c_str()));
    }
  }
  return Status::OK();
}

template <typename T>
std::span<const T> SectionSpan(const unsigned char* base,
                               const std::vector<SectionEntry>& by_id,
                               SectionId id) {
  const SectionEntry& entry = Entry(by_id, id);
  return {reinterpret_cast<const T*>(base + entry.offset),
          static_cast<size_t>(entry.count)};
}

}  // namespace

void SnapshotCodec::Bind(const unsigned char* base,
                         const std::vector<SectionEntry>& by_id,
                         const SnapshotMeta& meta, uint32_t flags,
                         Tpiin* out) {
  FrozenGraph::Parts parts;
  parts.out_offsets = SectionSpan<ArcId>(base, by_id, SectionId::kOutOffsets);
  parts.out_influence_end =
      SectionSpan<ArcId>(base, by_id, SectionId::kOutInfluenceEnd);
  parts.out_targets =
      SectionSpan<NodeId>(base, by_id, SectionId::kOutTargets);
  parts.out_arc_ids =
      SectionSpan<ArcId>(base, by_id, SectionId::kOutArcIds);
  parts.in_offsets = SectionSpan<ArcId>(base, by_id, SectionId::kInOffsets);
  parts.in_influence_end =
      SectionSpan<ArcId>(base, by_id, SectionId::kInInfluenceEnd);
  parts.in_sources =
      SectionSpan<NodeId>(base, by_id, SectionId::kInSources);
  parts.in_arc_ids = SectionSpan<ArcId>(base, by_id, SectionId::kInArcIds);
  out->frozen_ = FrozenGraph::FromParts(
      static_cast<NodeId>(meta.num_nodes),
      static_cast<ArcId>(meta.num_arcs),
      static_cast<ArcId>(meta.num_influence_arcs), meta.influence_color,
      parts);
  out->num_influence_arcs_ = static_cast<ArcId>(meta.num_influence_arcs);

  auto bind = [&](auto& col, SectionId id) {
    using T = std::remove_cvref_t<decltype(col[0])>;
    const SectionEntry& entry = Entry(by_id, id);
    col.BindView(reinterpret_cast<const T*>(base + entry.offset),
                 static_cast<size_t>(entry.count));
  };
  bind(out->node_color_, SectionId::kNodeColor);
  bind(out->label_offsets_, SectionId::kLabelOffsets);
  bind(out->label_bytes_, SectionId::kLabelBytes);
  bind(out->person_member_offsets_, SectionId::kPersonMemberOffsets);
  bind(out->person_members_, SectionId::kPersonMembers);
  bind(out->company_member_offsets_, SectionId::kCompanyMemberOffsets);
  bind(out->company_members_, SectionId::kCompanyMembers);
  bind(out->internal_investment_offsets_,
       SectionId::kInternalInvestmentOffsets);
  bind(out->internal_investments_, SectionId::kInternalInvestments);
  bind(out->arc_weight_, SectionId::kArcWeight);
  bind(out->arc_src_, SectionId::kArcSrc);
  bind(out->arc_dst_, SectionId::kArcDst);
  bind(out->person_node_, SectionId::kPersonNode);
  bind(out->company_node_, SectionId::kCompanyNode);
  bind(out->intra_syndicate_trades_, SectionId::kIntraSyndicateTrades);
  if ((flags & kSnapshotFlagHasWccIndex) != 0) {
    bind(out->wcc_component_of_, SectionId::kWccComponentOf);
    out->wcc_num_components_ =
        static_cast<NodeId>(meta.wcc_num_components);
  }
}

SnapshotView::~SnapshotView() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

Result<std::unique_ptr<SnapshotView>> SnapshotView::Open(
    const std::string& path, const SnapshotOpenOptions& options) {
  TPIIN_SPAN("snapshot_open");
  TPIIN_FAILPOINT("snapshot.open");
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  if (static_cast<uint64_t>(st.st_size) < sizeof(SnapshotHeader)) {
    ::close(fd);
    return BadSnapshot(path, "file is smaller than a snapshot header");
  }
  void* map = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return Status::IOError("cannot mmap " + path);

  // The view owns the mapping from here on; any validation failure
  // unmaps via the destructor.
  std::unique_ptr<SnapshotView> view(new SnapshotView());
  view->map_ = map;
  view->map_size_ = static_cast<size_t>(st.st_size);
  const auto* base = static_cast<const unsigned char*>(map);

  SnapshotHeader header;
  std::vector<SectionEntry> by_id;
  TPIIN_RETURN_IF_ERROR(ValidateHeaderAndDirectory(
      path, base, view->map_size_, &header, &by_id));
  TPIIN_FAILPOINT("snapshot.open.validate");

  SnapshotMeta meta;
  std::memcpy(&meta, base + Entry(by_id, SectionId::kMeta).offset,
              sizeof(meta));
  if (options.verify_checksums) {
    TPIIN_RETURN_IF_ERROR(VerifySectionChecksums(path, base, by_id));
  }
  TPIIN_RETURN_IF_ERROR(ValidateShapes(path, base, by_id, meta));
  TPIIN_RETURN_IF_ERROR(ValidateValues(path, base, by_id, meta));

  SnapshotCodec::Bind(base, by_id, meta, header.flags, &view->net_);
  view->header_crc_ = header.header_crc;
  TPIIN_COUNTER_ADD("snapshot.bytes_mapped", view->map_size_);
  return view;
}

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path,
                                      bool verify_checksums) {
  TPIIN_FAILPOINT("snapshot.info");
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::IOError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const uint64_t actual_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  if (actual_size < sizeof(SnapshotHeader)) {
    return BadSnapshot(path, "file is smaller than a snapshot header");
  }

  // Header + directory are tiny; read them through the same validator
  // the mmap path uses. Graph sections stay untouched unless checksums
  // are being verified, and even then they stream through a fixed
  // buffer — nothing is mapped or held.
  SnapshotHeader probe;
  in.read(reinterpret_cast<char*>(&probe), sizeof(probe));
  if (!in.good()) return Status::IOError("cannot read " + path);
  const uint64_t prefix_size =
      std::min(actual_size,
               sizeof(SnapshotHeader) +
                   static_cast<uint64_t>(probe.section_count) *
                       sizeof(SectionEntry));
  std::vector<unsigned char> prefix(prefix_size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(prefix.data()), prefix.size());
  if (!in.good()) return Status::IOError("cannot read " + path);

  SnapshotHeader header;
  std::vector<SectionEntry> by_id;
  TPIIN_RETURN_IF_ERROR(ValidateHeaderAndDirectory(
      path, prefix.data(), actual_size, &header, &by_id));

  SnapshotInfo info;
  info.version = header.version;
  info.flags = header.flags;
  info.file_size = header.file_size;

  const SectionEntry& meta_entry = Entry(by_id, SectionId::kMeta);
  in.seekg(static_cast<std::streamoff>(meta_entry.offset));
  in.read(reinterpret_cast<char*>(&info.meta), sizeof(info.meta));
  if (!in.good()) return Status::IOError("cannot read " + path);

  std::vector<char> buffer;
  for (const SectionEntry& entry : by_id) {
    if (entry.elem_size == 0) continue;
    SnapshotSectionInfo section;
    section.id = entry.id;
    section.name =
        std::string(SectionName(static_cast<SectionId>(entry.id)));
    section.offset = entry.offset;
    section.size = entry.size;
    section.count = entry.count;
    section.elem_size = entry.elem_size;
    section.crc = entry.crc;
    if (verify_checksums) {
      buffer.resize(256 * 1024);
      in.seekg(static_cast<std::streamoff>(entry.offset));
      uint32_t crc = 0;
      uint64_t remaining = entry.size;
      while (remaining > 0) {
        const uint64_t chunk =
            std::min<uint64_t>(remaining, buffer.size());
        in.read(buffer.data(), static_cast<std::streamsize>(chunk));
        if (!in.good()) return Status::IOError("cannot read " + path);
        crc = Crc32cExtend(crc, buffer.data(), chunk);
        remaining -= chunk;
      }
      section.crc_checked = true;
      section.crc_ok = crc == entry.crc;
    }
    info.sections.push_back(std::move(section));
  }
  return info;
}

std::string FormatSnapshotInfo(const SnapshotInfo& info) {
  std::string out;
  out += StringPrintf("tpiin snapshot v%u  (%llu bytes)\n", info.version,
                      static_cast<unsigned long long>(info.file_size));
  out += StringPrintf(
      "nodes %llu  arcs %llu (%llu influence, %llu trading)\n",
      static_cast<unsigned long long>(info.meta.num_nodes),
      static_cast<unsigned long long>(info.meta.num_arcs),
      static_cast<unsigned long long>(info.meta.num_influence_arcs),
      static_cast<unsigned long long>(info.meta.num_arcs -
                                      info.meta.num_influence_arcs));
  out += StringPrintf(
      "persons %llu  companies %llu  intra-syndicate trades %llu\n",
      static_cast<unsigned long long>(info.meta.num_persons),
      static_cast<unsigned long long>(info.meta.num_companies),
      static_cast<unsigned long long>(
          info.meta.num_intra_syndicate_trades));
  if ((info.flags & kSnapshotFlagHasWccIndex) != 0) {
    out += StringPrintf(
        "segmentation index: %llu antecedent components\n",
        static_cast<unsigned long long>(info.meta.wcc_num_components));
  } else {
    out += "segmentation index: absent\n";
  }
  out += StringPrintf("%-28s %10s %12s %12s %10s  %s\n", "section",
                      "elems", "bytes", "offset", "crc32c", "check");
  for (const SnapshotSectionInfo& section : info.sections) {
    out += StringPrintf(
        "%-28s %10llu %12llu %12llu   %08x  %s\n", section.name.c_str(),
        static_cast<unsigned long long>(section.count),
        static_cast<unsigned long long>(section.size),
        static_cast<unsigned long long>(section.offset), section.crc,
        !section.crc_checked ? "-"
        : section.crc_ok     ? "ok"
                             : "MISMATCH");
  }
  return out;
}

}  // namespace tpiin
