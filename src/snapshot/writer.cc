#include <cstring>
#include <vector>

#include "common/atomic_file.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "graph/connected.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"

namespace tpiin {

namespace {

struct Payload {
  SectionId id;
  const void* data;
  uint64_t count;
  uint32_t elem_size;
};

template <typename T>
Payload MakePayload(SectionId id, const T* data, uint64_t count) {
  static_assert(std::is_trivially_copyable_v<T>,
                "snapshot sections hold fixed-width PODs only");
  return Payload{id, data, count, static_cast<uint32_t>(sizeof(T))};
}

}  // namespace

Status SnapshotCodec::Write(const Tpiin& net, const std::string& path,
                            const SnapshotWriteOptions& options) {
  TPIIN_SPAN("snapshot_write");
  TPIIN_FAILPOINT("snapshot.write");
  if (net.NumNodes() == 0) {
    return Status::InvalidArgument(
        "refusing to write a snapshot of an empty TPIIN");
  }

  const FrozenGraph::Parts parts = net.frozen_.parts();
  const uint64_t n = net.NumNodes();
  const uint64_t m = net.NumArcs();

  // Segmentation index: the same WCC run SegmentTpiin would do at every
  // detection, done once here. Numbering is a pure function of the arc
  // set, so loading it later reproduces the CSV path bit for bit.
  std::vector<NodeId> wcc_storage;
  const NodeId* wcc_component_of = nullptr;
  uint64_t wcc_num_components = 0;
  uint32_t flags = 0;
  if (options.include_wcc_index) {
    if (net.has_wcc_index()) {
      wcc_component_of = net.wcc_component_of_.data();
      wcc_num_components = net.wcc_num_components_;
    } else {
      WccResult wcc = WeaklyConnectedComponents(net.frozen_,
                                                FrozenArcClass::kInfluence);
      wcc_storage = std::move(wcc.component_of);
      wcc_component_of = wcc_storage.data();
      wcc_num_components = wcc.num_components;
    }
    flags |= kSnapshotFlagHasWccIndex;
  }

  SnapshotMeta meta{};
  meta.num_nodes = n;
  meta.num_arcs = m;
  meta.num_influence_arcs = net.num_influence_arcs_;
  meta.influence_color = net.frozen_.influence_color();
  meta.num_persons = net.person_node_.size();
  meta.num_companies = net.company_node_.size();
  meta.num_intra_syndicate_trades = net.intra_syndicate_trades_.size();
  meta.wcc_num_components = wcc_num_components;

  std::vector<Payload> payloads;
  payloads.reserve(kSnapshotMaxSectionId);
  payloads.push_back(MakePayload(SectionId::kMeta, &meta, 1));
  payloads.push_back(MakePayload(SectionId::kOutOffsets,
                                 parts.out_offsets.data(), n + 1));
  payloads.push_back(MakePayload(SectionId::kOutInfluenceEnd,
                                 parts.out_influence_end.data(), n));
  payloads.push_back(
      MakePayload(SectionId::kOutTargets, parts.out_targets.data(), m));
  payloads.push_back(
      MakePayload(SectionId::kOutArcIds, parts.out_arc_ids.data(), m));
  payloads.push_back(
      MakePayload(SectionId::kInOffsets, parts.in_offsets.data(), n + 1));
  payloads.push_back(MakePayload(SectionId::kInInfluenceEnd,
                                 parts.in_influence_end.data(), n));
  payloads.push_back(
      MakePayload(SectionId::kInSources, parts.in_sources.data(), m));
  payloads.push_back(
      MakePayload(SectionId::kInArcIds, parts.in_arc_ids.data(), m));
  payloads.push_back(
      MakePayload(SectionId::kNodeColor, net.node_color_.data(), n));
  payloads.push_back(MakePayload(SectionId::kLabelOffsets,
                                 net.label_offsets_.data(), n + 1));
  payloads.push_back(MakePayload(SectionId::kLabelBytes,
                                 net.label_bytes_.data(),
                                 net.label_bytes_.size()));
  payloads.push_back(MakePayload(SectionId::kPersonMemberOffsets,
                                 net.person_member_offsets_.data(), n + 1));
  payloads.push_back(MakePayload(SectionId::kPersonMembers,
                                 net.person_members_.data(),
                                 net.person_members_.size()));
  payloads.push_back(MakePayload(SectionId::kCompanyMemberOffsets,
                                 net.company_member_offsets_.data(), n + 1));
  payloads.push_back(MakePayload(SectionId::kCompanyMembers,
                                 net.company_members_.data(),
                                 net.company_members_.size()));
  payloads.push_back(MakePayload(SectionId::kInternalInvestmentOffsets,
                                 net.internal_investment_offsets_.data(),
                                 n + 1));
  payloads.push_back(MakePayload(SectionId::kInternalInvestments,
                                 net.internal_investments_.data(),
                                 net.internal_investments_.size()));
  payloads.push_back(
      MakePayload(SectionId::kArcWeight, net.arc_weight_.data(), m));
  payloads.push_back(
      MakePayload(SectionId::kArcSrc, net.arc_src_.data(), m));
  payloads.push_back(
      MakePayload(SectionId::kArcDst, net.arc_dst_.data(), m));
  payloads.push_back(MakePayload(SectionId::kPersonNode,
                                 net.person_node_.data(),
                                 net.person_node_.size()));
  payloads.push_back(MakePayload(SectionId::kCompanyNode,
                                 net.company_node_.data(),
                                 net.company_node_.size()));
  payloads.push_back(MakePayload(SectionId::kIntraSyndicateTrades,
                                 net.intra_syndicate_trades_.data(),
                                 net.intra_syndicate_trades_.size()));
  if (options.include_wcc_index) {
    payloads.push_back(
        MakePayload(SectionId::kWccComponentOf, wcc_component_of, n));
  }

  // Lay out the file and checksum every payload before the first byte is
  // written, so the header can state the final size and CRCs up front.
  std::vector<SectionEntry> entries(payloads.size());
  uint64_t cursor = AlignSnapshotOffset(
      sizeof(SnapshotHeader) + payloads.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < payloads.size(); ++i) {
    const Payload& p = payloads[i];
    SectionEntry& entry = entries[i];
    entry.id = static_cast<uint32_t>(p.id);
    entry.elem_size = p.elem_size;
    entry.offset = cursor;
    entry.count = p.count;
    entry.size = p.count * p.elem_size;
    entry.crc = Crc32c(p.data, entry.size);
    entry.reserved = 0;
    cursor = AlignSnapshotOffset(cursor + entry.size);
  }

  SnapshotHeader header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotVersion;
  header.endianness = kSnapshotLittleEndian;
  header.file_size = cursor;
  header.flags = flags;
  header.section_count = static_cast<uint32_t>(entries.size());
  header.directory_crc =
      Crc32c(entries.data(), entries.size() * sizeof(SectionEntry));
  header.header_crc = 0;
  header.header_crc = Crc32c(&header, sizeof(header));

  AtomicFile file(path, std::ios::binary);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  std::ostream& out = file.stream();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(entries.data()),
            entries.size() * sizeof(SectionEntry));
  static constexpr char kZeros[kSnapshotAlignment] = {};
  uint64_t written =
      sizeof(header) + entries.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < payloads.size(); ++i) {
    TPIIN_FAILPOINT("snapshot.write.section");
    out.write(kZeros, entries[i].offset - written);
    out.write(reinterpret_cast<const char*>(payloads[i].data),
              entries[i].size);
    written = entries[i].offset + entries[i].size;
    if (!out.good()) {
      return Status::IOError("failed writing snapshot section " +
                             std::string(SectionName(payloads[i].id)));
    }
  }
  out.write(kZeros, cursor - written);

  TPIIN_FAILPOINT("snapshot.write.commit");
  TPIIN_COUNTER_ADD("snapshot.bytes_written", cursor);
  return file.Commit();
}

Status WriteSnapshot(const Tpiin& net, const std::string& path,
                     const SnapshotWriteOptions& options) {
  return SnapshotCodec::Write(net, path, options);
}

}  // namespace tpiin
