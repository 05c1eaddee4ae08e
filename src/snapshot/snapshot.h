#ifndef TPIIN_SNAPSHOT_SNAPSHOT_H_
#define TPIIN_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "fusion/tpiin.h"
#include "snapshot/format.h"

namespace tpiin {

struct SnapshotWriteOptions {
  /// Precompute the antecedent-layer WCC decomposition and store it as
  /// the segmentation index (SegmentTpiin then skips its union-find pass
  /// when detecting from the snapshot). Costs one WCC run at write time.
  bool include_wcc_index = true;
};

/// Serializes a fused TPIIN into a single-file binary snapshot at
/// `path`, written crash-safely (temp file + rename; an injected fault
/// or kill leaves the previous snapshot or nothing). Empty networks are
/// refused — an empty snapshot is always a pipeline bug upstream.
Status WriteSnapshot(const Tpiin& net, const std::string& path,
                     const SnapshotWriteOptions& options = {});

struct SnapshotOpenOptions {
  /// Verify each section's CRC-32C before trusting it. One sequential
  /// pass over the mapping; no allocation. Disable only for repeated
  /// opens of a snapshot already verified this boot.
  bool verify_checksums = true;
};

/// A TPIIN opened from a snapshot file: the file is mmap-ed read-only
/// and every column of `net()` points directly into the mapping. Open
/// does header/directory/shape/CRC validation and pointer fix-up only —
/// no per-node or per-arc work, no allocation proportional to the graph.
///
/// The view owns the mapping; `net()` and everything derived from it
/// (spans, labels, AdjSpans) die with the view. The network has the same
/// shape as a fused one — arc table plus CSR — so every algorithm runs
/// on it unchanged.
class SnapshotView {
 public:
  static Result<std::unique_ptr<SnapshotView>> Open(
      const std::string& path, const SnapshotOpenOptions& options = {});

  ~SnapshotView();

  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;

  const Tpiin& net() const { return net_; }
  uint64_t file_size() const { return map_size_; }

  /// The file's header CRC-32C. The header covers the section directory
  /// CRC, which in turn covers every payload CRC, so this one word
  /// fingerprints the snapshot's entire content — the serve layer keys
  /// its result cache on it (a rebuilt snapshot is a different key,
  /// never a stale hit).
  uint32_t header_crc() const { return header_crc_; }

 private:
  SnapshotView() = default;

  void* map_ = nullptr;
  size_t map_size_ = 0;
  uint32_t header_crc_ = 0;
  Tpiin net_;
};

/// Header/directory summary of a snapshot file, read with plain file IO
/// — the graph sections are never mapped, so `tpiin snapshot info` works
/// on files far larger than memory and on files whose payload is
/// corrupt.
struct SnapshotSectionInfo {
  uint32_t id = 0;
  std::string name;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t count = 0;
  uint32_t elem_size = 0;
  uint32_t crc = 0;
  /// Payload CRC re-computed by streaming the section; only meaningful
  /// when ReadSnapshotInfo ran with verify_checksums.
  bool crc_checked = false;
  bool crc_ok = false;
};

struct SnapshotInfo {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t file_size = 0;
  SnapshotMeta meta{};
  std::vector<SnapshotSectionInfo> sections;
};

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path,
                                      bool verify_checksums = true);

/// Human-readable rendering of ReadSnapshotInfo (the `tpiin snapshot
/// info` output).
std::string FormatSnapshotInfo(const SnapshotInfo& info);

/// Internal serializer/binder. Friend of Tpiin: Write reads the private
/// columns; Bind points them into a validated mapping. Not part of the
/// public API — use WriteSnapshot / SnapshotView::Open.
class SnapshotCodec {
 public:
  static Status Write(const Tpiin& net, const std::string& path,
                      const SnapshotWriteOptions& options);
  /// `base` is the start of the validated mapping; `entries` is indexed
  /// by SectionId value. All shape checks have already passed.
  static void Bind(const unsigned char* base,
                   const std::vector<SectionEntry>& by_id,
                   const SnapshotMeta& meta, uint32_t flags, Tpiin* out);
};

}  // namespace tpiin

#endif  // TPIIN_SNAPSHOT_SNAPSHOT_H_
