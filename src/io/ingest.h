#ifndef TPIIN_IO_INGEST_H_
#define TPIIN_IO_INGEST_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "common/status.h"

namespace tpiin {

class AtomicFile;

/// What a loader does with a malformed row.
enum class IngestMode {
  kStrict,      ///< First bad row fails the whole load (the default, and
                ///< the historical behavior).
  kSkip,        ///< Bad rows are counted and dropped; the load succeeds
                ///< with whatever parsed cleanly.
  kQuarantine,  ///< Like kSkip, but every rejected row is appended to a
                ///< quarantine file (annotated with file, line, and
                ///< error class) for offline repair and replay.
};

const char* IngestModeName(IngestMode mode);

/// Stable error-class tokens: LoadReport counter keys, quarantine
/// annotations, and the DESIGN.md error table all use these spellings.
namespace ingest_error {
inline constexpr const char* kIo = "io_error";
inline constexpr const char* kParse = "parse";
inline constexpr const char* kColumns = "columns";
inline constexpr const char* kBadNumber = "bad_number";
inline constexpr const char* kIdRange = "id_range";
inline constexpr const char* kBadEnum = "bad_enum";
inline constexpr const char* kDuplicateId = "duplicate_id";
inline constexpr const char* kDanglingRef = "dangling_ref";
inline constexpr const char* kBadUtf8 = "bad_utf8";
inline constexpr const char* kOversizedField = "oversized_field";
}  // namespace ingest_error

struct IngestOptions {
  IngestMode mode = IngestMode::kStrict;

  /// Destination for rejected rows; required when mode == kQuarantine.
  /// Written atomically (temp + rename) when the load finishes.
  std::string quarantine_path;

  /// Reject any field longer than this (error class oversized_field);
  /// 0 disables the guard. Protects label maps from a multi-megabyte
  /// line produced by a corrupt extract.
  size_t max_field_bytes = 64 * 1024;

  /// In kSkip/kQuarantine mode, give up (IOError) once this many rows
  /// were rejected — a file that is mostly garbage is more likely the
  /// wrong file than a damaged one. 0 = never give up.
  size_t max_bad_rows = 0;
};

/// Outcome accounting for one hardened load. rows_seen covers every
/// non-blank data row; rows_loaded + rows_rejected == rows_seen.
struct LoadReport {
  size_t rows_seen = 0;
  size_t rows_loaded = 0;
  size_t rows_rejected = 0;
  size_t rows_quarantined = 0;

  /// Rejections keyed by ingest_error class (deterministic iteration).
  std::map<std::string, size_t> errors_by_class;

  /// First few rejection messages ("file:line: class: detail"), for
  /// logs and CLI output.
  std::vector<std::string> samples;

  bool Clean() const { return rows_rejected == 0; }

  /// "1200 rows: 1190 loaded, 10 rejected (bad_number=7, columns=3)".
  std::string ToString() const;
};

/// Row-level rejection policy shared by the hardened loaders. One sink
/// spans one logical load (possibly several files); the quarantine file
/// is opened lazily on the first rejected row and committed by Finish().
/// ScanCsvTable drives it:
///   IngestSink sink(options, &report);
///   TPIIN_RETURN_IF_ERROR(ScanCsvTable(path, header, sink, handler));
///   TPIIN_RETURN_IF_ERROR(sink.Finish());
class IngestSink {
 public:
  IngestSink(const IngestOptions& options, LoadReport* report);
  ~IngestSink();

  IngestSink(const IngestSink&) = delete;
  IngestSink& operator=(const IngestSink&) = delete;

  /// Records one rejected row. In strict mode returns `error` (annotated
  /// with file:line) for the caller to propagate; in skip/quarantine
  /// mode returns OK — unless the max_bad_rows limit tripped — and the
  /// caller drops the row.
  Status Reject(const std::string& file, size_t line_number,
                std::string_view raw, const char* error_class,
                const Status& error);

  /// Records one successfully loaded row.
  void CountLoaded();

  /// Commits the quarantine file (no-op when nothing was quarantined).
  Status Finish();

  size_t max_field_bytes() const { return options_.max_field_bytes; }

 private:
  const IngestOptions& options_;
  LoadReport* report_;
  std::unique_ptr<AtomicFile> quarantine_;
  bool finished_ = false;
};

/// Per-row work of one loader. A handler that rejects `row` sets
/// *error_class (an ingest_error:: token) and returns the reason. The
/// row's views into the reader's buffer are valid only during the call.
using RowHandler =
    std::function<Status(const CsvRow& row, const char** error_class)>;

/// The row loop of every headed CSV table. A missing file, a wrong
/// header or a read error is fatal. A row that does not parse, has a
/// column count other than the header's, carries a field over
/// sink.max_field_bytes(), or is rejected by `handler` goes to `sink`,
/// which applies the strict, skip or quarantine policy.
Status ScanCsvTable(const std::string& path,
                    const std::vector<std::string>& header, IngestSink& sink,
                    const RowHandler& handler);

/// File-id -> dense-row-index map for one entity table. Ids come from the
/// id column (not row order), so a row that never registers leaves a hole
/// instead of silently shifting every later reference. Sized for
/// national-ledger inputs: when ids arrive as the dense sequence 0,1,2,...
/// (every generated dataset, and any re-export of one) it stores nothing
/// at all; the hash map materializes only on the first gap or
/// permutation.
class EntityIdIndex {
 public:
  /// Parses the id column of an entity row that is about to register:
  /// bad_number unless it is a non-negative integer, duplicate_id when a
  /// row already registered it. `what` names the entity ("person").
  Result<int64_t> ParseNewId(std::string_view field, const char* what,
                             const char** error_class) const;

  /// Registers `file_id` as the next dense row. Duplicate ids fail.
  Status Add(int64_t file_id);

  /// Dense index of the row a reference field names: bad_number when
  /// `field` is not an integer, dangling_ref when no row registered it.
  Result<uint32_t> Resolve(std::string_view field, const char* what,
                           const char** error_class) const;

  /// Dense index of `file_id`, or -1 when no such row was registered.
  int64_t Lookup(int64_t file_id) const {
    if (dense_) {
      return file_id >= 0 && static_cast<uint64_t>(file_id) < next_
                 ? file_id
                 : -1;
    }
    auto it = map_.find(file_id);
    return it == map_.end() ? -1 : static_cast<int64_t>(it->second);
  }

  uint64_t size() const { return next_; }

 private:
  bool dense_ = true;
  uint64_t next_ = 0;
  std::unordered_map<int64_t, uint32_t> map_;
};

}  // namespace tpiin

#endif  // TPIIN_IO_INGEST_H_
