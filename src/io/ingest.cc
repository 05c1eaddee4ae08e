#include "io/ingest.h"

#include "common/atomic_file.h"
#include "common/string_util.h"

namespace tpiin {

namespace {

constexpr size_t kMaxSamples = 5;

}  // namespace

const char* IngestModeName(IngestMode mode) {
  switch (mode) {
    case IngestMode::kStrict: return "strict";
    case IngestMode::kSkip: return "skip";
    case IngestMode::kQuarantine: return "quarantine";
  }
  return "unknown";
}

std::string LoadReport::ToString() const {
  std::string out = StringPrintf("%zu rows: %zu loaded, %zu rejected",
                                 rows_seen, rows_loaded, rows_rejected);
  if (!errors_by_class.empty()) {
    out += " (";
    bool first = true;
    for (const auto& [cls, count] : errors_by_class) {
      if (!first) out += ", ";
      first = false;
      out += StringPrintf("%s=%zu", cls.c_str(), count);
    }
    out += ")";
  }
  if (rows_quarantined > 0) {
    out += StringPrintf(", %zu quarantined", rows_quarantined);
  }
  return out;
}

IngestSink::IngestSink(const IngestOptions& options, LoadReport* report)
    : options_(options), report_(report) {}

IngestSink::~IngestSink() = default;

Status IngestSink::Reject(const std::string& file, size_t line_number,
                          std::string_view raw, const char* error_class,
                          const Status& error) {
  ++report_->rows_seen;
  ++report_->rows_rejected;
  ++report_->errors_by_class[error_class];
  const std::string where =
      StringPrintf("%s:%zu", file.c_str(), line_number);
  if (report_->samples.size() < kMaxSamples) {
    report_->samples.push_back(where + ": " + error_class + ": " +
                               error.message());
  }
  if (options_.mode == IngestMode::kStrict) {
    return Status(error.code(), where + ": " + error.message());
  }
  if (options_.mode == IngestMode::kQuarantine) {
    if (quarantine_ == nullptr) {
      if (options_.quarantine_path.empty()) {
        return Status::InvalidArgument(
            "quarantine mode requires a quarantine path");
      }
      quarantine_ =
          std::make_unique<AtomicFile>(options_.quarantine_path);
      if (!quarantine_->ok()) {
        return Status::IOError("cannot open quarantine file " +
                               options_.quarantine_path);
      }
    }
    quarantine_->stream() << "# " << where << ": " << error_class << ": "
                          << error.message() << "\n"
                          << raw << "\n";
    ++report_->rows_quarantined;
  }
  if (options_.max_bad_rows != 0 &&
      report_->rows_rejected >= options_.max_bad_rows) {
    return Status::IOError(StringPrintf(
        "%s: aborting after %zu rejected rows (max_bad_rows)",
        file.c_str(), report_->rows_rejected));
  }
  return Status::OK();
}

void IngestSink::CountLoaded() {
  ++report_->rows_seen;
  ++report_->rows_loaded;
}

Status IngestSink::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (quarantine_ != nullptr) return quarantine_->Commit();
  return Status::OK();
}

Status ScanCsvTable(const std::string& path,
                    const std::vector<std::string>& header, IngestSink& sink,
                    const RowHandler& handler) {
  CsvFileReader reader(path);
  TPIIN_RETURN_IF_ERROR(reader.status());
  TPIIN_RETURN_IF_ERROR(reader.ExpectHeader(header));
  const size_t max_field_bytes = sink.max_field_bytes();
  CsvRow row;
  while (reader.Next(&row)) {
    const char* error_class = ingest_error::kParse;
    Status row_status = [&]() -> Status {
      if (!row.parse.ok()) return row.parse;
      if (row.fields.size() != header.size()) {
        error_class = ingest_error::kColumns;
        return Status::Corruption(
            StringPrintf("expected %zu columns, found %zu", header.size(),
                         row.fields.size()));
      }
      if (max_field_bytes != 0) {
        for (std::string_view field : row.fields) {
          if (field.size() > max_field_bytes) {
            error_class = ingest_error::kOversizedField;
            return Status::Corruption(
                StringPrintf("field of %zu bytes exceeds limit %zu",
                             field.size(), max_field_bytes));
          }
        }
      }
      return handler(row, &error_class);
    }();
    if (!row_status.ok()) {
      TPIIN_RETURN_IF_ERROR(sink.Reject(path, row.line_number, row.raw,
                                        error_class, row_status));
      continue;
    }
    sink.CountLoaded();
  }
  return reader.status();
}

Result<int64_t> EntityIdIndex::ParseNewId(std::string_view field,
                                          const char* what,
                                          const char** error_class) const {
  Result<int64_t> id = ParseInt64(field);
  if (!id.ok() || *id < 0) {
    *error_class = ingest_error::kBadNumber;
    return Status::Corruption("bad id: " + std::string(field));
  }
  if (Lookup(*id) >= 0) {
    *error_class = ingest_error::kDuplicateId;
    return Status::Corruption(StringPrintf("duplicate %s id %.*s", what,
                                           static_cast<int>(field.size()),
                                           field.data()));
  }
  return id;
}

Status EntityIdIndex::Add(int64_t file_id) {
  if (dense_) {
    if (file_id == static_cast<int64_t>(next_)) {
      ++next_;
      return Status::OK();
    }
    // First non-sequential id: fall back to the hash map.
    map_.reserve(next_ + 1);
    for (uint64_t i = 0; i < next_; ++i) {
      map_.emplace(static_cast<int64_t>(i), static_cast<uint32_t>(i));
    }
    dense_ = false;
  }
  auto [it, inserted] =
      map_.emplace(file_id, static_cast<uint32_t>(next_));
  if (!inserted) {
    return Status::Corruption(
        StringPrintf("duplicate id %lld", static_cast<long long>(file_id)));
  }
  ++next_;
  return Status::OK();
}

Result<uint32_t> EntityIdIndex::Resolve(std::string_view field,
                                        const char* what,
                                        const char** error_class) const {
  Result<int64_t> id = ParseInt64(field);
  if (!id.ok()) {
    *error_class = ingest_error::kBadNumber;
    return Status::Corruption(StringPrintf("bad %s id: %.*s", what,
                                           static_cast<int>(field.size()),
                                           field.data()));
  }
  const int64_t dense = Lookup(*id);
  if (dense < 0) {
    *error_class = ingest_error::kDanglingRef;
    return Status::Corruption(StringPrintf(
        "%s id %.*s does not refer to a loaded row", what,
        static_cast<int>(field.size()), field.data()));
  }
  return static_cast<uint32_t>(dense);
}

}  // namespace tpiin
