#ifndef TPIIN_IO_DATASET_CSV_H_
#define TPIIN_IO_DATASET_CSV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/csv.h"
#include "common/result.h"
#include "io/ingest.h"
#include "model/dataset.h"

namespace tpiin {

/// The six CSV tables of an on-disk dataset, in load order: persons.csv,
/// companies.csv, interdependence.csv, influence.csv, investment.csv,
/// trades.csv. This mirrors how the real pipeline ingests per-source
/// extracts (CSRC / HRDPSC / PTAO dumps).
enum class DatasetTable {
  kPersons,
  kCompanies,
  kInterdependence,
  kInfluence,
  kInvestment,
  kTrades,
};
inline constexpr size_t kNumDatasetTables = 6;

/// File name of `table` inside a dataset directory, e.g. "trades.csv".
const char* DatasetTableFile(DatasetTable table);

/// Runs `table` of the dataset in `directory` through ScanCsvTable with
/// the table's header.
Status ScanDatasetTable(const std::string& directory, DatasetTable table,
                        IngestSink& sink, const RowHandler& handler);

/// The value columns of one dataset row, decoded: everything but its
/// entity ids and references. Each table sets only its own members:
/// persons `roles`, interdependence `interdependence`, influence
/// `influence` and `is_legal_person`, investment `share`.
struct DatasetRowValues {
  PersonRoles roles = 0;
  InterdependenceKind interdependence = InterdependenceKind::kKinship;
  InfluenceKind influence = InfluenceKind::kCeoAndDirectorOf;
  bool is_legal_person = false;
  double share = 0;
};

/// LoadDatasetCsv's value checks for one `table` row that has the
/// table's column count: names are valid UTF-8; roles masks, kinds and
/// the legal_person flag are in range; shares are numbers. Ids and
/// references are the caller's to check, first. A bad value sets
/// *error_class and returns the reason; otherwise `*values` holds the
/// decoded columns. The sharded build's router runs the same checks.
Status CheckDatasetRowValues(DatasetTable table, const CsvRow& row,
                             const char** error_class,
                             DatasetRowValues* values);

/// Streams a dataset into the six tables under `directory` (created by
/// the caller), one row per Add* call. The Add* methods are RawDataset's,
/// so a generator can emit into either; persons and companies are written
/// with ids in call order, as RawDataset assigns them. Each table starts
/// with its header and is published atomically by Close().
class DatasetCsvWriter {
 public:
  explicit DatasetCsvWriter(const std::string& directory);

  void AddPerson(std::string_view name, PersonRoles roles);
  void AddCompany(std::string_view name);
  void AddInterdependence(PersonId a, PersonId b, InterdependenceKind kind);
  void AddInfluence(PersonId person, CompanyId company, InfluenceKind kind,
                    bool is_legal_person);
  void AddInvestment(CompanyId investor, CompanyId investee, double share);
  void AddTrade(CompanyId seller, CompanyId buyer);

  /// Data rows written to `table` so far.
  uint64_t rows(DatasetTable table) const {
    return rows_[static_cast<size_t>(table)];
  }

  /// Publishes all six tables; returns the first write error.
  Status Close();

 private:
  void Write(DatasetTable table, const std::vector<std::string>& fields);

  std::unique_ptr<CsvWriter> tables_[kNumDatasetTables];
  uint64_t rows_[kNumDatasetTables] = {};
};

/// Persists a RawDataset as the six tables inside `directory` (created
/// by the caller).
Status SaveDatasetCsv(const std::string& directory,
                      const RawDataset& dataset);

/// Loads a dataset saved by SaveDatasetCsv. The result is validated.
/// Equivalent to the hardened overload below with default (strict)
/// IngestOptions.
Result<RawDataset> LoadDatasetCsv(const std::string& directory);

/// Hardened loader. Row-level damage (torn lines, bad numbers, stray
/// quotes, oversized fields, invalid UTF-8 in names, duplicate ids,
/// references to ids that never loaded) is classified per
/// ingest_error:: and handled per `options.mode`: strict fails the
/// load, skip drops the row, quarantine drops it into
/// options.quarantine_path. Entity ids are taken from the id column and
/// remapped densely, so in skip mode a dropped person/company row can
/// never silently re-wire later references — those become dangling_ref
/// rejections instead. File-level damage (missing file, bad header) is
/// always fatal. `report`, when non-null, receives the row accounting;
/// the returned dataset is Validate()d either way.
Result<RawDataset> LoadDatasetCsv(const std::string& directory,
                                  const IngestOptions& options,
                                  LoadReport* report);

}  // namespace tpiin

#endif  // TPIIN_IO_DATASET_CSV_H_
