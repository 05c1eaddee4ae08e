#include "io/dataset_csv.h"

#include "common/failpoint.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace tpiin {

namespace {

struct TableSchema {
  const char* file;
  std::vector<std::string> header;
};

const TableSchema kSchema[kNumDatasetTables] = {
    {"persons.csv", {"id", "name", "roles"}},
    {"companies.csv", {"id", "name"}},
    {"interdependence.csv", {"person_a", "person_b", "kind"}},
    {"influence.csv", {"person", "company", "kind", "legal_person"}},
    {"investment.csv", {"investor", "investee", "share"}},
    {"trades.csv", {"seller", "buyer"}},
};

const TableSchema& SchemaOf(DatasetTable table) {
  return kSchema[static_cast<size_t>(table)];
}

}  // namespace

const char* DatasetTableFile(DatasetTable table) {
  return SchemaOf(table).file;
}

Status ScanDatasetTable(const std::string& directory, DatasetTable table,
                        IngestSink& sink, const RowHandler& handler) {
  const TableSchema& schema = SchemaOf(table);
  return ScanCsvTable(directory + "/" + schema.file, schema.header, sink,
                      handler);
}

DatasetCsvWriter::DatasetCsvWriter(const std::string& directory) {
  for (size_t t = 0; t < kNumDatasetTables; ++t) {
    tables_[t] =
        std::make_unique<CsvWriter>(directory + "/" + kSchema[t].file);
    tables_[t]->WriteRow(kSchema[t].header);
  }
}

void DatasetCsvWriter::Write(DatasetTable table,
                             const std::vector<std::string>& fields) {
  const size_t t = static_cast<size_t>(table);
  tables_[t]->WriteRow(fields);
  ++rows_[t];
}

void DatasetCsvWriter::AddPerson(std::string_view name, PersonRoles roles) {
  const auto id = static_cast<PersonId>(rows(DatasetTable::kPersons));
  Write(DatasetTable::kPersons, {StringPrintf("%u", id), std::string(name),
                                 StringPrintf("%u", roles)});
}

void DatasetCsvWriter::AddCompany(std::string_view name) {
  const auto id = static_cast<CompanyId>(rows(DatasetTable::kCompanies));
  Write(DatasetTable::kCompanies, {StringPrintf("%u", id), std::string(name)});
}

void DatasetCsvWriter::AddInterdependence(PersonId a, PersonId b,
                                          InterdependenceKind kind) {
  Write(DatasetTable::kInterdependence,
        {StringPrintf("%u", a), StringPrintf("%u", b),
         std::string(InterdependenceKindName(kind))});
}

void DatasetCsvWriter::AddInfluence(PersonId person, CompanyId company,
                                    InfluenceKind kind,
                                    bool is_legal_person) {
  Write(DatasetTable::kInfluence,
        {StringPrintf("%u", person), StringPrintf("%u", company),
         StringPrintf("%u", static_cast<unsigned>(kind)),
         is_legal_person ? "1" : "0"});
}

void DatasetCsvWriter::AddInvestment(CompanyId investor, CompanyId investee,
                                     double share) {
  Write(DatasetTable::kInvestment,
        {StringPrintf("%u", investor), StringPrintf("%u", investee),
         StringPrintf("%.6f", share)});
}

void DatasetCsvWriter::AddTrade(CompanyId seller, CompanyId buyer) {
  Write(DatasetTable::kTrades,
        {StringPrintf("%u", seller), StringPrintf("%u", buyer)});
}

Status DatasetCsvWriter::Close() {
  Status first;
  for (std::unique_ptr<CsvWriter>& table : tables_) {
    Status closed = table->Close();
    if (first.ok()) first = closed;
  }
  return first;
}

Status SaveDatasetCsv(const std::string& directory,
                      const RawDataset& dataset) {
  DatasetCsvWriter writer(directory);
  for (const Person& p : dataset.persons()) writer.AddPerson(p.name, p.roles);
  for (const Company& c : dataset.companies()) writer.AddCompany(c.name);
  for (const InterdependenceRecord& r : dataset.interdependence()) {
    writer.AddInterdependence(r.person_a, r.person_b, r.kind);
  }
  for (const InfluenceRecord& r : dataset.influence()) {
    writer.AddInfluence(r.person, r.company, r.kind, r.is_legal_person);
  }
  for (const InvestmentRecord& r : dataset.investments()) {
    writer.AddInvestment(r.investor, r.investee, r.share);
  }
  for (const TradeRecord& r : dataset.trades()) {
    writer.AddTrade(r.seller, r.buyer);
  }
  return writer.Close();
}

Result<RawDataset> LoadDatasetCsv(const std::string& directory) {
  return LoadDatasetCsv(directory, IngestOptions{}, nullptr);
}

Status CheckDatasetRowValues(DatasetTable table, const CsvRow& row,
                             const char** error_class,
                             DatasetRowValues* values) {
  const std::vector<std::string_view>& f = row.fields;
  auto reject = [&](const char* cls, std::string message) {
    *error_class = cls;
    return Status::Corruption(std::move(message));
  };
  switch (table) {
    case DatasetTable::kPersons: {
      if (!IsValidUtf8(f[1])) {
        return reject(ingest_error::kBadUtf8,
                      "person name is not valid UTF-8");
      }
      Result<int64_t> roles = ParseInt64(f[2]);
      if (!roles.ok()) {
        return reject(ingest_error::kBadNumber,
                      "bad roles mask " + std::string(f[2]));
      }
      if (*roles < 0 || *roles > kAllRoleBits) {
        return reject(ingest_error::kBadEnum,
                      "bad roles mask " + std::string(f[2]));
      }
      values->roles = static_cast<PersonRoles>(*roles);
      return Status::OK();
    }
    case DatasetTable::kCompanies:
      if (!IsValidUtf8(f[1])) {
        return reject(ingest_error::kBadUtf8,
                      "company name is not valid UTF-8");
      }
      return Status::OK();
    case DatasetTable::kInterdependence:
      if (f[2] == "kinship") {
        values->interdependence = InterdependenceKind::kKinship;
      } else if (f[2] == "interlocking") {
        values->interdependence = InterdependenceKind::kInterlocking;
      } else {
        return reject(ingest_error::kBadEnum,
                      "bad interdependence kind " + std::string(f[2]));
      }
      return Status::OK();
    case DatasetTable::kInfluence: {
      Result<int64_t> kind = ParseInt64(f[2]);
      if (!kind.ok()) {
        return reject(ingest_error::kBadNumber,
                      "bad influence kind " + std::string(f[2]));
      }
      if (*kind < 0 || *kind > 3) {
        return reject(ingest_error::kBadEnum,
                      "bad influence kind " + std::string(f[2]));
      }
      if (f[3] != "0" && f[3] != "1") {
        return reject(ingest_error::kBadEnum,
                      "bad legal_person flag " + std::string(f[3]));
      }
      values->influence = static_cast<InfluenceKind>(*kind);
      values->is_legal_person = f[3] == "1";
      return Status::OK();
    }
    case DatasetTable::kInvestment: {
      Result<double> share = ParseDouble(f[2]);
      if (!share.ok()) {
        return reject(ingest_error::kBadNumber,
                      "bad share " + std::string(f[2]));
      }
      values->share = *share;
      return Status::OK();
    }
    case DatasetTable::kTrades:
      return Status::OK();
  }
  return Status::OK();
}

Result<RawDataset> LoadDatasetCsv(const std::string& directory,
                                  const IngestOptions& options,
                                  LoadReport* report) {
  TPIIN_SPAN("load_dataset_csv");
  TPIIN_FAILPOINT("io.dataset.load");
  LoadReport local_report;
  if (report == nullptr) report = &local_report;
  *report = LoadReport{};
  RawDataset dataset;
  IngestSink sink(options, report);
  EntityIdIndex person_ids;
  EntityIdIndex company_ids;
  DatasetRowValues v;

  // Every row checks its ids before its values. Entity rows register
  // the id only once the row is accepted, so a rejected row leaves a
  // hole.
  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      directory, DatasetTable::kPersons, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            int64_t id, person_ids.ParseNewId(row.fields[0], "person", cls));
        TPIIN_RETURN_IF_ERROR(
            CheckDatasetRowValues(DatasetTable::kPersons, row, cls, &v));
        TPIIN_RETURN_IF_ERROR(person_ids.Add(id));
        dataset.AddPerson(std::string(row.fields[1]), v.roles);
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      directory, DatasetTable::kCompanies, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            int64_t id,
            company_ids.ParseNewId(row.fields[0], "company", cls));
        TPIIN_RETURN_IF_ERROR(
            CheckDatasetRowValues(DatasetTable::kCompanies, row, cls, &v));
        TPIIN_RETURN_IF_ERROR(company_ids.Add(id));
        dataset.AddCompany(std::string(row.fields[1]));
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      directory, DatasetTable::kInterdependence, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t a, person_ids.Resolve(row.fields[0], "person", cls));
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t b, person_ids.Resolve(row.fields[1], "person", cls));
        TPIIN_RETURN_IF_ERROR(CheckDatasetRowValues(
            DatasetTable::kInterdependence, row, cls, &v));
        dataset.AddInterdependence(a, b, v.interdependence);
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      directory, DatasetTable::kInfluence, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t person, person_ids.Resolve(row.fields[0], "person", cls));
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t company,
            company_ids.Resolve(row.fields[1], "company", cls));
        TPIIN_RETURN_IF_ERROR(
            CheckDatasetRowValues(DatasetTable::kInfluence, row, cls, &v));
        dataset.AddInfluence(person, company, v.influence,
                             v.is_legal_person);
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      directory, DatasetTable::kInvestment, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t investor,
            company_ids.Resolve(row.fields[0], "company", cls));
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t investee,
            company_ids.Resolve(row.fields[1], "company", cls));
        TPIIN_RETURN_IF_ERROR(
            CheckDatasetRowValues(DatasetTable::kInvestment, row, cls, &v));
        dataset.AddInvestment(investor, investee, v.share);
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      directory, DatasetTable::kTrades, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t seller,
            company_ids.Resolve(row.fields[0], "company", cls));
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t buyer, company_ids.Resolve(row.fields[1], "company", cls));
        dataset.AddTrade(seller, buyer);
        return Status::OK();
      }));

  TPIIN_RETURN_IF_ERROR(sink.Finish());
  TPIIN_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

}  // namespace tpiin
