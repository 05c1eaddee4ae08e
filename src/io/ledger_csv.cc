#include "io/ledger_csv.h"

#include <unordered_set>

#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/string_util.h"

namespace tpiin {

namespace {

const std::vector<std::string> kMarketHeader = {"category", "unit_price"};
const std::vector<std::string> kTransactionsHeader = {
    "id", "seller", "buyer", "category", "quantity", "unit_price",
    "mispriced"};

}  // namespace

Status SaveLedgerCsv(const std::string& directory, const Ledger& ledger) {
  {
    CsvWriter writer(directory + "/market.csv");
    writer.WriteRow(kMarketHeader);
    for (CategoryId c = 0; c < ledger.market.num_categories(); ++c) {
      writer.WriteRow({StringPrintf("%u", c),
                       StringPrintf("%.17g", ledger.market.PriceOf(c))});
    }
    TPIIN_RETURN_IF_ERROR(writer.Close());
  }
  std::unordered_set<size_t> mispriced(ledger.mispriced.begin(),
                                       ledger.mispriced.end());
  CsvWriter writer(directory + "/transactions.csv");
  writer.WriteRow(kTransactionsHeader);
  for (size_t i = 0; i < ledger.transactions.size(); ++i) {
    const Transaction& tx = ledger.transactions[i];
    writer.WriteRow({StringPrintf("%llu", static_cast<unsigned long long>(
                                              tx.id)),
                     StringPrintf("%u", tx.seller),
                     StringPrintf("%u", tx.buyer),
                     StringPrintf("%u", tx.category),
                     StringPrintf("%.17g", tx.quantity),
                     StringPrintf("%.17g", tx.unit_price),
                     mispriced.count(i) ? "1" : "0"});
  }
  return writer.Close();
}

Result<Ledger> LoadLedgerCsv(const std::string& directory) {
  return LoadLedgerCsv(directory, IngestOptions{}, nullptr);
}

Result<Ledger> LoadLedgerCsv(const std::string& directory,
                             const IngestOptions& options,
                             LoadReport* report) {
  LoadReport local_report;
  if (report == nullptr) report = &local_report;
  *report = LoadReport{};
  IngestSink sink(options, report);
  Ledger ledger;

  TPIIN_RETURN_IF_ERROR(ScanCsvTable(
      directory + "/market.csv", kMarketHeader, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        Result<int64_t> category = ParseInt64(row.fields[0]);
        Result<double> price = ParseDouble(row.fields[1]);
        if (!category.ok() || !price.ok()) {
          *cls = ingest_error::kBadNumber;
          return Status::Corruption("bad market row");
        }
        // Categories index the price vector, so they must stay dense; a
        // rejected market row therefore cascades (later categories are
        // rejected too, and transactions on them become dangling_ref)
        // rather than silently re-pricing anything.
        if (*category !=
            static_cast<int64_t>(ledger.market.unit_price.size())) {
          *cls = ingest_error::kIdRange;
          return Status::Corruption("categories must be dense");
        }
        ledger.market.unit_price.push_back(*price);
        return Status::OK();
      }));

  std::unordered_set<uint64_t> relations;
  TPIIN_RETURN_IF_ERROR(ScanCsvTable(
      directory + "/transactions.csv", kTransactionsHeader, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        const std::vector<std::string_view>& f = row.fields;
        Result<int64_t> id = ParseInt64(f[0]);
        Result<int64_t> seller = ParseInt64(f[1]);
        Result<int64_t> buyer = ParseInt64(f[2]);
        Result<int64_t> category = ParseInt64(f[3]);
        Result<double> quantity = ParseDouble(f[4]);
        Result<double> unit_price = ParseDouble(f[5]);
        if (!id.ok() || !seller.ok() || !buyer.ok() || !category.ok() ||
            !quantity.ok() || !unit_price.ok()) {
          *cls = ingest_error::kBadNumber;
          return Status::Corruption("bad transaction row");
        }
        if (*category < 0 ||
            *category >=
                static_cast<int64_t>(ledger.market.num_categories())) {
          *cls = ingest_error::kDanglingRef;
          return Status::Corruption("bad category " + std::string(f[3]));
        }
        if (f[6] != "0" && f[6] != "1") {
          *cls = ingest_error::kBadEnum;
          return Status::Corruption("bad mispriced flag");
        }
        Transaction tx;
        tx.id = static_cast<TransactionId>(*id);
        tx.seller = static_cast<CompanyId>(*seller);
        tx.buyer = static_cast<CompanyId>(*buyer);
        tx.category = static_cast<CategoryId>(*category);
        tx.quantity = *quantity;
        tx.unit_price = *unit_price;
        if (f[6] == "1") {
          ledger.mispriced.push_back(ledger.transactions.size());
        }
        relations.insert((static_cast<uint64_t>(tx.seller) << 32) |
                         tx.buyer);
        ledger.transactions.push_back(tx);
        return Status::OK();
      }));
  ledger.num_relations = relations.size();

  TPIIN_RETURN_IF_ERROR(sink.Finish());
  return ledger;
}

Status WriteAuditReport(const std::string& path, const Ledger& ledger,
                        const AuditReport& report) {
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  std::ostream& out = file.stream();
  out << report.Summary() << "\n\nFindings:\n";
  for (const CupFinding& finding : report.findings) {
    const Transaction& tx = ledger.transactions[finding.tx_index];
    out << StringPrintf(
        "  tx#%llu  company#%u -> company#%u  category %u  "
        "price %.2f (market %.2f)  under-invoiced %.2f  adjustment "
        "%.2f\n",
        static_cast<unsigned long long>(tx.id), tx.seller, tx.buyer,
        tx.category, tx.unit_price, ledger.market.PriceOf(tx.category),
        finding.underpricing, finding.tax_adjustment);
  }
  return file.Commit();
}

}  // namespace tpiin
