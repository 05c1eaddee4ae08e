// Malformed-input corpus for the hardened loaders: every error class,
// across strict / skip / quarantine modes, with LoadReport accounting.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "datagen/worked_example.h"
#include "io/dataset_csv.h"
#include "io/edge_list.h"
#include "io/ingest.h"
#include "io/ledger_csv.h"

namespace tpiin {
namespace {

namespace fs = std::filesystem;

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void Append(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::app);
  out << text;
}

class RobustIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("tpiin_ingest_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // A known-good on-disk dataset the tests then damage selectively.
  void WriteGoodDataset() {
    RawDataset dataset = BuildWorkedExampleDataset();
    ASSERT_TRUE(SaveDatasetCsv(dir_, dataset).ok());
    num_trades_ = dataset.trades().size();
    num_persons_ = dataset.persons().size();
  }

  std::string dir_;
  size_t num_trades_ = 0;
  size_t num_persons_ = 0;
};

TEST(EntityIdIndexTest, DensePathAndLookup) {
  EntityIdIndex index;
  for (int64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(index.Add(id).ok());
  }
  EXPECT_EQ(index.size(), 100u);
  EXPECT_EQ(index.Lookup(0), 0);
  EXPECT_EQ(index.Lookup(99), 99);
  EXPECT_EQ(index.Lookup(100), -1);
  EXPECT_EQ(index.Lookup(-1), -1);
}

TEST(EntityIdIndexTest, GapFallsBackToMap) {
  EntityIdIndex index;
  ASSERT_TRUE(index.Add(0).ok());
  ASSERT_TRUE(index.Add(1).ok());
  ASSERT_TRUE(index.Add(7).ok());  // Gap: dense rows 0,1 migrate.
  ASSERT_TRUE(index.Add(3).ok());
  EXPECT_EQ(index.size(), 4u);
  EXPECT_EQ(index.Lookup(0), 0);
  EXPECT_EQ(index.Lookup(1), 1);
  EXPECT_EQ(index.Lookup(7), 2);
  EXPECT_EQ(index.Lookup(3), 3);
  EXPECT_EQ(index.Lookup(2), -1);
}

TEST(EntityIdIndexTest, DuplicateRejectedOnBothPaths) {
  EntityIdIndex dense;
  ASSERT_TRUE(dense.Add(0).ok());
  EXPECT_TRUE(dense.Add(0).IsCorruption());
  EntityIdIndex sparse;
  ASSERT_TRUE(sparse.Add(5).ok());
  EXPECT_TRUE(sparse.Add(5).IsCorruption());
}

TEST_F(RobustIngestTest, StrictModeFailsOnFirstBadRow) {
  WriteGoodDataset();
  Append(dir_ + "/trades.csv", "xx,yy\n");
  IngestOptions options;  // kStrict is the default.
  LoadReport report;
  auto loaded = LoadDatasetCsv(dir_, options, &report);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  // Strict errors are annotated with the offending file and line.
  EXPECT_NE(loaded.status().ToString().find("trades.csv"),
            std::string::npos);
  EXPECT_EQ(report.rows_rejected, 1u);
}

TEST_F(RobustIngestTest, SkipModeDropsBadRowsAndCounts) {
  WriteGoodDataset();
  Append(dir_ + "/trades.csv", "xx,yy\n0\n");  // bad_number + columns
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  LoadReport report;
  auto loaded = LoadDatasetCsv(dir_, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trades().size(), num_trades_);
  EXPECT_EQ(report.rows_rejected, 2u);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kBadNumber), 1u);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kColumns), 1u);
  EXPECT_EQ(report.rows_loaded + report.rows_rejected, report.rows_seen);
  EXPECT_FALSE(report.Clean());
  EXPECT_NE(report.ToString().find("rejected"), std::string::npos);
}

TEST_F(RobustIngestTest, QuarantineModeWritesAnnotatedFile) {
  WriteGoodDataset();
  Append(dir_ + "/trades.csv", "xx,yy\n");
  IngestOptions options;
  options.mode = IngestMode::kQuarantine;
  options.quarantine_path = dir_ + "/quarantine.txt";
  LoadReport report;
  auto loaded = LoadDatasetCsv(dir_, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_quarantined, 1u);
  const std::string quarantined = Slurp(options.quarantine_path);
  EXPECT_NE(quarantined.find("trades.csv"), std::string::npos);
  EXPECT_NE(quarantined.find(ingest_error::kBadNumber), std::string::npos);
  EXPECT_NE(quarantined.find("xx,yy"), std::string::npos)
      << "raw row preserved for repair and replay";
}

TEST_F(RobustIngestTest, QuarantineModeWithCleanInputWritesNothing) {
  WriteGoodDataset();
  IngestOptions options;
  options.mode = IngestMode::kQuarantine;
  options.quarantine_path = dir_ + "/quarantine.txt";
  LoadReport report;
  ASSERT_TRUE(LoadDatasetCsv(dir_, options, &report).ok());
  EXPECT_TRUE(report.Clean());
  EXPECT_FALSE(fs::exists(options.quarantine_path));
}

TEST_F(RobustIngestTest, DuplicatePersonIdClassified) {
  WriteGoodDataset();
  Append(dir_ + "/persons.csv", "0,Duplicate,0\n");
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  LoadReport report;
  auto loaded = LoadDatasetCsv(dir_, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->persons().size(), num_persons_);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kDuplicateId), 1u);
}

TEST_F(RobustIngestTest, SkippedEntityMakesLaterReferencesDangle) {
  WriteGoodDataset();
  // Person 999's row is rejected (roles mask out of range), so the
  // interdependence row referencing it must dangle — never silently
  // re-wire to another person.
  Append(dir_ + "/persons.csv", "999,Ghost,999999\n");
  Append(dir_ + "/interdependence.csv", "999,0,kinship\n");
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  LoadReport report;
  auto loaded = LoadDatasetCsv(dir_, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kBadEnum), 1u);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kDanglingRef), 1u);
}

TEST_F(RobustIngestTest, InvalidUtf8NameClassified) {
  WriteGoodDataset();
  Append(dir_ + "/persons.csv", "998,Bad\xC3\x28Name,0\n");
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  LoadReport report;
  auto loaded = LoadDatasetCsv(dir_, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kBadUtf8), 1u);
}

TEST_F(RobustIngestTest, OversizedFieldClassified) {
  WriteGoodDataset();
  std::string row = "997,";
  row.append(200, 'a');
  row += ",0\n";
  Append(dir_ + "/persons.csv", row);
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  options.max_field_bytes = 64;
  LoadReport report;
  auto loaded = LoadDatasetCsv(dir_, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kOversizedField), 1u);
}

TEST_F(RobustIngestTest, MaxBadRowsTripsTheLoad) {
  WriteGoodDataset();
  Append(dir_ + "/trades.csv", "a,b\nc,d\ne,f\n");
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  options.max_bad_rows = 2;
  auto loaded = LoadDatasetCsv(dir_, options, nullptr);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST_F(RobustIngestTest, MissingHeaderIsAlwaysFatal) {
  WriteGoodDataset();
  {
    std::ofstream out(dir_ + "/trades.csv");
    out << "wrong,header\n0,1\n";
  }
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  EXPECT_TRUE(LoadDatasetCsv(dir_, options, nullptr)
                  .status()
                  .IsCorruption())
      << "structural damage is fatal even in skip mode";
}

// ---------------------------------------------------------------------
// Edge-list loader.

constexpr char kGoodEdgeList[] =
    "tpiin-edge-list v2\n"
    "nodes 3\n"
    "0 P boss\n"
    "1 C alpha\n"
    "2 C beta\n"
    "arcs 3 2\n"
    "0 1 1 0.9\n"
    "1 2 0 1\n"
    "2 1 0 1\n";

TEST_F(RobustIngestTest, EdgeListSkipModeDropsBadArcRow) {
  const std::string path = dir_ + "/net.txt";
  {
    std::ofstream out(path);
    out << "tpiin-edge-list v2\n"
           "nodes 3\n"
           "0 P boss\n"
           "1 C alpha\n"
           "2 C beta\n"
           "arcs 3 2\n"
           "0 1 1 0.9\n"
           "1 2 0 xx\n"  // bad weight
           "2 1 0 1\n";
  }
  EXPECT_FALSE(ReadTpiinEdgeList(path).ok()) << "strict default";

  IngestOptions options;
  options.mode = IngestMode::kSkip;
  LoadReport report;
  auto net = ReadTpiinEdgeList(path, options, &report);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  EXPECT_EQ(net->NumNodes(), 3u);
  EXPECT_EQ(report.rows_rejected, 1u);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kBadNumber), 1u);
}

TEST_F(RobustIngestTest, EdgeListArcErrorClasses) {
  const std::string path = dir_ + "/net.txt";
  {
    std::ofstream out(path);
    out << "tpiin-edge-list v2\n"
           "nodes 3\n"
           "0 P boss\n"
           "1 C alpha\n"
           "2 C beta\n"
           "arcs 4 2\n"
           "0 1 1 0.9\n"
           "1 9 0 1\n"    // endpoint out of range
           "1 2 1 0.5\n"  // influence color in the trading region
           "1 2\n";       // truncated row
  }
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  LoadReport report;
  auto net = ReadTpiinEdgeList(path, options, &report);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  EXPECT_EQ(report.rows_rejected, 3u);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kIdRange), 1u);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kBadEnum), 1u);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kColumns), 1u);
}

TEST_F(RobustIngestTest, EdgeListNodeDamageIsFatalEvenInSkipMode) {
  const std::string path = dir_ + "/net.txt";
  {
    std::ofstream out(path);
    std::string text(kGoodEdgeList);
    // Damage a node row: ids index the table, so this is structural.
    size_t pos = text.find("1 C alpha");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = '9';
    out << text;
  }
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  EXPECT_TRUE(ReadTpiinEdgeList(path, options, nullptr)
                  .status()
                  .IsCorruption());
}

// ---------------------------------------------------------------------
// Ledger loader.

void WriteLedgerFiles(const std::string& dir,
                      const std::string& extra_transaction_rows) {
  {
    std::ofstream out(dir + "/market.csv");
    out << "category,unit_price\n0,10\n1,20\n";
  }
  std::ofstream out(dir + "/transactions.csv");
  out << "id,seller,buyer,category,quantity,unit_price,mispriced\n"
         "0,0,1,0,5,9,1\n"
         "1,1,0,1,2,20,0\n"
      << extra_transaction_rows;
}

TEST_F(RobustIngestTest, LedgerSkipModeDropsBadTransactionRows) {
  WriteLedgerFiles(dir_, "2,0,1,zz,1,1,0\n3,0,1,7,1,1,0\n4,0,1,0,1,1,9\n");
  EXPECT_FALSE(LoadLedgerCsv(dir_).ok()) << "strict default";

  IngestOptions options;
  options.mode = IngestMode::kSkip;
  LoadReport report;
  auto ledger = LoadLedgerCsv(dir_, options, &report);
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  EXPECT_EQ(ledger->transactions.size(), 2u);
  EXPECT_EQ(report.rows_rejected, 3u);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kBadNumber), 1u);
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kDanglingRef), 1u)
      << "category 7 refers to no market row";
  EXPECT_EQ(report.errors_by_class.at(ingest_error::kBadEnum), 1u)
      << "mispriced flag must be 0 or 1";
}

TEST_F(RobustIngestTest, LedgerOversizedFieldClassified) {
  // A 200-digit price parses as a double; only the field guard stops it.
  WriteLedgerFiles(dir_, "2,0,1,0,1," + std::string(200, '1') + ",0\n");
  IngestOptions options;
  options.mode = IngestMode::kSkip;
  options.max_field_bytes = 64;
  LoadReport report;
  auto ledger = LoadLedgerCsv(dir_, options, &report);
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  EXPECT_EQ(ledger->transactions.size(), 2u);
  EXPECT_EQ(report.rows_rejected, 1u);
  EXPECT_EQ(report.errors_by_class.count(ingest_error::kOversizedField), 1u);
}

TEST_F(RobustIngestTest, LoadReportToStringSummarizes) {
  LoadReport report;
  report.rows_seen = 12;
  report.rows_loaded = 10;
  report.rows_rejected = 2;
  report.errors_by_class["bad_number"] = 2;
  const std::string text = report.ToString();
  EXPECT_NE(text.find("10"), std::string::npos);
  EXPECT_NE(text.find("bad_number"), std::string::npos);
}

}  // namespace
}  // namespace tpiin
