#include "common/csv.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "io/ingest.h"

namespace tpiin {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A file named after the running test, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& contents)
      : path_((std::filesystem::temp_directory_path() /
               ("tpiin_csv_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".csv"))
                  .string()) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  ~ScratchFile() { std::remove(path_.c_str()); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// ParseCsvLine's rules before CsvFileReader shared its tokenizer, kept
/// verbatim as the oracle of the differential tests below.
Result<std::vector<std::string>> ReferenceParseCsvLine(
    std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        cur += c;
        ++i;
      }
    } else {
      if (c == '"') {
        if (!cur.empty()) {
          return Status::Corruption("quote inside unquoted CSV field");
        }
        in_quotes = true;
        ++i;
      } else if (c == ',') {
        fields.push_back(std::move(cur));
        cur.clear();
        ++i;
      } else {
        cur += c;
        ++i;
      }
    }
  }
  if (in_quotes) return Status::Corruption("unterminated CSV quote");
  fields.push_back(std::move(cur));
  return fields;
}

/// What a reader must return for one physical line: nothing for a blank
/// one, else the oracle's fields or error on the CR-stripped line.
struct ExpectedRow {
  size_t line_number;
  std::string raw;
  Result<std::vector<std::string>> parsed;
};

std::vector<ExpectedRow> ExpectRows(const std::vector<std::string>& lines) {
  std::vector<ExpectedRow> rows;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string raw = lines[i];
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    if (Trim(raw).empty()) continue;
    rows.push_back({i + 1, raw, ReferenceParseCsvLine(raw)});
  }
  return rows;
}

/// Reads `path` and checks every row against `expected`.
void ExpectReaderRows(const std::string& path,
                      const std::vector<ExpectedRow>& expected) {
  CsvFileReader reader(path);
  ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
  CsvRow row;
  size_t n = 0;
  while (reader.Next(&row)) {
    ASSERT_LT(n, expected.size()) << "extra row at line " << row.line_number;
    const ExpectedRow& want = expected[n++];
    ASSERT_EQ(row.line_number, want.line_number);
    ASSERT_EQ(row.raw, want.raw) << "line " << want.line_number;
    ASSERT_EQ(row.parse, want.parsed.status()) << "line " << want.line_number;
    if (want.parsed.ok()) {
      ASSERT_EQ(std::vector<std::string>(row.fields.begin(), row.fields.end()),
                *want.parsed)
          << "line " << want.line_number;
    }
  }
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
  EXPECT_EQ(n, expected.size());
}

std::string JoinLines(const std::vector<std::string>& lines,
                      bool final_newline) {
  std::string text;
  for (size_t i = 0; i < lines.size(); ++i) {
    text += lines[i];
    if (i + 1 < lines.size() || final_newline) text += '\n';
  }
  return text;
}

TEST(ParseCsvLineTest, PlainFields) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, EmptyFields) {
  auto fields = ParseCsvLine(",,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"", "", ""}));
}

TEST(ParseCsvLineTest, QuotedFieldsWithCommasAndQuotes) {
  auto fields = ParseCsvLine("\"a,b\",\"say \"\"hi\"\"\",plain");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields,
            (std::vector<std::string>{"a,b", "say \"hi\"", "plain"}));
}

TEST(ParseCsvLineTest, Errors) {
  EXPECT_TRUE(ParseCsvLine("\"unterminated").status().IsCorruption());
  EXPECT_TRUE(ParseCsvLine("ab\"cd").status().IsCorruption());
}

TEST(EscapeCsvFieldTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(EscapeCsvField(" lead"), "\" lead\"");
  EXPECT_EQ(EscapeCsvField("trail "), "\"trail \"");
}

TEST(CsvRoundTripTest, WriterThenReader) {
  std::string path = TempPath("tpiin_csv_roundtrip.csv");
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"id", "name"});
    writer.WriteRow({"1", "Zhang, Wei"});
    writer.WriteRow({"2", "quote\"d"});
    ASSERT_TRUE(writer.Close().ok());
  }
  auto rows = ReadCsvFile(path, {"id", "name"});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"1", "Zhang, Wei"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"2", "quote\"d"}));
  std::remove(path.c_str());
}

TEST(ReadCsvFileTest, HeaderMismatchIsCorruption) {
  std::string path = TempPath("tpiin_csv_header.csv");
  {
    CsvWriter writer(path);
    writer.WriteRow({"wrong", "header"});
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_TRUE(ReadCsvFile(path, {"id", "name"}).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(ReadCsvFileTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      ReadCsvFile("/nonexistent/dir/file.csv", {}).status().IsIOError());
}

TEST(ReadCsvFileTest, SkipsBlankLinesAndHandlesCrLf) {
  std::string path = TempPath("tpiin_csv_blank.csv");
  {
    std::ofstream out(path);
    out << "a,b\r\n\n1,2\r\n   \n3,4\n";
  }
  auto rows = ReadCsvFile(path, {"a", "b"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"3", "4"}));
  std::remove(path.c_str());
}

TEST(CsvFileReaderTest, DifferentialAgainstParseCsvLineRules) {
  // Seeded lines over an alphabet that hits every branch of the
  // tokenizer: separators, quotes, blanks, CR, NUL and a non-UTF-8 byte.
  // Over 2 MiB of them, so that lines also straddle the reader's refills.
  const char kAlphabet[] = {'a', ',', '"', ' ', '\t', '\r', '\0', '\xFF'};
  Rng rng(20261019);
  std::vector<std::string> lines;
  size_t bytes = 0;
  size_t quoted_ok = 0;
  size_t errors = 0;
  for (size_t i = 0; bytes < (size_t{5} << 19); ++i) {
    std::string line(rng.UniformU64(24), 'a');
    for (char& c : line) c = kAlphabet[rng.UniformU64(sizeof(kAlphabet))];
    Result<std::vector<std::string>> want = ReferenceParseCsvLine(line);
    Result<std::vector<std::string>> got = ParseCsvLine(line);
    ASSERT_EQ(got.status(), want.status()) << i;
    if (want.ok()) {
      ASSERT_EQ(*got, *want) << i;
      if (line.find('"') != std::string::npos) ++quoted_ok;
    } else {
      ++errors;
    }
    bytes += line.size() + 1;
    lines.push_back(std::move(line));
  }
  // Both tokenizer paths and both errors are exercised.
  EXPECT_GT(lines.size(), 10000u);
  EXPECT_GT(quoted_ok, 5000u);
  EXPECT_GT(errors, 5000u);

  const std::vector<ExpectedRow> expected = ExpectRows(lines);
  for (bool final_newline : {true, false}) {
    SCOPED_TRACE(final_newline ? "final newline" : "no final newline");
    ScratchFile file(JoinLines(lines, final_newline));
    ExpectReaderRows(file.path(), expected);
  }
}

TEST(CsvFileReaderTest, ThreeMebibyteLineWithoutFieldLimit) {
  const std::string big(size_t{3} << 20, 'x');
  ScratchFile file("a,b\n1," + big + "\n2,y\n");
  IngestOptions options;
  options.max_field_bytes = 0;
  LoadReport report;
  IngestSink sink(options, &report);
  std::vector<std::pair<size_t, size_t>> seen;  // (line, field b bytes)
  Status status = ScanCsvTable(
      file.path(), {"a", "b"}, sink,
      [&](const CsvRow& row, const char**) -> Status {
        seen.emplace_back(row.line_number, row.fields[1].size());
        if (row.line_number == 2) {
          EXPECT_EQ(row.fields[1], big);
        }
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(seen, (std::vector<std::pair<size_t, size_t>>{
                      {2, big.size()}, {3, 1}}));
  EXPECT_EQ(report.rows_loaded, 2u);
}

TEST(CsvFileReaderTest, CrLfBlankLinesAndNoFinalNewline) {
  ScratchFile file("a,b\r\n1,2\r\n \t \r\n\r\n\n3,\"4\"\r\n5,6");
  CsvFileReader reader(file.path());
  ASSERT_TRUE(reader.ExpectHeader({"a", "b"}).ok());
  CsvRow row;
  std::vector<std::string> seen;
  while (reader.Next(&row)) {
    ASSERT_TRUE(row.parse.ok()) << row.parse.ToString();
    seen.push_back(std::to_string(row.line_number) + ":" +
                   std::string(row.raw) + "=" + std::string(row.fields[0]) +
                   "|" + std::string(row.fields[1]));
  }
  EXPECT_TRUE(reader.status().ok());
  // Whitespace-only and empty lines are skipped but still counted.
  EXPECT_EQ(seen, (std::vector<std::string>{"2:1,2=1|2", "6:3,\"4\"=3|4",
                                            "7:5,6=5|6"}));
}

TEST(CsvFileReaderTest, HeaderOnlyAndEmptyFiles) {
  const std::vector<std::string> header = {"a", "b"};
  auto scan = [&](const std::string& contents, size_t* rows) {
    ScratchFile file(contents);
    const IngestOptions options;
    LoadReport report;
    IngestSink sink(options, &report);
    *rows = 0;
    return ScanCsvTable(file.path(), header, sink,
                        [&](const CsvRow&, const char**) -> Status {
                          ++*rows;
                          return Status::OK();
                        });
  };
  size_t rows = 99;
  EXPECT_TRUE(scan("a,b\n", &rows).ok());
  EXPECT_EQ(rows, 0u);
  EXPECT_TRUE(scan("a,b", &rows).ok());
  EXPECT_EQ(rows, 0u);
  EXPECT_TRUE(scan("\n  \na,b\r\n\n", &rows).ok());
  EXPECT_EQ(rows, 0u);
  Status empty = scan("", &rows);
  EXPECT_TRUE(empty.IsCorruption()) << empty.ToString();
  EXPECT_NE(empty.message().find("missing header"), std::string::npos);
  EXPECT_TRUE(scan(" \n\r\n", &rows).IsCorruption());

  // ReadCsvFile keeps its own rule: an empty file has no rows.
  ScratchFile file("");
  Result<std::vector<std::vector<std::string>>> read =
      ReadCsvFile(file.path(), header);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->empty());
}

TEST(CsvFileReaderTest, ReadErrorIsFatal) {
  auto scan = [](const std::string& path, size_t* rows) {
    const IngestOptions options;
    LoadReport report;
    IngestSink sink(options, &report);
    *rows = 0;
    return ScanCsvTable(path, {"a", "b"}, sink,
                        [&](const CsvRow&, const char**) -> Status {
                          ++*rows;
                          return Status::OK();
                        });
  };
  // A directory opens but fails to read.
  const std::string dir = std::filesystem::temp_directory_path().string();
  size_t rows = 0;
  EXPECT_TRUE(scan(dir, &rows).IsIOError());
  EXPECT_TRUE(ReadCsvFile(dir, {}).status().IsIOError());

  // A read that fails after the rows were delivered still fails the
  // scan: the second read(2) of a small file is the one that meets EOF.
  ScratchFile file("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(Failpoints::Configure("io.csv.read:ioerror@2").ok());
  Status status = scan(file.path(), &rows);
  Failpoints::Clear();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(rows, 2u);
}

TEST(CsvNumberFieldTest, LiteralsKeepTheirStrtollAndStrtodAnswers) {
  // Each literal's answer from the strtoll/strtod parsers these replaced:
  // ok with a value, or the error code.
  struct Case {
    const char* literal;
    StatusCode int_code;
    int64_t int_value;
    StatusCode double_code;
  };
  const StatusCode kOk = StatusCode::kOk;
  const StatusCode kBad = StatusCode::kInvalidArgument;
  const StatusCode kRange = StatusCode::kOutOfRange;
  const Case cases[] = {
      {" 7 ", kOk, 7, kOk},
      {"+5", kOk, 5, kOk},
      {"-0", kOk, 0, kOk},
      {"+-1", kBad, 0, kBad},
      {"-", kBad, 0, kBad},
      {"0x10", kBad, 0, kOk},
      {"9223372036854775808", kRange, 0, kOk},
      {"-9223372036854775808", kOk, INT64_MIN, kOk},
      {"1e400", kBad, 0, kRange},
      {"inf", kBad, 0, kOk},
      {"", kBad, 0, kBad},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("[") + c.literal + "]");
    Result<int64_t> i = ParseInt64(c.literal);
    EXPECT_EQ(i.ok() ? kOk : i.status().code(), c.int_code);
    if (i.ok()) {
      EXPECT_EQ(*i, c.int_value);
    }
    Result<double> d = ParseDouble(c.literal);
    EXPECT_EQ(d.ok() ? kOk : d.status().code(), c.double_code);
  }
  EXPECT_EQ(ParseInt64("0x10").status().message(), "not an integer: 0x10");
  EXPECT_EQ(ParseInt64(" 9223372036854775808 ").status().message(),
            "integer out of range: 9223372036854775808");
  EXPECT_EQ(ParseInt64("").status().message(), "empty integer literal");
  EXPECT_EQ(*ParseDouble("0x10"), 16.0);
  EXPECT_EQ(ParseDouble("1e400").status().message(),
            "double out of range: 1e400");
}

}  // namespace
}  // namespace tpiin
