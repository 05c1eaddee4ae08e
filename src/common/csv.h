#ifndef TPIIN_COMMON_CSV_H_
#define TPIIN_COMMON_CSV_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/result.h"
#include "common/status.h"

namespace tpiin {

/// Parses one CSV line into fields, honoring RFC 4180 double-quote
/// escaping ("a","b""c" -> {a, b"c}). Embedded newlines inside quotes are
/// not supported (our formats never emit them). CsvFileReader tokenizes
/// with the same rules and error messages.
Result<std::vector<std::string>> ParseCsvLine(std::string_view line);

/// Quotes a field if it contains a comma, quote, or leading/trailing
/// whitespace.
std::string EscapeCsvField(std::string_view field);

/// Streaming CSV writer. All write paths funnel through WriteRow so
/// quoting stays consistent. Writes are crash-safe: rows stream into a
/// temporary that replaces `path` only when Close() succeeds, so a
/// killed process or failed write never leaves a half-written table.
class CsvWriter {
 public:
  /// Opens the temporary for `path`. Check ok() before use.
  explicit CsvWriter(const std::string& path);

  bool ok() const { return file_.ok(); }

  void WriteRow(const std::vector<std::string>& fields);

  /// Flushes and publishes the file; returns IOError if any write
  /// failed. Safe to call more than once.
  Status Close();

  ~CsvWriter();

 private:
  AtomicFile file_;
};

/// Whole-file CSV reader: returns rows of fields. Skips blank lines.
/// If `expect_header` is non-empty the first row must equal it exactly
/// (and is not returned). Reads through CsvFileReader.
Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, const std::vector<std::string>& expect_header);

/// One physical line of a CSV file, tokenized. `raw` and `fields` view
/// the reader's buffers and stay valid until its next Next() call. A row
/// whose `parse` status is non-OK still carries line_number and raw
/// text, so hardened loaders can count, skip, or quarantine it instead
/// of aborting the whole file.
struct CsvRow {
  size_t line_number = 0;  ///< 1-based physical line.
  std::string_view raw;    ///< The line as read (CR stripped).
  std::vector<std::string_view> fields;  ///< Valid iff parse.ok().
  Status parse;
};

/// Streaming per-line CSV reader — the resilient counterpart of
/// ReadCsvFile, which fails the whole file on the first malformed line.
/// Blank lines are skipped; a malformed line is *returned* (with
/// row.parse non-OK) rather than ending the stream. The file is read
/// with read(2) through one reused buffer of 1 MiB (or the file's size,
/// if smaller), which grows only to hold a longer line. A line without a
/// quote is split into views of that buffer, and a quoted line is
/// unescaped into a per-reader scratch string, so a row costs no
/// allocation once the buffers are warm.
class CsvFileReader {
 public:
  /// Opens `path`. Check status() before iterating.
  explicit CsvFileReader(const std::string& path);
  ~CsvFileReader();

  CsvFileReader(const CsvFileReader&) = delete;
  CsvFileReader& operator=(const CsvFileReader&) = delete;

  /// Open errors, and once Next() returned false, read errors.
  const Status& status() const { return status_; }

  /// If a header is expected, call immediately after construction.
  /// Consumes the first non-blank line and checks it.
  Status ExpectHeader(const std::vector<std::string>& header);

  /// Reads the next non-blank line into `*row`. Returns false at EOF,
  /// on a read error (see status()), or when the reader failed to open.
  bool Next(CsvRow* row);

 private:
  /// The next physical line, without its newline.
  bool NextLine(std::string_view* line);
  /// Moves the unconsumed bytes to the front, grows a full buffer, and
  /// reads more. False at EOF or on a read error.
  bool Refill();

  std::string path_;
  int fd_ = -1;
  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  size_t begin_ = 0;  ///< First unconsumed byte.
  size_t end_ = 0;    ///< One past the last byte read.
  bool eof_ = false;
  size_t line_number_ = 0;
  std::string unescaped_;
  Status status_;
};

}  // namespace tpiin

#endif  // TPIIN_COMMON_CSV_H_
