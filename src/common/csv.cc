#include "common/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace tpiin {

namespace {

/// Bytes CsvFileReader asks read(2) for at a time.
constexpr size_t kReadBufferBytes = size_t{1} << 20;

/// The fault a failpoint at `site` injects, or OK. TPIIN_FAILPOINT
/// cannot be used where the caller returns no Status.
Status InjectedFault([[maybe_unused]] const char* site) {
#if defined(TPIIN_FAILPOINTS_COMPILED)
  if (Failpoints::AnyActive()) return Failpoints::Check(site);
#endif
  return Status::OK();
}

/// The one CSV tokenizer. A line without a quote splits on commas into
/// views of `line`. A quoted line is unescaped into `*scratch`, which is
/// sized to the line up front (unescaping never lengthens it), so no
/// view into it moves while the line is split. On error `*fields` is
/// cleared.
Status SplitCsvLine(std::string_view line, std::string* scratch,
                    std::vector<std::string_view>* fields) {
  fields->clear();
  if (line.find('"') == std::string_view::npos) {
    size_t start = 0;
    size_t comma;
    while ((comma = line.find(',', start)) != std::string_view::npos) {
      fields->push_back(line.substr(start, comma - start));
      start = comma + 1;
    }
    fields->push_back(line.substr(start));
    return Status::OK();
  }
  scratch->resize(line.size());
  char* const base = scratch->data();
  char* out = base;
  char* field = base;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c != '"') {
        *out++ = c;
      } else if (i + 1 < line.size() && line[i + 1] == '"') {
        *out++ = '"';
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == '"') {
      if (out != field) {
        fields->clear();
        return Status::Corruption("quote inside unquoted CSV field");
      }
      in_quotes = true;
    } else if (c == ',') {
      fields->emplace_back(field, out - field);
      field = out;
    } else {
      *out++ = c;
    }
  }
  if (in_quotes) {
    fields->clear();
    return Status::Corruption("unterminated CSV quote");
  }
  fields->emplace_back(field, out - field);
  return Status::OK();
}

}  // namespace

Result<std::vector<std::string>> ParseCsvLine(std::string_view line) {
  std::string scratch;
  std::vector<std::string_view> fields;
  TPIIN_RETURN_IF_ERROR(SplitCsvLine(line, &scratch, &fields));
  return std::vector<std::string>(fields.begin(), fields.end());
}

std::string EscapeCsvField(std::string_view field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!field.empty() &&
      (std::isspace(static_cast<unsigned char>(field.front())) ||
       std::isspace(static_cast<unsigned char>(field.back())))) {
    needs_quotes = true;
  }
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : file_(path) {}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  std::ostream& out = file_.stream();
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ',';
    out << EscapeCsvField(fields[i]);
  }
  out << '\n';
}

Status CsvWriter::Close() { return file_.Commit(); }

CsvWriter::~CsvWriter() {
  Close();  // Best effort; errors surfaced via explicit Close.
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, const std::vector<std::string>& expect_header) {
  CsvFileReader reader(path);
  TPIIN_RETURN_IF_ERROR(reader.status());
  std::vector<std::vector<std::string>> rows;
  bool saw_header = expect_header.empty();
  CsvRow row;
  while (reader.Next(&row)) {
    TPIIN_RETURN_IF_ERROR(row.parse);
    if (!saw_header) {
      if (!std::equal(row.fields.begin(), row.fields.end(),
                      expect_header.begin(), expect_header.end())) {
        return Status::Corruption("unexpected CSV header in " + path);
      }
      saw_header = true;
      continue;
    }
    rows.emplace_back(row.fields.begin(), row.fields.end());
  }
  TPIIN_RETURN_IF_ERROR(reader.status());
  return rows;
}

CsvFileReader::CsvFileReader(const std::string& path) : path_(path) {
  status_ = InjectedFault("io.csv.open");
  if (!status_.ok()) return;
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    status_ = Status::IOError("cannot open " + path_);
    return;
  }
  // A small file gets a buffer of its own size, so reading a tiny table
  // does not allocate the full default.
  capacity_ = kReadBufferBytes;
  struct stat st;
  if (::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode) &&
      static_cast<uint64_t>(st.st_size) < capacity_) {
    capacity_ = static_cast<size_t>(st.st_size) + 1;
  }
  buffer_.reset(new char[capacity_]);
}

CsvFileReader::~CsvFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status CsvFileReader::ExpectHeader(const std::vector<std::string>& header) {
  TPIIN_RETURN_IF_ERROR(status_);
  CsvRow row;
  if (!Next(&row)) {
    TPIIN_RETURN_IF_ERROR(status_);
    return Status::Corruption(path_ + ": missing header");
  }
  TPIIN_RETURN_IF_ERROR(row.parse);
  if (!std::equal(row.fields.begin(), row.fields.end(), header.begin(),
                  header.end())) {
    return Status::Corruption("unexpected CSV header in " + path_);
  }
  return Status::OK();
}

bool CsvFileReader::Refill() {
  if (begin_ > 0) {
    std::memmove(buffer_.get(), buffer_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == capacity_) {
    // One line fills the whole buffer: double it.
    std::unique_ptr<char[]> grown(new char[capacity_ * 2]);
    std::memcpy(grown.get(), buffer_.get(), end_);
    buffer_ = std::move(grown);
    capacity_ *= 2;
  }
  status_ = InjectedFault("io.csv.read");
  if (!status_.ok()) return false;
  ssize_t n;
  do {
    n = ::read(fd_, buffer_.get() + end_, capacity_ - end_);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    status_ = Status::IOError(path_ + ": read failed: " +
                              std::strerror(errno));
    return false;
  }
  if (n == 0) {
    eof_ = true;
    return false;
  }
  end_ += static_cast<size_t>(n);
  return true;
}

bool CsvFileReader::NextLine(std::string_view* line) {
  size_t scanned = 0;  // Bytes after begin_ known to hold no newline.
  while (true) {
    const char* const start = buffer_.get() + begin_;
    const void* newline =
        std::memchr(start + scanned, '\n', end_ - begin_ - scanned);
    if (newline != nullptr) {
      *line = std::string_view(
          start, static_cast<const char*>(newline) - start);
      begin_ += line->size() + 1;
      return true;
    }
    scanned = end_ - begin_;
    if (eof_ || !Refill()) break;
  }
  // A last line without a newline.
  if (!status_.ok() || begin_ == end_) return false;
  *line = std::string_view(buffer_.get() + begin_, end_ - begin_);
  begin_ = end_;
  return true;
}

bool CsvFileReader::Next(CsvRow* row) {
  if (!status_.ok()) return false;
  std::string_view line;
  while (NextLine(&line)) {
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (Trim(line).empty()) continue;
    row->line_number = line_number_;
    row->raw = line;
    row->parse = SplitCsvLine(line, &unescaped_, &row->fields);
    return true;
  }
  return false;
}

}  // namespace tpiin
