#include "obs/log.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace tpiin {
namespace {

// Registry of live sinks for the async-signal-safe RequestReopenAll().
// A fixed array of atomic slots: registration CASes a null slot,
// deregistration stores null. A signal handler only loads and calls
// RequestReopen() (itself one relaxed store), so no locks are taken in
// signal context.
constexpr int kMaxSinks = 16;
std::array<std::atomic<JsonLogSink*>, kMaxSinks> g_sinks{};

void RegisterSink(JsonLogSink* sink) {
  for (auto& slot : g_sinks) {
    JsonLogSink* expected = nullptr;
    if (slot.compare_exchange_strong(expected, sink,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
  // More than kMaxSinks live sinks: the overflow sink simply cannot be
  // rotated via signal; Event()/Write() still work.
}

void UnregisterSink(JsonLogSink* sink) {
  for (auto& slot : g_sinks) {
    JsonLogSink* expected = sink;
    if (slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
}

// src/serve/server.cc -> "serve"; fallback: file basename sans
// extension. Never allocates beyond the returned string.
std::string ComponentFromPath(const char* file) {
  std::string_view path(file == nullptr ? "" : file);
  constexpr std::string_view kSrc = "src/";
  size_t pos = path.rfind(kSrc);
  if (pos != std::string_view::npos) {
    std::string_view rest = path.substr(pos + kSrc.size());
    size_t slash = rest.find('/');
    if (slash != std::string_view::npos && slash > 0) {
      return std::string(rest.substr(0, slash));
    }
  }
  size_t slash = path.rfind('/');
  std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  size_t dot = base.rfind('.');
  if (dot != std::string_view::npos && dot > 0) base = base.substr(0, dot);
  return base.empty() ? std::string("unknown") : std::string(base);
}

std::string Basename(const char* file) {
  std::string_view path(file == nullptr ? "" : file);
  size_t slash = path.rfind('/');
  return std::string(slash == std::string_view::npos ? path
                                                     : path.substr(slash + 1));
}

void AppendJsonString(std::string* out, std::string_view value) {
  *out += '"';
  *out += JsonEscape(value);
  *out += '"';
}

}  // namespace

int64_t UnixMicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string FormatLogTimestamp(int64_t unix_micros) {
  // Floor-divide so pre-epoch instants still get micros in [0, 1e6).
  int64_t secs = unix_micros / 1000000;
  int64_t micros = unix_micros % 1000000;
  if (micros < 0) {
    micros += 1000000;
    secs -= 1;
  }
  std::tm tm{};
  time_t t = static_cast<time_t>(secs);
  gmtime_r(&t, &tm);
  char buf[40];
  int n = std::snprintf(buf, sizeof(buf),
                        "%04d-%02d-%02dT%02d:%02d:%02d.%06lldZ",
                        tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday,
                        tm.tm_hour, tm.tm_min, tm.tm_sec,
                        static_cast<long long>(micros));
  return std::string(buf, n > 0 ? static_cast<size_t>(n) : 0);
}

std::string FormatLogEvent(LogLevel level, std::string_view component,
                           std::string_view event,
                           const std::vector<LogField>& fields,
                           int64_t unix_micros) {
  std::string out;
  out.reserve(96 + fields.size() * 24);
  out += "{\"ts\":\"";
  out += FormatLogTimestamp(unix_micros);
  out += "\",\"level\":\"";
  out += LogLevelToken(level);
  out += "\",\"component\":";
  AppendJsonString(&out, component);
  out += ",\"event\":";
  AppendJsonString(&out, event);
  for (const LogField& field : fields) {
    out += ',';
    AppendJsonString(&out, field.key);
    out += ':';
    out += ReportValueToJson(field.value);
  }
  out += '}';
  return out;
}

std::unique_ptr<JsonLogSink> JsonLogSink::Open(const std::string& path,
                                               std::string* error) {
  if (path.empty() || path == "-") {
    return std::unique_ptr<JsonLogSink>(
        new JsonLogSink(path, STDERR_FILENO, /*owns_fd=*/false));
  }
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open log file '" + path + "': " + std::strerror(errno);
    }
    return nullptr;
  }
  return std::unique_ptr<JsonLogSink>(
      new JsonLogSink(path, fd, /*owns_fd=*/true));
}

JsonLogSink::JsonLogSink(std::string path, int fd, bool owns_fd)
    : path_(std::move(path)), fd_(fd), owns_fd_(owns_fd) {
  RegisterSink(this);
}

JsonLogSink::~JsonLogSink() {
  UnregisterSink(this);
  std::lock_guard<std::mutex> lock(mu_);
  if (owns_fd_ && fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void JsonLogSink::Event(LogLevel level, std::string_view component,
                        std::string_view event,
                        const std::vector<LogField>& fields) {
  WriteLine(FormatLogEvent(level, component, event, fields, UnixMicrosNow()));
}

void JsonLogSink::Write(LogLevel level, const char* file, int line,
                        std::string_view message) {
  std::vector<LogField> fields;
  fields.reserve(2);
  fields.emplace_back("msg", std::string(message));
  fields.emplace_back("src", Basename(file) + ":" + std::to_string(line));
  Event(level, ComponentFromPath(file), "log", fields);
}

void JsonLogSink::RequestReopenAll() {
  for (auto& slot : g_sinks) {
    if (JsonLogSink* sink = slot.load(std::memory_order_acquire)) {
      sink->RequestReopen();
    }
  }
}

void JsonLogSink::WriteLine(std::string_view line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (owns_fd_ && reopen_.exchange(false, std::memory_order_acq_rel)) {
    int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                    0644);
    if (fd >= 0) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = fd;
      ok_.store(true, std::memory_order_relaxed);
    } else {
      // Keep writing to the old fd; better torn rotation than lost logs.
      ok_.store(false, std::memory_order_relaxed);
    }
  }
  if (fd_ < 0) return;
  std::string buf;
  buf.reserve(line.size() + 1);
  buf.append(line.data(), line.size());
  buf.push_back('\n');
  // One write(2) per line on an O_APPEND fd: atomic for pipe-sized
  // lines, and a crash tears at most the final record. Loop only for
  // EINTR / short writes (regular files rarely short-write).
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok_.store(false, std::memory_order_relaxed);
      return;
    }
    off += static_cast<size_t>(n);
  }
  ok_.store(true, std::memory_order_relaxed);
  lines_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace tpiin
