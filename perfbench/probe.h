// Measurement helpers shared by perfbench_bin's workloads and its load
// generator: clocks, process CPU, per-phase peak RSS, a payload digest,
// --key=value flags and the in-memory span log of traced runs. Nothing
// here belongs to the program under test.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

inline int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

/// Resets this process's peak RSS (VmHWM) to its current RSS, so the
/// next PeakRssMb() reads the high-water mark of one phase only.
inline void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
inline double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// 64-bit digest of a byte string: 8 bytes per step, so checking a
/// multi-megabyte payload costs the generator milliseconds, not tens.
inline uint64_t Digest(std::string_view bytes) {
  constexpr uint64_t kMul1 = 0x9E3779B97F4A7C15ull;
  constexpr uint64_t kMul2 = 0xC2B2AE3D27D4EB4Full;
  uint64_t h = 0x27D4EB2F165667C5ull ^ (bytes.size() * kMul2);
  const char* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h ^= w * kMul1;
    h = ((h << 31) | (h >> 33)) * kMul2;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p, n);
  h ^= tail * kMul1;
  h ^= h >> 29;
  h *= kMul2;
  h ^= h >> 32;
  return h;
}

inline std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// --key=value arguments after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.substr(0, 2) != "--") continue;
      size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        values_[std::string(arg.substr(2))] = "1";
      } else {
        values_[std::string(arg.substr(2, eq - 2))] =
            std::string(arg.substr(eq + 1));
      }
    }
  }
  std::string Str(const std::string& key, const std::string& def = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  double Num(const std::string& key, double def = 0) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Spans of a traced run, kept in memory and written once at the end.
/// `op` groups the spans of one pass or request; `parent` indexes the
/// enclosing span (-1 for an operation's root). `cpu_ns` is process CPU
/// over the span, so cpu_ns / (end - start) is its CPU/wall ratio.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t op;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
    int64_t cpu_ns;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index for End (or -1 when disabled).
  int Begin(const std::string& name, int64_t op, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, op, parent, NowNs(), 0, ProcessCpuNs()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) {
    if (index < 0) return;
    Span& s = spans_[static_cast<size_t>(index)];
    s.end_ns = NowNs();
    s.cpu_ns = ProcessCpuNs() - s.cpu_ns;
  }
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%s\t%d\t%lld\t%lld\t%lld\n", i,
                   static_cast<long long>(s.op), s.name.c_str(), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.cpu_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int64_t op, int parent)
      : log_(log), index_(log.Begin(name, op, parent)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

int RunLoad(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
