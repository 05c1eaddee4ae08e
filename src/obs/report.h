#ifndef TPIIN_OBS_REPORT_H_
#define TPIIN_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "obs/metrics.h"

namespace tpiin {

/// One scalar in a RunReport: the JSON-expressible primitives.
using ReportValue =
    std::variant<int64_t, uint64_t, double, bool, std::string>;

/// Escapes a string for embedding in a JSON string literal (quotes not
/// included). The one JSON string escaper: run reports, the structured
/// log, the batch JSON report and serve's wire responses all use it.
std::string JsonEscape(std::string_view text);

/// Renders a ReportValue as a JSON literal (strings escaped+quoted).
std::string ReportValueToJson(const ReportValue& value);

/// An ordered key -> scalar map; Set overwrites in place, new keys
/// append (so report sections read in the order the producer wrote).
class ReportSection {
 public:
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> &&
                             !std::is_same_v<T, bool>>* = nullptr>
  void Set(const std::string& key, T value) {
    if constexpr (std::is_signed_v<T>) {
      SetValue(key, ReportValue(static_cast<int64_t>(value)));
    } else {
      SetValue(key, ReportValue(static_cast<uint64_t>(value)));
    }
  }
  void Set(const std::string& key, double value) {
    SetValue(key, ReportValue(value));
  }
  void Set(const std::string& key, bool value) {
    SetValue(key, ReportValue(value));
  }
  void Set(const std::string& key, const std::string& value) {
    SetValue(key, ReportValue(value));
  }
  void Set(const std::string& key, const char* value) {
    SetValue(key, ReportValue(std::string(value)));
  }

  const std::vector<std::pair<std::string, ReportValue>>& items() const {
    return items_;
  }

 private:
  void SetValue(const std::string& key, ReportValue value);

  std::vector<std::pair<std::string, ReportValue>> items_;
};

/// A named-column table (e.g. the top-K slowest subTPIINs). Build rows
/// left to right:
///   ReportTable& t = report.AddTable("slowest", {"index", "seconds"});
///   t.AddRow().Append(3).Append(0.12);
class ReportTable {
 public:
  class Row {
   public:
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                               !std::is_same_v<T, bool>>* = nullptr>
    Row& Append(T value) {
      if constexpr (std::is_signed_v<T>) {
        values_.emplace_back(static_cast<int64_t>(value));
      } else {
        values_.emplace_back(static_cast<uint64_t>(value));
      }
      return *this;
    }
    Row& Append(double value) {
      values_.emplace_back(value);
      return *this;
    }
    Row& Append(bool value) {
      values_.emplace_back(value);
      return *this;
    }
    Row& Append(std::string value) {
      values_.emplace_back(std::move(value));
      return *this;
    }
    Row& Append(const char* value) {
      values_.emplace_back(std::string(value));
      return *this;
    }

    const std::vector<ReportValue>& values() const { return values_; }

   private:
    std::vector<ReportValue> values_;
  };

  explicit ReportTable(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

/// The machine-readable record of one pipeline run: wall/CPU-attributed
/// stages, per-layer stat sections (fusion, segmentation, detection),
/// breakdown tables and a metrics snapshot, serialized as one JSON
/// document. Producers: the CLI (`fuse --report=`, `detect --report=`)
/// and every bench harness (`--report=`); consumer:
/// tools/bench_compare's report-diff mode and anything downstream that
/// can read JSON.
class RunReport {
 public:
  explicit RunReport(std::string tool) : tool_(std::move(tool)) {}

  void set_threads(uint32_t threads) { threads_ = threads; }
  void set_total_seconds(double seconds) { total_seconds_ = seconds; }
  double total_seconds() const { return total_seconds_; }

  /// Appends a stage timing row (wall seconds, plus the coordinating
  /// thread's CPU seconds when measured). Each stage also samples the
  /// process peak RSS (obs/rss.h) at the moment it is recorded, so a
  /// report shows *where* in the pipeline the memory high-water mark was
  /// reached — the out-of-core shard path is gated on this.
  void AddStage(const std::string& name, double seconds,
                double cpu_seconds = 0);

  /// Peak RSS (bytes) sampled when the most recent stage was added;
  /// 0 before any stage. Test/introspection accessor.
  int64_t LastStagePeakRssBytes() const {
    return stages_.empty() ? 0 : stages_.back().peak_rss_bytes;
  }

  /// Sum of stage wall seconds; the CLI report's stages are measured so
  /// this lands within a few percent of total_seconds().
  double StageSecondsSum() const;

  /// Create-or-get an ordered section.
  ReportSection& Section(const std::string& name);

  ReportTable& AddTable(const std::string& name,
                        std::vector<std::string> columns);

  void AttachMetrics(MetricsSnapshot snapshot) {
    metrics_ = std::move(snapshot);
    has_metrics_ = true;
  }

  std::string ToJson() const;

  /// Writes ToJson() to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  struct Stage {
    std::string name;
    double seconds = 0;
    double cpu_seconds = 0;
    int64_t peak_rss_bytes = 0;
  };

  std::string tool_;
  uint32_t threads_ = 0;
  double total_seconds_ = 0;
  std::vector<Stage> stages_;
  std::vector<std::pair<std::string, ReportSection>> sections_;
  std::vector<std::pair<std::string, ReportTable>> tables_;
  MetricsSnapshot metrics_;
  bool has_metrics_ = false;
};

}  // namespace tpiin

#endif  // TPIIN_OBS_REPORT_H_
