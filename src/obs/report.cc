#include "obs/report.h"

#include <unistd.h>

#include <cstdio>

#include "obs/rss.h"

namespace tpiin {

namespace {

// obs sits below common in the dependency graph, so it cannot use
// AtomicFile; this is the same temp-write + rename(2) discipline inlined.
bool WriteWholeFileAtomic(const std::string& path,
                          const std::string& data) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(data.data(), 1, data.size(), f) == data.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ReportValueToJson(const ReportValue& value) {
  char buf[64];
  switch (value.index()) {
    case 0:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(std::get<int64_t>(value)));
      return buf;
    case 1:
      std::snprintf(
          buf, sizeof(buf), "%llu",
          static_cast<unsigned long long>(std::get<uint64_t>(value)));
      return buf;
    case 2:
      std::snprintf(buf, sizeof(buf), "%.9g", std::get<double>(value));
      return buf;
    case 3:
      return std::get<bool>(value) ? "true" : "false";
    default: {
      std::string quoted = "\"";
      quoted += JsonEscape(std::get<std::string>(value));
      quoted += '"';
      return quoted;
    }
  }
}

void ReportSection::SetValue(const std::string& key, ReportValue value) {
  for (auto& [existing_key, existing_value] : items_) {
    if (existing_key == key) {
      existing_value = std::move(value);
      return;
    }
  }
  items_.emplace_back(key, std::move(value));
}

void RunReport::AddStage(const std::string& name, double seconds,
                         double cpu_seconds) {
  stages_.push_back(Stage{name, seconds, cpu_seconds, SampleRssGauges()});
}

double RunReport::StageSecondsSum() const {
  double sum = 0;
  for (const Stage& stage : stages_) sum += stage.seconds;
  return sum;
}

ReportSection& RunReport::Section(const std::string& name) {
  for (auto& [existing_name, section] : sections_) {
    if (existing_name == name) return section;
  }
  sections_.emplace_back(name, ReportSection());
  return sections_.back().second;
}

ReportTable& RunReport::AddTable(const std::string& name,
                                 std::vector<std::string> columns) {
  tables_.emplace_back(name, ReportTable(std::move(columns)));
  return tables_.back().second;
}

std::string RunReport::ToJson() const {
  char buf[96];
  std::string out = "{\n";
  out += "  \"tool\": \"";
  out += JsonEscape(tool_);
  out += "\",\n";
  std::snprintf(buf, sizeof(buf), "  \"threads\": %u,\n", threads_);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"total_seconds\": %.9g,\n",
                total_seconds_);
  out += buf;

  out += "  \"stages\": [";
  for (size_t i = 0; i < stages_.size(); ++i) {
    const Stage& stage = stages_[i];
    if (i > 0) out += ',';
    out += "\n    {\"name\": \"";
    out += JsonEscape(stage.name);
    out += "\", ";
    std::snprintf(buf, sizeof(buf),
                  "\"seconds\": %.9g, \"cpu_seconds\": %.9g, "
                  "\"peak_rss_bytes\": %lld}",
                  stage.seconds, stage.cpu_seconds,
                  static_cast<long long>(stage.peak_rss_bytes));
    out += buf;
  }
  out += stages_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"sections\": {";
  for (size_t s = 0; s < sections_.size(); ++s) {
    if (s > 0) out += ',';
    out += "\n    \"";
    out += JsonEscape(sections_[s].first);
    out += "\": {";
    const auto& items = sections_[s].second.items();
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += JsonEscape(items[i].first);
      out += "\": ";
      out += ReportValueToJson(items[i].second);
    }
    out += '}';
  }
  out += sections_.empty() ? "},\n" : "\n  },\n";

  out += "  \"tables\": {";
  for (size_t t = 0; t < tables_.size(); ++t) {
    if (t > 0) out += ',';
    const ReportTable& table = tables_[t].second;
    out += "\n    \"";
    out += JsonEscape(tables_[t].first);
    out += "\": {\"columns\": [";
    for (size_t c = 0; c < table.columns().size(); ++c) {
      if (c > 0) out += ", ";
      out += '"';
      out += JsonEscape(table.columns()[c]);
      out += '"';
    }
    out += "], \"rows\": [";
    for (size_t r = 0; r < table.rows().size(); ++r) {
      if (r > 0) out += ", ";
      out += '[';
      const auto& values = table.rows()[r].values();
      for (size_t v = 0; v < values.size(); ++v) {
        if (v > 0) out += ", ";
        out += ReportValueToJson(values[v]);
      }
      out += ']';
    }
    out += "]}";
  }
  out += tables_.empty() ? "},\n" : "\n  },\n";

  out += "  \"metrics\": ";
  out += has_metrics_ ? metrics_.ToJson() : "{}";
  out += "\n}\n";
  return out;
}

bool RunReport::WriteJson(const std::string& path) const {
  return WriteWholeFileAtomic(path, ToJson());
}

}  // namespace tpiin
