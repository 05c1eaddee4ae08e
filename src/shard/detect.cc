#include "shard/detect.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/atomic_file.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/scoring.h"
#include "obs/report.h"
#include "shard/gids.h"
#include "snapshot/snapshot.h"

namespace tpiin {

namespace {

constexpr char kResultMagic[] = "tpiin-shard-result v1";

std::string EscapeLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeLabel(const std::string& escaped,
                                  const std::string& path) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    if (i + 1 >= escaped.size()) {
      return Status::Corruption(path + ": dangling escape in label");
    }
    switch (escaped[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default:
        return Status::Corruption(path + ": bad escape in label");
    }
  }
  return out;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

Result<uint64_t> ParseU64Field(const std::string& field,
                               const std::string& path) {
  Result<int64_t> value = ParseInt64(field);
  if (!value.ok() || *value < 0) {
    return Status::Corruption(path + ": bad number " + field);
  }
  return static_cast<uint64_t>(*value);
}

Result<uint64_t> ParseCountToken(const std::string& token,
                                 const char* key, const std::string& path) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) {
    return Status::Corruption(path + ": expected " + prefix + "..., found " +
                              token);
  }
  return ParseU64Field(token.substr(prefix.size()), path);
}

}  // namespace

std::string ShardResultPath(const std::string& dir,
                            const ShardManifest& manifest, uint32_t shard) {
  std::string name = ExpandShardPath(manifest.path_template, shard);
  const size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name.resize(dot);
  return dir + "/" + name + ".result";
}

std::string SerializeShardResult(uint32_t shard,
                                 const CanonicalReport& report) {
  const CanonicalSummary& s = report.summary;
  std::string body;
  body += kResultMagic;
  body += '\n';
  body += StringPrintf("shard %u\n", shard);
  body += StringPrintf(
      "counts subtpiins=%" PRIu64 " trails=%" PRIu64 " complex=%" PRIu64
      " simple=%" PRIu64 " circle=%" PRIu64 " intra=%" PRIu64
      " suspicious=%" PRIu64 " trading_arcs=%" PRIu64 " skipped=%" PRIu64
      " degraded=%d truncated=%d\n",
      s.subtpiins, s.trails, s.complex_groups, s.simple_groups,
      s.circle_groups, s.intra, s.suspicious_trades, s.total_trading_arcs,
      s.skipped_subs, s.degraded ? 1 : 0, s.truncated ? 1 : 0);
  for (const CanonicalTrade& t : report.trades) {
    // %.17g round-trips an IEEE double exactly, so the merged rendering
    // sorts and prints the same bits the shard computed.
    body += StringPrintf("trade %.17g\t%" PRIu64 "\t%s\t%s\n", t.score,
                         t.group_count, EscapeLabel(t.seller).c_str(),
                         EscapeLabel(t.buyer).c_str());
  }
  for (const CanonicalIntra& i : report.intra) {
    body += StringPrintf("intra %u\t%u\t%s\t", i.seller, i.buyer,
                         EscapeLabel(i.syndicate).c_str());
    for (size_t k = 0; k < i.chain.size(); ++k) {
      if (k > 0) body += ',';
      body += StringPrintf("%u", i.chain[k]);
    }
    body += '\n';
  }
  body += StringPrintf("crc %08x\n", Crc32c(body.data(), body.size()));
  return body;
}

Result<CanonicalReport> ParseShardResult(const std::string& contents,
                                         const std::string& path,
                                         uint32_t expect_shard) {
  auto corrupt = [&](const std::string& what) {
    return Status::Corruption(path + ": " + what);
  };
  if (contents.empty() || contents.back() != '\n') {
    return corrupt("missing trailing newline (truncated?)");
  }
  const size_t crc_line_start =
      contents.find_last_of('\n', contents.size() - 2);
  const size_t body_size =
      crc_line_start == std::string::npos ? 0 : crc_line_start + 1;
  const std::string crc_line =
      contents.substr(body_size, contents.size() - body_size - 1);
  uint32_t stored_crc = 0;
  if (crc_line.size() != 12 || crc_line.rfind("crc ", 0) != 0 ||
      std::sscanf(crc_line.c_str(), "crc %8x", &stored_crc) != 1) {
    return corrupt("missing crc trailer");
  }
  if (Crc32c(contents.data(), body_size) != stored_crc) {
    return corrupt("crc mismatch");
  }

  std::istringstream lines(contents.substr(0, body_size));
  std::string line;
  if (!std::getline(lines, line) || line != kResultMagic) {
    return corrupt("bad magic line: " + line);
  }
  uint32_t shard = 0;
  if (!std::getline(lines, line) ||
      std::sscanf(line.c_str(), "shard %u", &shard) != 1 ||
      shard != expect_shard) {
    return corrupt("bad shard line: " + line);
  }
  CanonicalReport report;
  if (!std::getline(lines, line)) return corrupt("missing counts line");
  {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag != "counts") return corrupt("bad counts line: " + line);
    static constexpr const char* kKeys[] = {
        "subtpiins", "trails",     "complex",      "simple",
        "circle",    "intra",      "suspicious",   "trading_arcs",
        "skipped",   "degraded",   "truncated"};
    uint64_t values[std::size(kKeys)] = {};
    std::string token;
    for (size_t k = 0; k < std::size(kKeys); ++k) {
      if (!(fields >> token)) return corrupt("truncated counts: " + line);
      TPIIN_ASSIGN_OR_RETURN(values[k],
                             ParseCountToken(token, kKeys[k], path));
    }
    if (fields >> token) return corrupt("trailing counts: " + line);
    if (values[9] > 1 || values[10] > 1) {
      return corrupt("bad flag in counts: " + line);
    }
    report.summary = CanonicalSummary{
        values[0], values[1], values[2], values[3],  values[4], values[5],
        values[6], values[7], values[8], values[9] == 1, values[10] == 1};
  }

  bool in_intra = false;
  while (std::getline(lines, line)) {
    if (line.rfind("trade ", 0) == 0) {
      if (in_intra) return corrupt("trade line after intra lines");
      std::vector<std::string> fields = SplitTabs(line.substr(6));
      if (fields.size() != 4) return corrupt("bad trade line: " + line);
      CanonicalTrade trade;
      char* end = nullptr;
      trade.score = std::strtod(fields[0].c_str(), &end);
      if (end == nullptr || *end != '\0' || fields[0].empty()) {
        return corrupt("bad score: " + fields[0]);
      }
      TPIIN_ASSIGN_OR_RETURN(trade.group_count,
                             ParseU64Field(fields[1], path));
      TPIIN_ASSIGN_OR_RETURN(trade.seller, UnescapeLabel(fields[2], path));
      TPIIN_ASSIGN_OR_RETURN(trade.buyer, UnescapeLabel(fields[3], path));
      report.trades.push_back(std::move(trade));
    } else if (line.rfind("intra ", 0) == 0) {
      in_intra = true;
      std::vector<std::string> fields = SplitTabs(line.substr(6));
      if (fields.size() != 4) return corrupt("bad intra line: " + line);
      CanonicalIntra intra;
      TPIIN_ASSIGN_OR_RETURN(uint64_t seller,
                             ParseU64Field(fields[0], path));
      TPIIN_ASSIGN_OR_RETURN(uint64_t buyer, ParseU64Field(fields[1], path));
      intra.seller = static_cast<uint32_t>(seller);
      intra.buyer = static_cast<uint32_t>(buyer);
      TPIIN_ASSIGN_OR_RETURN(intra.syndicate,
                             UnescapeLabel(fields[2], path));
      size_t start = 0;
      const std::string& chain = fields[3];
      while (start < chain.size()) {
        size_t comma = chain.find(',', start);
        if (comma == std::string::npos) comma = chain.size();
        TPIIN_ASSIGN_OR_RETURN(
            uint64_t id,
            ParseU64Field(chain.substr(start, comma - start), path));
        intra.chain.push_back(static_cast<uint32_t>(id));
        start = comma + 1;
      }
      report.intra.push_back(std::move(intra));
    } else {
      return corrupt("unrecognized line: " + line);
    }
  }
  if (report.intra.size() != report.summary.intra) {
    return corrupt("intra line count disagrees with the counts line");
  }
  return report;
}

Result<ShardDetectStats> DetectShards(const std::string& dir,
                                      const ShardDetectOptions& options,
                                      RunReport* report) {
  WallTimer timer;
  TPIIN_ASSIGN_OR_RETURN(ShardManifest manifest,
                         ReadShardManifest(dir + "/" + kShardManifestName));
  std::vector<uint32_t> live;
  for (const ShardEntry& entry : manifest.shards) {
    if (!entry.empty) live.push_back(entry.shard);
  }
  const uint32_t shard_parallel = std::max<uint32_t>(
      1, std::min<uint32_t>(options.shard_parallel,
                            static_cast<uint32_t>(live.size())));
  // One level of parallelism at a time: either across shards or inside
  // one shard's detection, never both.
  const uint32_t threads = ResolveThreadCount(options.num_threads);
  if (report != nullptr) report->set_threads(threads);
  const uint32_t inner_threads = shard_parallel > 1 ? 1 : threads;

  struct Outcome {
    uint64_t groups = 0;
    bool degraded = false;
    bool truncated = false;
  };
  std::vector<Outcome> outcomes(live.size());

  Status status = ThreadPool::Global().ParallelForChecked(
      live.size(), shard_parallel, [&](size_t i) -> Status {
        TPIIN_FAILPOINT("shard.detect");
        const uint32_t s = live[i];
        const std::string snapshot_path =
            dir + "/" + ExpandShardPath(manifest.path_template, s);
        TPIIN_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotView> view,
                               SnapshotView::Open(snapshot_path));
        TPIIN_ASSIGN_OR_RETURN(std::vector<uint32_t> gids,
                               ReadShardGids(snapshot_path + ".gids"));
        if (gids.size() != manifest.shards[s].companies) {
          return Status::Corruption(StringPrintf(
              "%s.gids: %zu ids for a shard of %" PRIu64 " companies",
              snapshot_path.c_str(), gids.size(),
              manifest.shards[s].companies));
        }
        DetectorOptions detector;
        detector.num_threads = inner_threads;
        detector.budget = options.budget;
        TPIIN_ASSIGN_OR_RETURN(
            DetectionResult detection,
            DetectSuspiciousGroups(view->net(), detector));
        ScoringResult scoring = ScoreDetection(view->net(), detection);
        CanonicalReport canonical =
            BuildCanonicalReport(view->net(), detection, scoring, &gids);
        outcomes[i] = Outcome{detection.TotalGroups(), detection.degraded,
                              detection.truncated};
        return WriteFileAtomic(ShardResultPath(dir, manifest, s),
                               SerializeShardResult(s, canonical));
      });
  TPIIN_RETURN_IF_ERROR(status);

  ShardDetectStats stats;
  stats.shards_detected = live.size();
  for (const Outcome& o : outcomes) {
    stats.groups += o.groups;
    stats.degraded = stats.degraded || o.degraded;
    stats.truncated = stats.truncated || o.truncated;
  }
  if (report != nullptr) {
    report->AddStage("shard_detect", timer.ElapsedSeconds());
    ReportSection& section = report->Section("shard_detect");
    section.Set("shards", static_cast<int64_t>(stats.shards_detected));
    section.Set("groups", static_cast<int64_t>(stats.groups));
    section.Set("shard_parallel", static_cast<int64_t>(shard_parallel));
    section.Set("degraded", stats.degraded);
  }
  return stats;
}

}  // namespace tpiin
