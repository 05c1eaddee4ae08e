#include "cli/cli.h"

#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/detector.h"
#include "core/explain.h"
#include "core/incremental.h"
#include "core/scoring.h"
#include "datagen/plant.h"
#include "datagen/province.h"
#include "fusion/neighborhood.h"
#include "fusion/pipeline.h"
#include "graph/degree.h"
#include "io/dataset_csv.h"
#include "io/dot_export.h"
#include "io/edge_list.h"
#include "io/gexf_export.h"
#include "io/json_report.h"
#include "io/pattern_file.h"
#include "common/atomic_file.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "shard/build.h"
#include "shard/canonical.h"
#include "shard/detect.h"
#include "shard/merge.h"
#include "snapshot/snapshot.h"

namespace tpiin {

namespace {

Status ParseFlags(FlagParser& flags, const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"tpiin"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

// Consumes every --log-level flag (global: valid before or after the
// command's own flags) and applies the last one.
Status ApplyLogLevelFlag(std::vector<std::string>& args) {
  constexpr const char* kPrefix = "--log-level=";
  for (auto it = args.begin(); it != args.end();) {
    std::string value;
    if (it->rfind(kPrefix, 0) == 0) {
      value = it->substr(std::string(kPrefix).size());
      it = args.erase(it);
    } else if (*it == "--log-level") {
      if (std::next(it) == args.end()) {
        return Status::InvalidArgument("--log-level requires a value");
      }
      value = *std::next(it);
      it = args.erase(it, it + 2);
    } else {
      ++it;
      continue;
    }
    if (value == "debug") {
      SetLogLevel(LogLevel::kDebug);
    } else if (value == "info") {
      SetLogLevel(LogLevel::kInfo);
    } else if (value == "warning") {
      SetLogLevel(LogLevel::kWarning);
    } else if (value == "error") {
      SetLogLevel(LogLevel::kError);
    } else {
      return Status::InvalidArgument(
          "unknown --log-level: " + value +
          " (expected debug|info|warning|error)");
    }
  }
  return Status::OK();
}

// The process-wide structured-log sink installed by --log-json. Kept in
// a static so it outlives every TPIIN_LOG statement (the LogBackend
// contract); replaced — uninstall first, then swap — when a later
// in-process RunCli passes the flag again.
std::unique_ptr<JsonLogSink>& LogJsonSinkSlot() {
  static std::unique_ptr<JsonLogSink> sink;
  return sink;
}

// Consumes every --log-json flag (global: valid before or after the
// command's own flags) and installs a JSON log backend writing to the
// last given path ("-" = stderr), upgrading every TPIIN_LOG line in the
// process to one NDJSON event.
Status ApplyLogJsonFlag(std::vector<std::string>& args) {
  constexpr const char* kPrefix = "--log-json=";
  bool seen = false;
  std::string path;
  for (auto it = args.begin(); it != args.end();) {
    if (it->rfind(kPrefix, 0) == 0) {
      path = it->substr(std::string(kPrefix).size());
      seen = true;
      it = args.erase(it);
    } else if (*it == "--log-json") {
      if (std::next(it) == args.end()) {
        return Status::InvalidArgument("--log-json requires a value");
      }
      path = *std::next(it);
      seen = true;
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  if (!seen) return Status::OK();
  std::string error;
  std::unique_ptr<JsonLogSink> sink = JsonLogSink::Open(path, &error);
  if (sink == nullptr) return Status::IOError(error);
  SetLogBackend(nullptr);  // Never leave the backend dangling mid-swap.
  LogJsonSinkSlot() = std::move(sink);
  SetLogBackend(LogJsonSinkSlot().get());
  return Status::OK();
}

// Consumes every --failpoints flag (global, like --log-level) and
// installs the last spec. Only touches the failpoint registry when the
// flag is present, so in-process callers (tests driving RunCli) keep
// whatever configuration they installed themselves.
Status ApplyFailpointsFlag(std::vector<std::string>& args) {
  constexpr const char* kPrefix = "--failpoints=";
  bool seen = false;
  std::string spec;
  for (auto it = args.begin(); it != args.end();) {
    if (it->rfind(kPrefix, 0) == 0) {
      spec = it->substr(std::string(kPrefix).size());
      seen = true;
      it = args.erase(it);
    } else if (*it == "--failpoints") {
      if (std::next(it) == args.end()) {
        return Status::InvalidArgument("--failpoints requires a value");
      }
      spec = *std::next(it);
      seen = true;
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  if (seen) return Failpoints::Configure(spec);
  return Status::OK();
}

// Shared --report / --trace-out handling for the pipeline commands.
// Construct after FlagParser::Parse; Begin() resets the run-wide metrics
// and installs the trace recorder, Finish() writes both artifacts.
class ObsOutputs {
 public:
  explicit ObsOutputs(const FlagParser& flags)
      : report_path_(flags.GetString("report")),
        trace_path_(flags.GetString("trace-out")) {}

  void Begin() {
    if (!report_path_.empty()) MetricsRegistry::Global().Reset();
    if (!trace_path_.empty()) {
      recorder_ = std::make_unique<TraceRecorder>();
      recorder_->Install();
    }
  }

  bool wants_report() const { return !report_path_.empty(); }

  /// Writes the trace and the report (the caller fills `report` first).
  Status Finish(RunReport* report, std::ostream& out) {
    if (recorder_ != nullptr) {
      TraceRecorder::Uninstall();
      if (!recorder_->WriteChromeTrace(trace_path_)) {
        return Status::IOError("cannot write trace to " + trace_path_);
      }
      out << "trace written to " << trace_path_ << "\n";
    }
    if (!report_path_.empty()) {
      report->AttachMetrics(MetricsRegistry::Global().Snapshot());
      if (!report->WriteJson(report_path_)) {
        return Status::IOError("cannot write report to " + report_path_);
      }
      out << "run report written to " << report_path_ << "\n";
    }
    return Status::OK();
  }

 private:
  std::string report_path_;
  std::string trace_path_;
  std::unique_ptr<TraceRecorder> recorder_;
};

// Network input shared by every mining command: --net=FILE parses a
// TPIIN edge list, --snapshot=FILE mmaps a binary snapshot written by
// `tpiin build`. Exactly one must be given. The view (when used) owns
// the mapping, so keep the LoadedNet alive as long as net() is read.
void DefineNetworkFlags(FlagParser& flags) {
  flags.DefineString("net", "", "TPIIN edge-list file");
  flags.DefineString("snapshot", "",
                     "binary TPIIN snapshot (written by `tpiin build`)");
}

struct LoadedNet {
  Tpiin owned;
  std::unique_ptr<SnapshotView> view;
  double open_seconds = 0;
  bool from_snapshot = false;

  const Tpiin& net() const { return view != nullptr ? view->net() : owned; }

  /// Records where the network came from and how long the open took.
  /// `snapshot_open_ms` is the mmap+validate cost the snapshot path pays
  /// instead of the edge-list parse (or the full CSV cold start — see
  /// the `build` report's cold_start_ms for that comparison).
  void AddToReport(RunReport* report) const {
    report->AddStage(from_snapshot ? "snapshot_open" : "load_net",
                     open_seconds);
    ReportSection& section = report->Section("input");
    section.Set("source", from_snapshot ? "snapshot" : "edge_list");
    section.Set(from_snapshot ? "snapshot_open_ms" : "load_net_ms",
                open_seconds * 1e3);
  }
};

Result<LoadedNet> LoadNetwork(const FlagParser& flags,
                              const std::string& command) {
  const std::string& net_path = flags.GetString("net");
  const std::string& snapshot_path = flags.GetString("snapshot");
  if (net_path.empty() == snapshot_path.empty()) {
    return Status::InvalidArgument(
        command + " requires exactly one of --net=FILE or --snapshot=FILE");
  }
  LoadedNet loaded;
  WallTimer timer;
  if (!snapshot_path.empty()) {
    TPIIN_ASSIGN_OR_RETURN(loaded.view, SnapshotView::Open(snapshot_path));
    loaded.from_snapshot = true;
  } else {
    TPIIN_ASSIGN_OR_RETURN(loaded.owned, ReadTpiinEdgeList(net_path));
  }
  loaded.open_seconds = timer.ElapsedSeconds();
  return loaded;
}

// `tpiin build`: run ingest+fusion once (or parse an edge list) and
// persist the fused TPIIN as a binary snapshot, so every later command
// opens it in milliseconds via --snapshot.
Status RunBuild(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags;
  flags.DefineString("data", "", "CSV dataset directory to ingest+fuse");
  flags.DefineString("net", "", "TPIIN edge-list file (alternative input)");
  flags.DefineString("out", "", "snapshot output file");
  flags.DefineInt64("threads", 0, "worker threads (0 = auto-detect)");
  flags.DefineBool("wcc-index", true,
                   "precompute the subTPIIN segmentation index");
  flags.DefineString("report", "", "machine-readable run report (JSON)");
  flags.DefineString("trace-out", "",
                     "Chrome trace_event JSON (chrome://tracing)");
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  const std::string& data_dir = flags.GetString("data");
  const std::string& net_path = flags.GetString("net");
  if (flags.GetString("out").empty() ||
      data_dir.empty() == net_path.empty()) {
    return Status::InvalidArgument(
        "build requires --out=FILE and exactly one of --data=DIR or "
        "--net=FILE");
  }
  ObsOutputs obs(flags);
  obs.Begin();

  RunReport report("build");
  report.set_threads(
      ResolveThreadCount(static_cast<uint32_t>(flags.GetInt64("threads"))));

  // The cold start the snapshot replaces: CSV ingest + fusion (or the
  // edge-list parse).
  WallTimer cold_timer;
  Tpiin net;
  if (!data_dir.empty()) {
    WallTimer timer;
    TPIIN_ASSIGN_OR_RETURN(RawDataset dataset, LoadDatasetCsv(data_dir));
    report.AddStage("load_csv", timer.ElapsedSeconds());
    FusionOptions fusion;
    fusion.num_threads = static_cast<uint32_t>(flags.GetInt64("threads"));
    timer.Restart();
    TPIIN_ASSIGN_OR_RETURN(FusionOutput fused, BuildTpiin(dataset, fusion));
    report.AddStage("fuse", timer.ElapsedSeconds());
    out << fused.stats.ToString() << "\n";
    net = std::move(fused.tpiin);
  } else {
    WallTimer timer;
    TPIIN_ASSIGN_OR_RETURN(net, ReadTpiinEdgeList(net_path));
    report.AddStage("load_net", timer.ElapsedSeconds());
  }
  const double cold_start_s = cold_timer.ElapsedSeconds();

  SnapshotWriteOptions options;
  options.include_wcc_index = flags.GetBool("wcc-index");
  WallTimer write_timer;
  TPIIN_RETURN_IF_ERROR(WriteSnapshot(net, flags.GetString("out"), options));
  report.AddStage("snapshot_write", write_timer.ElapsedSeconds());

  // Re-open what was just written: verifies the round trip end to end
  // and measures the open cost every later --snapshot run will pay.
  WallTimer open_timer;
  TPIIN_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotView> view,
                         SnapshotView::Open(flags.GetString("out")));
  const double open_s = open_timer.ElapsedSeconds();
  report.AddStage("snapshot_open", open_s);

  out << "snapshot written to " << flags.GetString("out") << " ("
      << view->file_size() << " bytes, " << net.NumNodes() << " nodes, "
      << net.NumArcs() << " arcs)\n";
  out << StringPrintf(
      "cold start %.1f ms -> snapshot open %.2f ms (%.0fx)\n",
      cold_start_s * 1e3, open_s * 1e3,
      open_s > 0 ? cold_start_s / open_s : 0.0);

  ReportSection& section = report.Section("snapshot");
  section.Set("path", flags.GetString("out"));
  section.Set("bytes", view->file_size());
  section.Set("cold_start_ms", cold_start_s * 1e3);
  section.Set("snapshot_open_ms", open_s * 1e3);
  section.Set("speedup",
              open_s > 0 ? cold_start_s / open_s : 0.0);
  section.Set("wcc_index", options.include_wcc_index);
  return obs.Finish(&report, out);
}

// `tpiin snapshot info FILE`: header + section directory without
// mapping the graph sections; exit 1 on any structural or checksum
// problem so scripts can use it as a validator.
Status RunSnapshotCmd(const std::vector<std::string>& args,
                      std::ostream& out) {
  FlagParser flags;
  flags.DefineBool("verify", true, "stream sections to check CRCs");
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (flags.positional().size() != 2 || flags.positional()[0] != "info") {
    return Status::InvalidArgument(
        "usage: tpiin snapshot info FILE [--verify=false]");
  }
  const std::string& path = flags.positional()[1];
  TPIIN_ASSIGN_OR_RETURN(SnapshotInfo info,
                         ReadSnapshotInfo(path, flags.GetBool("verify")));
  out << FormatSnapshotInfo(info);
  for (const SnapshotSectionInfo& section : info.sections) {
    if (section.crc_checked && !section.crc_ok) {
      return Status::Corruption(path + ": section " + section.name +
                                " checksum mismatch");
    }
  }
  return Status::OK();
}

Status RunGen(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags;
  flags.DefineString("out", "", "output directory for the CSV dataset");
  flags.DefineInt64("companies", 400, "number of companies");
  flags.DefineDouble("p", 0.01, "trading probability");
  flags.DefineInt64("seed", 20170402, "RNG seed");
  flags.DefineInt64("plant", 0, "planted IAT relationships");
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (flags.GetString("out").empty()) {
    return Status::InvalidArgument("gen requires --out=DIR");
  }

  ProvinceConfig config = SmallProvinceConfig(
      static_cast<uint32_t>(flags.GetInt64("companies")),
      static_cast<uint64_t>(flags.GetInt64("seed")));
  config.trading_probability = flags.GetDouble("p");
  TPIIN_ASSIGN_OR_RETURN(Province province, GenerateProvince(config));
  if (flags.GetInt64("plant") > 0) {
    Rng rng(config.seed + 17);
    std::vector<PlantedScheme> planted = PlantSuspiciousTrades(
        province.dataset, rng,
        static_cast<size_t>(flags.GetInt64("plant")));
    out << "planted " << planted.size() << " IAT relationships\n";
  }
  std::error_code ec;
  std::filesystem::create_directories(flags.GetString("out"), ec);
  TPIIN_RETURN_IF_ERROR(
      SaveDatasetCsv(flags.GetString("out"), province.dataset));
  out << "dataset: " << province.dataset.Stats().ToString() << "\n";
  out << "written to " << flags.GetString("out") << "\n";
  return Status::OK();
}

Status RunFuse(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags;
  flags.DefineString("data", "", "CSV dataset directory");
  flags.DefineString("out", "", "edge-list output file");
  flags.DefineInt64("threads", 0, "worker threads (0 = auto-detect)");
  flags.DefineString("report", "", "machine-readable run report (JSON)");
  flags.DefineString("trace-out", "",
                     "Chrome trace_event JSON (chrome://tracing)");
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (flags.GetString("data").empty() || flags.GetString("out").empty()) {
    return Status::InvalidArgument("fuse requires --data=DIR --out=FILE");
  }
  ObsOutputs obs(flags);
  obs.Begin();
  TPIIN_ASSIGN_OR_RETURN(RawDataset dataset,
                         LoadDatasetCsv(flags.GetString("data")));
  FusionOptions fusion;
  fusion.num_threads = static_cast<uint32_t>(flags.GetInt64("threads"));
  TPIIN_ASSIGN_OR_RETURN(FusionOutput fused, BuildTpiin(dataset, fusion));
  TPIIN_RETURN_IF_ERROR(
      WriteTpiinEdgeList(flags.GetString("out"), fused.tpiin));
  out << fused.stats.ToString() << "\n";
  out << "TPIIN written to " << flags.GetString("out") << "\n";

  RunReport report("fuse");
  report.set_threads(
      ResolveThreadCount(static_cast<uint32_t>(flags.GetInt64("threads"))));
  AddFusionToReport(fused, &report);
  return obs.Finish(&report, out);
}

// The RunBudget knobs shared by `detect` and `shard detect`.
void DefineBudgetFlags(FlagParser& flags) {
  flags.DefineInt64("deadline-ms", 0,
                    "wall-clock budget for the run (0 = unlimited)");
  flags.DefineInt64("sub-slice-ms", 0,
                    "per-subTPIIN pattern-walk budget (0 = unlimited)");
  flags.DefineInt64("max-sub-nodes", 0,
                    "skip subTPIINs with more nodes (0 = unlimited)");
  flags.DefineInt64("max-sub-arcs", 0,
                    "skip subTPIINs with more arcs (0 = unlimited)");
}

RunBudget BudgetFromFlags(const FlagParser& flags) {
  RunBudget budget;
  budget.deadline_seconds = flags.GetInt64("deadline-ms") / 1e3;
  budget.sub_slice_seconds = flags.GetInt64("sub-slice-ms") / 1e3;
  budget.max_sub_nodes = static_cast<size_t>(
      std::max<int64_t>(0, flags.GetInt64("max-sub-nodes")));
  budget.max_sub_arcs = static_cast<size_t>(
      std::max<int64_t>(0, flags.GetInt64("max-sub-arcs")));
  return budget;
}

Status RunDetect(const std::vector<std::string>& args, std::ostream& out,
                 int* exit_code) {
  FlagParser flags;
  DefineNetworkFlags(flags);
  flags.DefineString("out", "", "optional output directory for reports");
  flags.DefineInt64("threads", 0, "worker threads (0 = auto-detect)");
  flags.DefineInt64("top", 10, "ranked trades to print");
  flags.DefineString("json", "", "optional JSON report file");
  flags.DefineString("report", "", "machine-readable run report (JSON)");
  flags.DefineString("trace-out", "",
                     "Chrome trace_event JSON (chrome://tracing)");
  DefineBudgetFlags(flags);
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  ObsOutputs obs(flags);
  obs.Begin();
  TPIIN_ASSIGN_OR_RETURN(LoadedNet loaded, LoadNetwork(flags, "detect"));
  const Tpiin& net = loaded.net();
  DetectorOptions options;
  options.num_threads = static_cast<uint32_t>(flags.GetInt64("threads"));
  options.budget = BudgetFromFlags(flags);
  TPIIN_ASSIGN_OR_RETURN(DetectionResult detection,
                         DetectSuspiciousGroups(net, options));
  out << detection.Summary() << "\n";
  if (detection.degraded) {
    out << "WARNING: results are partial — " << detection.num_skipped_subs
        << " subTPIIN(s) skipped by the run budget (exit code 2)\n";
    if (exit_code != nullptr) *exit_code = 2;
  }

  ScoringResult scoring = ScoreDetection(net, detection);
  size_t top = std::min<size_t>(
      scoring.ranked_trades.size(),
      static_cast<size_t>(std::max<int64_t>(0, flags.GetInt64("top"))));
  if (top > 0) {
    out << "\ntop " << top << " suspicious trading relationships:\n";
    for (size_t i = 0; i < top; ++i) {
      const ScoredTrade& trade = scoring.ranked_trades[i];
      out << "  " << StringPrintf("%.4f", trade.score) << "  "
          << net.Label(trade.seller) << " -> " << net.Label(trade.buyer)
          << "  (" << trade.group_count << " proof chains)\n";
    }
  }

  if (!flags.GetString("json").empty()) {
    TPIIN_RETURN_IF_ERROR(WriteStringToFile(
        flags.GetString("json"),
        DetectionToJson(net, detection, &scoring)));
    out << "JSON report written to " << flags.GetString("json") << "\n";
  }

  const std::string& out_dir = flags.GetString("out");
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    TPIIN_RETURN_IF_ERROR(WriteSuspiciousGroupsFile(
        out_dir + "/susGroup.txt", net, detection.groups));
    TPIIN_RETURN_IF_ERROR(WriteSuspiciousTradesFile(
        out_dir + "/susTrade.txt", net, detection.suspicious_trades));
    TPIIN_RETURN_IF_ERROR(
        WriteDetectionReport(out_dir + "/report.txt", net, detection));
    // The canonical ranked report: `tpiin shard merge` reproduces this
    // file byte for byte from a sharded run over the same dataset.
    TPIIN_RETURN_IF_ERROR(WriteFileAtomic(
        out_dir + "/ranked.txt",
        RenderCanonicalReport(
            BuildCanonicalReport(net, detection, scoring))));
    out << "\nreports written to " << out_dir << "\n";
  }

  RunReport report("detect");
  report.set_threads(
      ResolveThreadCount(static_cast<uint32_t>(flags.GetInt64("threads"))));
  loaded.AddToReport(&report);
  AddDetectionToReport(
      detection,
      static_cast<size_t>(std::max<int64_t>(0, flags.GetInt64("top"))),
      &report);
  return obs.Finish(&report, out);
}

Status RunExplain(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags;
  DefineNetworkFlags(flags);
  flags.DefineString("company", "", "company node label to analyze");
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (flags.GetString("company").empty()) {
    return Status::InvalidArgument("explain requires --company=LABEL");
  }
  TPIIN_ASSIGN_OR_RETURN(LoadedNet loaded, LoadNetwork(flags, "explain"));
  const Tpiin& net = loaded.net();
  NodeId company = kInvalidNode;
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    if (net.Label(v) == flags.GetString("company")) {
      company = v;
      break;
    }
  }
  if (company == kInvalidNode) {
    return Status::NotFound("no node labeled " +
                            flags.GetString("company"));
  }
  if (net.node(company).color != NodeColor::kCompany) {
    return Status::InvalidArgument(flags.GetString("company") +
                                   " is a Person node");
  }
  TPIIN_ASSIGN_OR_RETURN(DetectionResult detection,
                         DetectSuspiciousGroups(net));
  ScoringResult scoring = ScoreDetection(net, detection);
  CompanyDossier dossier =
      BuildCompanyDossier(net, detection, scoring, company);
  out << FormatCompanyDossier(net, dossier);
  return Status::OK();
}

Status RunScreen(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags;
  DefineNetworkFlags(flags);
  flags.DefineString("seller", "", "seller company label");
  flags.DefineString("buyer", "", "buyer company label");
  flags.DefineString("pairs", "",
                     "CSV of candidate relationships (seller,buyer labels)");
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  bool single = !flags.GetString("seller").empty() &&
                !flags.GetString("buyer").empty();
  if (!single && flags.GetString("pairs").empty()) {
    return Status::InvalidArgument(
        "screen requires either --seller/--buyer labels or --pairs=CSV");
  }
  TPIIN_ASSIGN_OR_RETURN(LoadedNet loaded, LoadNetwork(flags, "screen"));
  const Tpiin& net = loaded.net();

  std::unordered_map<std::string, NodeId> by_label;
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    by_label.emplace(net.Label(v), v);
  }
  auto lookup = [&](const std::string& label) -> Result<NodeId> {
    auto it = by_label.find(label);
    if (it == by_label.end()) {
      return Status::NotFound("no node labeled " + label);
    }
    if (net.node(it->second).color != NodeColor::kCompany) {
      return Status::InvalidArgument(label + " is a Person node");
    }
    return it->second;
  };

  std::vector<std::pair<NodeId, NodeId>> candidates;
  if (single) {
    TPIIN_ASSIGN_OR_RETURN(NodeId seller,
                           lookup(flags.GetString("seller")));
    TPIIN_ASSIGN_OR_RETURN(NodeId buyer, lookup(flags.GetString("buyer")));
    candidates.emplace_back(seller, buyer);
  } else {
    TPIIN_ASSIGN_OR_RETURN(auto rows,
                           ReadCsvFile(flags.GetString("pairs"), {}));
    for (const auto& row : rows) {
      if (row.size() != 2) {
        return Status::Corruption("pairs CSV must have two columns");
      }
      TPIIN_ASSIGN_OR_RETURN(NodeId seller, lookup(row[0]));
      TPIIN_ASSIGN_OR_RETURN(NodeId buyer, lookup(row[1]));
      candidates.emplace_back(seller, buyer);
    }
  }

  // The network came from an edge-list file, so acyclicity of the
  // antecedent layer is not guaranteed — use the checked factory.
  TPIIN_ASSIGN_OR_RETURN(IncrementalScreener screener,
                         IncrementalScreener::Create(net));
  size_t flagged = 0;
  for (const auto& [seller, buyer] : candidates) {
    std::optional<NodeId> witness =
        screener.CommonAntecedent(seller, buyer);
    if (witness.has_value()) {
      ++flagged;
      out << "SUSPICIOUS  " << net.Label(seller) << " -> "
          << net.Label(buyer) << "  (common antecedent "
          << net.Label(*witness) << ")\n";
    } else {
      out << "clear       " << net.Label(seller) << " -> "
          << net.Label(buyer) << "\n";
    }
  }
  out << flagged << " of " << candidates.size()
      << " relationship(s) suspicious\n";
  return Status::OK();
}

Status RunStats(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags;
  DefineNetworkFlags(flags);
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  TPIIN_ASSIGN_OR_RETURN(LoadedNet loaded, LoadNetwork(flags, "stats"));
  const Tpiin& net = loaded.net();
  size_t persons = 0;
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    persons += net.node(v).color == NodeColor::kPerson;
  }
  out << "nodes: " << net.NumNodes() << " (" << persons << " person, "
      << (net.NumNodes() - persons) << " company)\n";
  DegreeStats antecedent =
      ComputeDegreeStats(net.frozen(), FrozenArcClass::kInfluence);
  DegreeStats trading =
      ComputeDegreeStats(net.frozen(), FrozenArcClass::kTrading);
  out << StringPrintf(
      "antecedent: %u arcs, avg degree %.3f, max out %u\n",
      antecedent.num_arcs, antecedent.average_degree,
      antecedent.max_out_degree);
  out << StringPrintf("trading:    %u arcs, avg degree %.3f, max out %u\n",
                      trading.num_arcs, trading.average_degree,
                      trading.max_out_degree);
  return Status::OK();
}

Status RunExport(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags;
  DefineNetworkFlags(flags);
  flags.DefineString("format", "dot", "dot or gexf");
  flags.DefineString("out", "", "output file");
  flags.DefineString("ego", "",
                     "restrict to the neighborhood of this node label");
  flags.DefineInt64("depth", 2, "ego neighborhood depth");
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (flags.GetString("out").empty()) {
    return Status::InvalidArgument("export requires --out=FILE");
  }
  TPIIN_ASSIGN_OR_RETURN(LoadedNet loaded, LoadNetwork(flags, "export"));
  const Tpiin* net = &loaded.net();
  Tpiin ego_net;
  if (!flags.GetString("ego").empty()) {
    NodeId center = kInvalidNode;
    for (NodeId v = 0; v < net->NumNodes(); ++v) {
      if (net->Label(v) == flags.GetString("ego")) {
        center = v;
        break;
      }
    }
    if (center == kInvalidNode) {
      return Status::NotFound("no node labeled " + flags.GetString("ego"));
    }
    EgoOptions ego_options;
    ego_options.depth =
        static_cast<uint32_t>(std::max<int64_t>(0, flags.GetInt64("depth")));
    ego_options.follow_trading = true;
    TPIIN_ASSIGN_OR_RETURN(ego_net,
                           ExtractEgoNetwork(*net, center, ego_options));
    net = &ego_net;
    out << "ego network of " << flags.GetString("ego") << ": "
        << net->NumNodes() << " nodes, " << net->NumArcs() << " arcs\n";
  }
  std::string rendered;
  if (flags.GetString("format") == "dot") {
    rendered = TpiinToDot(*net, "TPIIN");
  } else if (flags.GetString("format") == "gexf") {
    rendered = TpiinToGexf(*net);
  } else {
    return Status::InvalidArgument("unknown --format: " +
                                   flags.GetString("format"));
  }
  TPIIN_RETURN_IF_ERROR(
      WriteStringToFile(flags.GetString("out"), rendered));
  out << "exported " << flags.GetString("format") << " to "
      << flags.GetString("out") << "\n";
  return Status::OK();
}

// `tpiin shard build`: out-of-core sharded build — plan, route, fuse one
// shard at a time, so peak RSS is O(entities + largest shard).
Status RunShardBuild(const std::vector<std::string>& args,
                     std::ostream& out) {
  FlagParser flags;
  flags.DefineString("data", "", "CSV dataset directory to shard");
  flags.DefineString("out", "", "output directory for the sharded build");
  flags.DefineInt64("shards", 4, "number of shards");
  flags.DefineInt64("threads", 1,
                    "threads inside each per-shard fusion (0 = auto-detect)");
  flags.DefineInt64("spill-buffer-kb", 1024,
                    "per-(shard, table) routing buffer");
  flags.DefineBool("keep-spill", false,
                   "keep the routed per-shard CSV spill directories");
  flags.DefineBool("wcc-index", true,
                   "precompute each shard's segmentation index");
  flags.DefineString("report", "", "machine-readable run report (JSON)");
  flags.DefineString("trace-out", "",
                     "Chrome trace_event JSON (chrome://tracing)");
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (flags.GetString("data").empty() || flags.GetString("out").empty()) {
    return Status::InvalidArgument(
        "shard build requires --data=DIR --out=DIR");
  }
  if (flags.GetInt64("shards") < 1) {
    return Status::InvalidArgument("--shards must be positive");
  }
  ObsOutputs obs(flags);
  obs.Begin();
  RunReport report("shard_build");
  ShardBuildOptions options;
  options.num_shards = static_cast<uint32_t>(flags.GetInt64("shards"));
  options.num_threads =
      static_cast<uint32_t>(std::max<int64_t>(0, flags.GetInt64("threads")));
  options.spill_buffer_bytes = static_cast<size_t>(
      std::max<int64_t>(4, flags.GetInt64("spill-buffer-kb")) * 1024);
  options.keep_spill = flags.GetBool("keep-spill");
  options.include_wcc_index = flags.GetBool("wcc-index");
  TPIIN_ASSIGN_OR_RETURN(
      ShardManifest manifest,
      BuildShards(flags.GetString("data"), flags.GetString("out"), options,
                  &report));
  size_t live = 0;
  uint64_t bytes = 0;
  for (const ShardEntry& entry : manifest.shards) {
    if (entry.empty) continue;
    ++live;
    bytes += entry.snapshot_bytes;
  }
  out << "sharded build written to " << flags.GetString("out") << ": "
      << live << " of " << manifest.num_shards << " shards populated, "
      << manifest.num_persons << " persons, " << manifest.num_companies
      << " companies, " << bytes << " snapshot bytes\n";
  out << "cross-shard trades: " << manifest.cross_trade_rows << " rows, "
      << manifest.cross_trade_pairs << " distinct pairs\n";
  return obs.Finish(&report, out);
}

// `tpiin shard detect`: per-shard Algorithm 1 + scoring, one result
// file per shard (budget degradation maps to exit code 2, like detect).
Status RunShardDetect(const std::vector<std::string>& args,
                      std::ostream& out, int* exit_code) {
  FlagParser flags;
  flags.DefineString("dir", "", "sharded build directory");
  flags.DefineInt64("threads", 1,
                    "threads inside one shard's detection (0 = auto-detect)");
  flags.DefineInt64("shard-parallel", 1, "shards detected concurrently");
  flags.DefineString("report", "", "machine-readable run report (JSON)");
  flags.DefineString("trace-out", "",
                     "Chrome trace_event JSON (chrome://tracing)");
  DefineBudgetFlags(flags);
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (flags.GetString("dir").empty()) {
    return Status::InvalidArgument("shard detect requires --dir=DIR");
  }
  ObsOutputs obs(flags);
  obs.Begin();
  RunReport report("shard_detect");
  ShardDetectOptions options;
  options.num_threads =
      static_cast<uint32_t>(std::max<int64_t>(0, flags.GetInt64("threads")));
  options.shard_parallel = static_cast<uint32_t>(
      std::max<int64_t>(1, flags.GetInt64("shard-parallel")));
  options.budget = BudgetFromFlags(flags);
  TPIIN_ASSIGN_OR_RETURN(
      ShardDetectStats stats,
      DetectShards(flags.GetString("dir"), options, &report));
  out << "detected " << stats.shards_detected << " shard(s): "
      << stats.groups << " suspicious groups\n";
  if (stats.degraded) {
    out << "WARNING: results are partial — at least one shard hit its run "
           "budget (exit code 2)\n";
    if (exit_code != nullptr) *exit_code = 2;
  }
  return obs.Finish(&report, out);
}

// `tpiin shard merge`: fold per-shard results into the globally ranked
// report (byte-identical to `detect --out`'s ranked.txt).
Status RunShardMerge(const std::vector<std::string>& args,
                     std::ostream& out, int* exit_code) {
  FlagParser flags;
  flags.DefineString("dir", "", "sharded build directory");
  flags.DefineString("out", "", "merged ranked report file");
  flags.DefineString("report", "", "machine-readable run report (JSON)");
  flags.DefineString("trace-out", "",
                     "Chrome trace_event JSON (chrome://tracing)");
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (flags.GetString("dir").empty() || flags.GetString("out").empty()) {
    return Status::InvalidArgument(
        "shard merge requires --dir=DIR --out=FILE");
  }
  ObsOutputs obs(flags);
  obs.Begin();
  RunReport report("shard_merge");
  TPIIN_ASSIGN_OR_RETURN(
      ShardMergeStats stats,
      MergeShards(flags.GetString("dir"), flags.GetString("out"), &report));
  const CanonicalSummary& s = stats.summary;
  out << "merged " << stats.shards_merged << " shard(s) into "
      << flags.GetString("out") << ": " << s.suspicious_trades + s.intra
      << " suspicious of " << s.total_trading_arcs + s.intra
      << " trading relationships\n";
  if (s.degraded) {
    out << "WARNING: merged results are partial — a shard ran under a "
           "binding budget (exit code 2)\n";
    if (exit_code != nullptr) *exit_code = 2;
  }
  return obs.Finish(&report, out);
}

// Signal wiring for `tpiin serve`: SIGINT/SIGTERM kick the running
// server's wake pipe (async-signal-safe) so it drains and exits
// cleanly. SIGHUP does two things, both async-signal-safe: every live
// JSON log sink reopens its file (the logrotate idiom: rename, signal,
// keep writing) and the server revalidates + hot-reloads its snapshot
// path (a no-op when the file's content is unchanged, so a pure
// logrotate SIGHUP does not churn generations). Handlers are restored
// on return, so an in-process caller (tests driving RunCli) gets its
// dispositions back — and the sinks outlive the handler window.
void ServeSignalHandler(int) { Server::RequestShutdownFromSignal(); }
void ServeHupHandler(int) {
  JsonLogSink::RequestReopenAll();
  Server::RequestReloadFromSignal();
}

class ScopedServeSignals {
 public:
  ScopedServeSignals() {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = ServeSignalHandler;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, &old_int_);
    sigaction(SIGTERM, &action, &old_term_);
    action.sa_handler = ServeHupHandler;
    sigaction(SIGHUP, &action, &old_hup_);
  }
  ~ScopedServeSignals() {
    sigaction(SIGINT, &old_int_, nullptr);
    sigaction(SIGTERM, &old_term_, nullptr);
    sigaction(SIGHUP, &old_hup_, nullptr);
  }

 private:
  struct sigaction old_int_;
  struct sigaction old_term_;
  struct sigaction old_hup_;
};

// `tpiin serve`: open a snapshot once, answer newline-delimited JSON
// queries over TCP until SIGINT/SIGTERM, then drain and exit (0 clean,
// 2 when any response was budget-degraded).
Status RunServe(const std::vector<std::string>& args, std::ostream& out,
                int* exit_code) {
  FlagParser flags;
  flags.DefineString("snapshot", "",
                     "binary TPIIN snapshot (written by `tpiin build`)");
  flags.DefineString("host", "127.0.0.1",
                     "IPv4 address to bind (loopback by default)");
  flags.DefineInt64("port", 0, "TCP port (0 = ephemeral; see --port-file)");
  flags.DefineString("port-file", "",
                     "write the bound port here (scripts using --port=0)");
  flags.DefineInt64("threads", 0,
                    "detector threads per request (0 = auto-detect)");
  flags.DefineInt64("max-inflight", 4,
                    "requests executing concurrently; beyond this they "
                    "queue");
  flags.DefineInt64("max-queue", 16,
                    "queued connections beyond max-inflight; further "
                    "connects are answered busy");
  flags.DefineInt64("cache-entries", 256,
                    "per-subTPIIN rescore result cache capacity (0 = off)");
  flags.DefineInt64("bundle-cache-entries", 4,
                    "full detection+scoring bundle cache capacity (0 = "
                    "off)");
  flags.DefineInt64("idle-timeout-ms", 30000,
                    "close a connection idle this long");
  flags.DefineInt64("line-deadline-ms", 10000,
                    "a started request line must complete within this "
                    "(slow-loris guard; 0 = off)");
  flags.DefineInt64("write-deadline-ms", 30000,
                    "per-send stall budget before a non-draining client "
                    "is dropped (0 = off)");
  flags.DefineInt64("request-deadline-ms", 0,
                    "hard per-request wall-clock ceiling; a truncated "
                    "request answers degraded (0 = off)");
  flags.DefineInt64("drain-ms", 10000,
                    "graceful-drain budget for in-flight requests at "
                    "shutdown");
  flags.DefineBool("verify", true, "verify snapshot checksums at open");
  flags.DefineString("report", "",
                     "write the final stats report (JSON) at shutdown");
  flags.DefineString("access-log", "",
                     "NDJSON access log, one event per request "
                     "('-' = stderr; SIGHUP reopens the file)");
  flags.DefineString("trace-out", "",
                     "write a Chrome trace of live traffic at shutdown");
  flags.DefineString("metrics-out", "",
                     "Prometheus text snapshot, rewritten atomically "
                     "every --metrics-interval-ms");
  flags.DefineInt64("metrics-interval-ms", 5000,
                    "period of the --metrics-out snapshot");
  flags.DefineInt64("slow-requests", 8,
                    "slow-request ring capacity (the `slow` verb; 0 = "
                    "off)");
  DefineBudgetFlags(flags);
  TPIIN_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (flags.GetString("snapshot").empty()) {
    return Status::InvalidArgument("serve requires --snapshot=FILE");
  }

  ServeOptions options;
  options.snapshot_path = flags.GetString("snapshot");
  options.host = flags.GetString("host");
  options.port = static_cast<uint16_t>(
      std::max<int64_t>(0, std::min<int64_t>(65535, flags.GetInt64("port"))));
  options.max_inflight = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt64("max-inflight")));
  options.max_queue = static_cast<size_t>(
      std::max<int64_t>(0, flags.GetInt64("max-queue")));
  options.idle_timeout_seconds = flags.GetInt64("idle-timeout-ms") / 1e3;
  options.line_deadline_seconds = flags.GetInt64("line-deadline-ms") / 1e3;
  options.write_deadline_seconds = flags.GetInt64("write-deadline-ms") / 1e3;
  options.service.request_deadline_seconds =
      flags.GetInt64("request-deadline-ms") / 1e3;
  options.drain_seconds = flags.GetInt64("drain-ms") / 1e3;
  options.verify_checksums = flags.GetBool("verify");
  options.service.threads =
      static_cast<uint32_t>(std::max<int64_t>(0, flags.GetInt64("threads")));
  options.service.cache_entries = static_cast<size_t>(
      std::max<int64_t>(0, flags.GetInt64("cache-entries")));
  options.service.bundle_cache_entries = static_cast<size_t>(
      std::max<int64_t>(0, flags.GetInt64("bundle-cache-entries")));
  options.service.default_budget = BudgetFromFlags(flags);
  options.access_log_path = flags.GetString("access-log");
  options.trace_out_path = flags.GetString("trace-out");
  options.metrics_out_path = flags.GetString("metrics-out");
  options.metrics_interval_seconds =
      std::max<int64_t>(100, flags.GetInt64("metrics-interval-ms")) / 1e3;
  options.slow_requests = static_cast<size_t>(
      std::max<int64_t>(0, flags.GetInt64("slow-requests")));

  TPIIN_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                         Server::Start(options));

  // Handlers go in the moment the server is accepting, ahead of the
  // port-file/readiness I/O: a SIGINT/SIGTERM in that window must
  // drain and report, not kill the process on the default disposition.
  ScopedServeSignals signals;

  if (!flags.GetString("port-file").empty()) {
    TPIIN_RETURN_IF_ERROR(
        WriteFileAtomic(flags.GetString("port-file"),
                        StringPrintf("%u\n", server->port())));
  }

  // Readiness line, flushed before blocking: scripts wait for it.
  {
    const std::shared_ptr<const SnapshotGeneration> generation =
        server->CurrentGeneration();
    out << "serving on " << server->host() << ":" << server->port()
        << " (snapshot " << options.snapshot_path << ", crc "
        << StringPrintf("%08x", generation->crc()) << ", "
        << generation->net().NumNodes() << " nodes, "
        << generation->net().NumArcs() << " arcs)\n";
    out.flush();
  }

  const ServeSummary summary = server->Wait();

  if (!flags.GetString("report").empty()) {
    if (!server->BuildStatsReport().WriteJson(flags.GetString("report"))) {
      return Status::IOError("cannot write report to " +
                             flags.GetString("report"));
    }
    out << "run report written to " << flags.GetString("report") << "\n";
  }
  out << "shutdown: " << summary.connections_accepted << " connection(s), "
      << summary.requests << " request(s) — " << summary.ok << " ok, "
      << summary.degraded << " degraded, " << summary.busy << " busy, "
      << summary.errors << " error(s)\n";
  if (summary.degraded > 0) {
    out << "WARNING: some responses were budget-degraded (exit code 2)\n";
  }
  if (exit_code != nullptr) *exit_code = summary.ExitCode();
  return Status::OK();
}

Status RunShardCmd(const std::vector<std::string>& args, std::ostream& out,
                   int* exit_code) {
  if (args.empty()) {
    return Status::InvalidArgument(
        "usage: tpiin shard build|detect|merge [flags]");
  }
  const std::string& sub = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  if (sub == "build") return RunShardBuild(rest, out);
  if (sub == "detect") return RunShardDetect(rest, out, exit_code);
  if (sub == "merge") return RunShardMerge(rest, out, exit_code);
  return Status::InvalidArgument("unknown shard subcommand: " + sub +
                                 " (expected build, detect, or merge)");
}

}  // namespace

std::string CliUsage() {
  return
      "tpiin <command> [flags]\n"
      "\n"
      "Commands:\n"
      "  gen     generate a synthetic province dataset (CSV)\n"
      "          --out=DIR [--companies=N] [--p=X] [--seed=S] [--plant=K]\n"
      "  fuse    fuse a CSV dataset into a TPIIN edge list\n"
      "          --data=DIR --out=FILE [--threads=T] [--report=FILE]\n"
      "          [--trace-out=FILE]\n"
      "  build   fuse once and persist a binary snapshot (mmap-able by\n"
      "          every command below via --snapshot)\n"
      "          (--data=DIR | --net=FILE) --out=FILE [--threads=T]\n"
      "          [--wcc-index=false] [--report=FILE] [--trace-out=FILE]\n"
      "  snapshot info FILE [--verify=false]\n"
      "          print a snapshot's header, section directory and\n"
      "          checksums without mapping the graph sections\n"
      "  detect  mine suspicious tax evasion groups\n"
      "          (--net=FILE | --snapshot=FILE) [--out=DIR] [--threads=T]\n"
      "          [--top=K] [--json=FILE]\n"
      "          [--report=FILE] [--trace-out=FILE]\n"
      "          [--deadline-ms=N] [--sub-slice-ms=N] [--max-sub-nodes=N]\n"
      "          [--max-sub-arcs=N]   (run budget; partial results exit 2)\n"
      "  explain per-company dossier (IATs, antecedents, proof chains)\n"
      "          (--net=FILE | --snapshot=FILE) --company=LABEL\n"
      "  screen  classify candidate trading relationships (streaming)\n"
      "          (--net=FILE | --snapshot=FILE)\n"
      "          (--seller=L --buyer=L | --pairs=CSV)\n"
      "  stats   print layer statistics of a TPIIN\n"
      "          (--net=FILE | --snapshot=FILE)\n"
      "  shard build   out-of-core sharded build: plan, route, fuse one\n"
      "          shard at a time (peak RSS ~ largest shard)\n"
      "          --data=DIR --out=DIR [--shards=N] [--threads=T]\n"
      "          [--spill-buffer-kb=N] [--keep-spill] [--wcc-index=false]\n"
      "          [--report=FILE] [--trace-out=FILE]\n"
      "  shard detect  mine every shard, one result file per shard\n"
      "          --dir=DIR [--threads=T] [--shard-parallel=N]\n"
      "          [--deadline-ms=N ...budget flags] [--report=FILE]\n"
      "  shard merge   fold shard results into one globally ranked\n"
      "          report, byte-identical to an unsharded detect --out\n"
      "          --dir=DIR --out=FILE [--report=FILE]\n"
      "  serve   long-lived query daemon over a loaded snapshot:\n"
      "          newline-delimited JSON over TCP (verbs: groups, explain,\n"
      "          rescore, stats, slow, metrics, healthz, reload);\n"
      "          groups/explain bytes match the batch commands exactly\n"
      "          --snapshot=FILE [--host=ADDR] [--port=N] [--port-file=F]\n"
      "          [--threads=T] [--max-inflight=N] [--max-queue=N]\n"
      "          [--cache-entries=N] [--bundle-cache-entries=N]\n"
      "          [--idle-timeout-ms=N] [--line-deadline-ms=N]\n"
      "          [--write-deadline-ms=N] [--request-deadline-ms=N]\n"
      "          [--drain-ms=N] [--report=FILE]\n"
      "          [--access-log=FILE] [--trace-out=FILE]\n"
      "          [--metrics-out=FILE] [--metrics-interval-ms=N]\n"
      "          [--slow-requests=N] [--deadline-ms=N ...budget flags]\n"
      "          (SIGINT/SIGTERM drain in-flight requests; SIGHUP\n"
      "          reopens log files and hot-reloads the snapshot after\n"
      "          revalidating it — a corrupt replacement is rejected and\n"
      "          the old generation keeps serving; exit 0 clean,\n"
      "          1 startup failure, 2 served degraded results)\n"
      "  export  render a TPIIN (or one company's neighborhood) for\n"
      "          Graphviz/Gephi\n"
      "          (--net=FILE | --snapshot=FILE) --format=dot|gexf "
      "--out=FILE\n"
      "          [--ego=LABEL --depth=N]\n"
      "\n"
      "Global flags:\n"
      "  --log-level=debug|info|warning|error   minimum log severity\n"
      "                                         (default info)\n"
      "  --log-json=FILE     upgrade all log lines to NDJSON events\n"
      "                      appended to FILE ('-' = stderr)\n"
      "  --failpoints=SPEC   inject faults at named sites (testing);\n"
      "                      e.g. 'io.csv.open:ioerror,*:p0.01@42'\n"
      "\n"
      "Exit codes: 0 success, 1 error, 2 completed with partial results\n"
      "(a --deadline-ms/--max-sub-* budget bound).\n";
}

namespace {

Status DispatchCli(const std::vector<std::string>& args, std::ostream& out,
                   int* exit_code) {
  std::vector<std::string> mutable_args = args;
  TPIIN_RETURN_IF_ERROR(ApplyLogLevelFlag(mutable_args));
  TPIIN_RETURN_IF_ERROR(ApplyLogJsonFlag(mutable_args));
  TPIIN_RETURN_IF_ERROR(ApplyFailpointsFlag(mutable_args));
  if (mutable_args.empty() || mutable_args[0] == "help" ||
      mutable_args[0] == "--help") {
    out << CliUsage();
    return Status::OK();
  }
  const std::string& command = mutable_args[0];
  std::vector<std::string> rest(mutable_args.begin() + 1,
                                mutable_args.end());
  if (command == "gen") return RunGen(rest, out);
  if (command == "fuse") return RunFuse(rest, out);
  if (command == "build") return RunBuild(rest, out);
  if (command == "snapshot") return RunSnapshotCmd(rest, out);
  if (command == "detect") return RunDetect(rest, out, exit_code);
  if (command == "shard") return RunShardCmd(rest, out, exit_code);
  if (command == "serve") return RunServe(rest, out, exit_code);
  if (command == "explain") return RunExplain(rest, out);
  if (command == "screen") return RunScreen(rest, out);
  if (command == "stats") return RunStats(rest, out);
  if (command == "export") return RunExport(rest, out);
  return Status::InvalidArgument("unknown command: " + command + "\n" +
                                 CliUsage());
}

}  // namespace

Status RunCli(const std::vector<std::string>& args, std::ostream& out,
              int* exit_code) {
  int code = 0;
  Status status = DispatchCli(args, out, &code);
  if (!status.ok()) code = 1;
  if (exit_code != nullptr) *exit_code = code;
  return status;
}

}  // namespace tpiin
