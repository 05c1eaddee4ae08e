// perfbench_bin: generates seeded inputs and runs the batch and
// sharded workloads through the library's public calls, one JSON line
// per pass on stdout. `load` (loadgen.cc) drives a running `tpiin serve`.
//
//   perfbench_bin gen --kind=batch|sharded --seed=N --out=DIR
//   perfbench_bin batch --data=DIR --work=DIR --seconds=T [--trace=F]
//   perfbench_bin sharded --data=DIR --work=DIR --seconds=T [--trace=F]
//   perfbench_bin snapshot --data=DIR --out=FILE [--trace=F]
//   perfbench_bin load ... (see loadgen.cc)
//
// Every pass starts from the CSV tables and keeps nothing from the one
// before, so work moved into set-up or into a cross-pass cache shows in
// the cold pass (the workload's set-up) instead of hiding in later ones.
// With --trace, each public call is wrapped in a span and passes
// alternate traced and untraced, so the same run also yields the
// tracing overhead.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/atomic_file.h"
#include "common/rng.h"
#include "core/detector.h"
#include "core/scoring.h"
#include "datagen/config.h"
#include "datagen/province.h"
#include "datagen/stream.h"
#include "fusion/pipeline.h"
#include "io/dataset_csv.h"
#include "io/pattern_file.h"
#include "probe.h"
#include "shard/build.h"
#include "shard/canonical.h"
#include "shard/detect.h"
#include "shard/merge.h"
#include "snapshot/snapshot.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tpiin::Result;
using tpiin::Status;

// Workload sizes. batch: the paper's province at trading probability
// 0.02 (about 120k trades). Its ownership network is the generator's
// default province and the seed draws only the trading layer: at this
// size the seed's business-group structure alone moves detection work by
// about 30%, which would drown a regression in input noise. sharded:
// 100x the paper's population (tiling its groups averages that noise
// out) with the trading probability divided by the factor, so
// per-company trade volume stays constant (about 1.2M trades), split
// into 16 shards.
constexpr double kBatchTradingProbability = 0.02;
constexpr double kShardedFactor = 100;
constexpr uint32_t kShards = 16;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench_bin: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Check(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(*result);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

std::string FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in.good() && !in.eof()) return "unreadable";
  return Hex(Digest(bytes.str()));
}

uint32_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

int CmdGen(const Args& args) {
  const std::string kind = args.Str("kind");
  const auto seed = static_cast<uint64_t>(args.Num("seed", 1));
  const std::string out = args.Str("out");
  fs::create_directories(out);
  tpiin::ProvinceConfig config = tpiin::PaperProvinceConfig(seed);
  if (kind == "batch") {
    config = tpiin::PaperProvinceConfig();
    config.generate_trading = false;
    tpiin::Province province =
        Check(tpiin::GenerateProvince(config), "generate");
    tpiin::Rng rng(seed);
    province.dataset.SetTrades(tpiin::GenerateTradingNetwork(
        config.num_companies, kBatchTradingProbability, rng));
    Check(tpiin::SaveDatasetCsv(out, province.dataset), "save " + out);
    std::printf("{\"companies\": %zu, \"trades\": %zu}\n",
                province.dataset.companies().size(),
                province.dataset.trades().size());
    return 0;
  }
  if (kind == "sharded") {
    config = tpiin::ScaleConfig(config, kShardedFactor);
    config.trading_probability /= kShardedFactor;
  } else {
    std::fprintf(stderr, "gen: --kind must be batch or sharded\n");
    return 2;
  }
  tpiin::StreamStats stats =
      Check(tpiin::StreamProvinceCsv(config, out), "generate " + out);
  std::printf("{\"companies\": %llu, \"trades\": %llu}\n",
              static_cast<unsigned long long>(stats.companies),
              static_cast<unsigned long long>(stats.trades));
  return 0;
}

// One batch pass: CSV tables -> susGroup.txt and ranked.txt in `work`.
// Returns the pass wall time; counts go to `counts` as JSON members.
double BatchPass(const std::string& data, const std::string& work,
                 SpanLog& log, int64_t op, std::string* counts) {
  const int64_t start = NowNs();
  ScopedSpan pass(log, "pass", op, -1);
  tpiin::RawDataset dataset;
  {
    ScopedSpan span(log, "io.load", op, pass.index());
    dataset = Check(tpiin::LoadDatasetCsv(data), "load " + data);
  }
  tpiin::FusionOptions fusion;
  fusion.num_threads = 0;  // All hardware threads.
  tpiin::FusionOutput fused;
  {
    ScopedSpan span(log, "fusion.build", op, pass.index());
    fused = Check(tpiin::BuildTpiin(dataset, fusion), "fuse");
  }
  const tpiin::Tpiin& net = fused.tpiin;
  tpiin::DetectorOptions detect;
  detect.num_threads = 0;
  tpiin::DetectionResult detection;
  {
    ScopedSpan span(log, "core.detect", op, pass.index());
    detection = Check(tpiin::DetectSuspiciousGroups(net, detect), "detect");
  }
  tpiin::ScoringResult scoring;
  {
    ScopedSpan span(log, "core.score", op, pass.index());
    scoring = tpiin::ScoreDetection(net, detection);
  }
  {
    ScopedSpan span(log, "io.groups_write", op, pass.index());
    Check(tpiin::WriteSuspiciousGroupsFile(work + "/susGroup.txt", net,
                                           detection.groups),
          "write susGroup.txt");
  }
  {
    ScopedSpan span(log, "shard.canonical", op, pass.index());
    Check(tpiin::WriteFileAtomic(
              work + "/ranked.txt",
              tpiin::RenderCanonicalReport(
                  tpiin::BuildCanonicalReport(net, detection, scoring))),
          "write ranked.txt");
  }
  const double wall = static_cast<double>(NowNs() - start) / 1e9;

  size_t max_sub_trails = 0;
  std::string subs;
  for (const tpiin::SubTpiinProfile& p : detection.sub_profiles) {
    max_sub_trails = std::max(max_sub_trails, p.num_trails);
    if (!subs.empty()) subs += ",";
    subs += "[" + std::to_string(p.index) + "," +
            std::to_string(p.num_trails) + "," + std::to_string(p.num_arcs) +
            "]";
  }
  const tpiin::DetectionTimings& t = detection.timings;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"arcs\": %u, \"trails\": %zu, \"max_sub_trails\": %zu, "
      "\"groups\": %zu, \"degraded\": %s, \"segment_s\": %.9g, "
      "\"mine_s\": %.9g, \"finalize_s\": %.9g",
      net.NumArcs(), detection.num_trails, max_sub_trails,
      detection.groups.size(), detection.degraded ? "true" : "false",
      t.segment_seconds, t.mine_seconds, t.finalize_seconds);
  *counts = std::string(buf) + ", \"subs\": [" + subs + "]";
  return wall;
}

// One sharded pass: CSV tables -> 16 shard snapshots -> per-shard
// results -> the merged ranked report in `work`/merged.txt.
double ShardedPass(const std::string& data, const std::string& work,
                   SpanLog& log, int64_t op, std::string* counts) {
  const std::string dir = work + "/shards";
  const int64_t start = NowNs();
  ScopedSpan pass(log, "pass", op, -1);
  tpiin::ShardBuildOptions build;
  build.num_shards = kShards;
  build.num_threads = HardwareThreads();
  tpiin::ShardManifest manifest;
  ResetPeakRss();
  {
    ScopedSpan span(log, "shard.build", op, pass.index());
    manifest = Check(tpiin::BuildShards(data, dir, build), "shard build");
  }
  const double build_rss = PeakRssMb();
  tpiin::ShardDetectOptions detect;
  detect.num_threads = HardwareThreads();
  detect.shard_parallel = 1;  // The CLI default.
  ResetPeakRss();
  tpiin::ShardDetectStats dstats;
  {
    ScopedSpan span(log, "shard.detect", op, pass.index());
    dstats = Check(tpiin::DetectShards(dir, detect), "shard detect");
  }
  const double detect_rss = PeakRssMb();
  ResetPeakRss();
  {
    ScopedSpan span(log, "shard.merge", op, pass.index());
    Check(tpiin::MergeShards(dir, work + "/merged.txt"), "shard merge");
  }
  const double merge_rss = PeakRssMb();
  const double wall = static_cast<double>(NowNs() - start) / 1e9;

  uint64_t total_arcs = 0;
  uint64_t max_arcs = 0;
  for (const tpiin::ShardEntry& e : manifest.shards) {
    total_arcs += e.arcs;
    max_arcs = std::max(max_arcs, e.arcs);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"build_rss_mb\": %.6g, \"detect_rss_mb\": %.6g, "
                "\"merge_rss_mb\": %.6g, \"largest_share\": %.9g, "
                "\"cross_trade_rows\": %llu, \"groups\": %llu, "
                "\"degraded\": %s",
                build_rss, detect_rss, merge_rss,
                total_arcs ? static_cast<double>(max_arcs) / total_arcs : 0.0,
                static_cast<unsigned long long>(manifest.cross_trade_rows),
                static_cast<unsigned long long>(dstats.groups),
                dstats.degraded ? "true" : "false");
  *counts = buf;
  return wall;
}

// Runs passes until `seconds` have elapsed after the first (cold) one,
// printing one JSON line per pass with its wall time, peak RSS, counts
// and the digests of its output files. A traced run traces every other
// pass; the untraced ones give the tracing overhead.
int CmdPasses(const Args& args, bool sharded) {
  const std::string data = args.Str("data");
  const std::string work = args.Str("work");
  const double seconds = args.Num("seconds", 0);
  const std::string trace_path = args.Str("trace");
  fs::create_directories(work);
  SpanLog traced(!trace_path.empty());
  SpanLog untraced(false);
  int64_t timed_start = 0;
  for (int64_t op = 0;; ++op) {
    if (op == 1) timed_start = NowNs();
    if (op > 1 && static_cast<double>(NowNs() - timed_start) / 1e9 >= seconds) {
      break;
    }
    const bool trace_this = traced.enabled() && op % 2 == 1;
    SpanLog& log = trace_this ? traced : untraced;
    std::string counts;
    double wall = 0;
    double rss = 0;
    // Hand the previous pass's freed heap back first, so each pass's
    // peak RSS is its own, and write back the previous pass's (or the
    // generator's) files, so no pass competes with another's disk I/O.
    malloc_trim(0);
    sync();
    if (sharded) {
      wall = ShardedPass(data, work, log, op, &counts);
    } else {
      ResetPeakRss();
      wall = BatchPass(data, work, log, op, &counts);
      rss = PeakRssMb();
    }
    // Outside the pass: check the outputs, then drop them so the next
    // pass starts from the tables alone.
    std::string digests;
    if (sharded) {
      digests = "\"merged_digest\": \"" + FileDigest(work + "/merged.txt") + "\"";
      fs::remove_all(work + "/shards");
    } else {
      digests = "\"groups_digest\": \"" + FileDigest(work + "/susGroup.txt") +
                "\", \"ranked_digest\": \"" + FileDigest(work + "/ranked.txt") + "\"";
      fs::remove(work + "/susGroup.txt");
      fs::remove(work + "/ranked.txt");
    }
    std::printf(
        "{\"op\": %lld, \"cold\": %s, \"traced\": %s, \"wall_s\": %.9g, "
        "\"rss_mb\": %.6g, %s, %s}\n",
        static_cast<long long>(op), op == 0 ? "true" : "false",
        trace_this ? "true" : "false", wall, rss, digests.c_str(),
        counts.c_str());
    std::fflush(stdout);
    if (seconds <= 0) break;
  }
  if (traced.enabled() && !traced.Write(trace_path)) {
    std::fprintf(stderr, "perfbench_bin: cannot write %s\n",
                 trace_path.c_str());
    return 1;
  }
  return 0;
}

// The unsharded reference for the sharded workload: the canonical
// ranked report of the same tables through the in-memory pipeline,
// computed once and outside all timing.
int CmdReference(const Args& args) {
  const std::string data = args.Str("data");
  tpiin::RawDataset dataset = Check(tpiin::LoadDatasetCsv(data), "load");
  tpiin::FusionOptions fusion;
  fusion.num_threads = 0;
  tpiin::FusionOutput fused = Check(tpiin::BuildTpiin(dataset, fusion), "fuse");
  tpiin::DetectorOptions detect;
  detect.num_threads = 0;
  tpiin::DetectionResult detection =
      Check(tpiin::DetectSuspiciousGroups(fused.tpiin, detect), "detect");
  tpiin::ScoringResult scoring = tpiin::ScoreDetection(fused.tpiin, detection);
  const std::string ranked = tpiin::RenderCanonicalReport(
      tpiin::BuildCanonicalReport(fused.tpiin, detection, scoring));
  std::printf("{\"ranked_digest\": \"%s\"}\n", Hex(Digest(ranked)).c_str());
  return 0;
}

// The snapshot `tpiin build --data=DIR --out=FILE` writes, built through
// the library so a traced serve run can time the snapshot layer: the
// write, and the checksummed open a hot reload runs on its candidate.
int CmdSnapshot(const Args& args) {
  const std::string trace_path = args.Str("trace");
  SpanLog log(!trace_path.empty());
  const int64_t op = static_cast<int64_t>(args.Num("op", 0));
  {
    ScopedSpan root(log, "build", op, -1);
    tpiin::RawDataset dataset;
    {
      ScopedSpan span(log, "io.load", op, root.index());
      dataset = Check(tpiin::LoadDatasetCsv(args.Str("data")), "load");
    }
    tpiin::FusionOptions fusion;
    fusion.num_threads = 0;
    tpiin::FusionOutput fused;
    {
      ScopedSpan span(log, "fusion.build", op, root.index());
      fused = Check(tpiin::BuildTpiin(dataset, fusion), "fuse");
    }
    const std::string out = args.Str("out");
    {
      ScopedSpan span(log, "snapshot.write", op, root.index());
      Check(tpiin::WriteSnapshot(fused.tpiin, out), "write snapshot");
    }
    ScopedSpan span(log, "snapshot.open", op, root.index());
    Check(tpiin::SnapshotView::Open(out), "open snapshot");
  }
  if (log.enabled() && !log.Write(trace_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_bin gen|batch|sharded|reference|"
                 "snapshot|load --key=value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "batch") return CmdPasses(args, /*sharded=*/false);
  if (cmd == "sharded") return CmdPasses(args, /*sharded=*/true);
  if (cmd == "reference") return CmdReference(args);
  if (cmd == "snapshot") return CmdSnapshot(args);
  if (cmd == "load") return RunLoad(args);
  std::fprintf(stderr, "perfbench_bin: unknown command %s\n", cmd.c_str());
  return 2;
}
