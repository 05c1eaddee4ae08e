// Reproduces Table 1: "Detecting suspicious groups in a TPIIN over
// various trading probability settings".
//
// Protocol (§5.1): one provincial relationship network (4578 nodes: 776
// directors, 1350 legal persons, 2452 companies — here synthesized at
// the published scale, see DESIGN.md §2), overlaid with twenty random
// trading networks whose per-pair trading probability sweeps 0.002..0.1.
// For every setting the harness reports the paper's columns and verifies
// the accuracy columns against the global-traversal baseline: the
// proposed method must find exactly the baseline's suspicious groups and
// suspicious trading relationships (100%).
//
// Absolute counts depend on the synthetic antecedent network; the shape
// to compare against the paper (see EXPERIMENTS.md): complex > simple by
// roughly 4-5x, counts growing near-linearly in p, accuracy pinned at
// 100%, and a flat ~5% suspicious-trade share.

#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_json.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/baseline.h"
#include "core/detector.h"
#include "datagen/province.h"
#include "fusion/pipeline.h"
#include "graph/degree.h"

namespace tpiin {
namespace {

constexpr double kProbabilities[] = {0.002, 0.003, 0.004, 0.005, 0.006,
                                     0.008, 0.010, 0.012, 0.014, 0.016,
                                     0.018, 0.020, 0.030, 0.040, 0.050,
                                     0.060, 0.070, 0.080, 0.090, 0.100};

// Paper Table 1 reference rows (complex, simple, suspicious trades,
// total trades) for side-by-side shape comparison.
struct PaperRow {
  double p;
  double avg_degree;
  long complex_groups;
  long simple_groups;
  long suspicious;
  long total;
};
constexpr PaperRow kPaperRows[] = {
    {0.002, 3.981, 7252, 1507, 611, 11939},
    {0.003, 5.275, 11506, 2460, 881, 17869},
    {0.004, 6.628, 16021, 3390, 1288, 24069},
    {0.005, 7.941, 19375, 3977, 1573, 30094},
    {0.006, 9.240, 23071, 4864, 1839, 36036},
    {0.008, 11.847, 30745, 6287, 2445, 47978},
    {0.010, 14.491, 36702, 7881, 2991, 60117},
    {0.012, 17.163, 44148, 8989, 3619, 72310},
    {0.014, 19.728, 51023, 10776, 4258, 84064},
    {0.016, 22.424, 60777, 12680, 4895, 96403},
    {0.018, 24.965, 67614, 13997, 5514, 108045},
    {0.020, 27.522, 75875, 16103, 6012, 119759},
    {0.030, 40.748, 111885, 23328, 9122, 180401},
    {0.040, 53.793, 149795, 31123, 12126, 240190},
    {0.050, 66.827, 185405, 38501, 15089, 299898},
    {0.060, 79.940, 226187, 47361, 18212, 359975},
    {0.070, 93.011, 261367, 55088, 21214, 419914},
    {0.080, 106.276, 298458, 62627, 24150, 480637},
    {0.090, 119.554, 333271, 69844, 27129, 541489},
    {0.100, 132.759, 372050, 78252, 30288, 602053},
};

// Everything one probability row produces; rows are computed
// concurrently, then emitted in sweep order so the report and artifacts
// are byte-identical at any thread count.
struct RowOutput {
  double avg_degree = 0;
  size_t num_complex = 0;
  size_t num_simple = 0;
  double group_accuracy = 0;
  size_t suspicious_trades = 0;
  size_t total_trades = 0;
  double arc_accuracy = 0;
  double suspicious_percent = 0;
  double detect_seconds = 0;
};

RowOutput MeasureRow(const RawDataset& base_dataset,
                     const ProvinceConfig& config, size_t i) {
  double p = kProbabilities[i];
  // Private dataset copy: SetTrades mutates, and rows run concurrently.
  RawDataset dataset = base_dataset;
  Rng trading_rng(config.seed * 1000 + i);
  dataset.SetTrades(
      GenerateTradingNetwork(config.num_companies, p, trading_rng));

  FusionOptions fusion_options;
  fusion_options.validate_dataset = (i == 0);
  Result<FusionOutput> fused = BuildTpiin(dataset, fusion_options);
  TPIIN_CHECK(fused.ok()) << fused.status().ToString();
  const Tpiin& net = fused->tpiin;

  DetectorOptions options;
  options.match.collect_groups = false;
  Result<DetectionResult> result = DetectSuspiciousGroups(net, options);
  TPIIN_CHECK(result.ok()) << result.status().ToString();

  // Accuracy vs the global-traversal baseline anchored like the
  // proposed method: group counts and the suspicious-arc set must
  // match exactly.
  BaselineOptions baseline_options;
  baseline_options.collect_groups = false;
  BaselineResult baseline = DetectBaseline(net, baseline_options);
  size_t proposed_groups = result->num_simple + result->num_complex;
  size_t baseline_groups = baseline.num_simple + baseline.num_complex;
  RowOutput row;
  row.group_accuracy =
      baseline_groups == 0
          ? 100.0
          : 100.0 * std::min(proposed_groups, baseline_groups) /
                static_cast<double>(baseline_groups);
  std::set<std::pair<NodeId, NodeId>> proposed_arcs(
      result->suspicious_trades.begin(), result->suspicious_trades.end());
  size_t found = 0;
  for (const auto& arc : baseline.suspicious_trades) {
    if (proposed_arcs.count(arc)) ++found;
  }
  row.arc_accuracy = baseline.suspicious_trades.empty()
                         ? 100.0
                         : 100.0 * found /
                               baseline.suspicious_trades.size();
  TPIIN_CHECK_EQ(proposed_groups, baseline_groups);
  TPIIN_CHECK_EQ(proposed_arcs.size(), baseline.suspicious_trades.size());

  row.avg_degree = ComputeDegreeStats(net.frozen()).average_degree;
  row.num_complex = result->num_complex;
  row.num_simple = result->num_simple;
  row.suspicious_trades = result->suspicious_trades.size();
  row.total_trades = net.num_trading_arcs();
  row.suspicious_percent = result->SuspiciousTradePercent();
  row.detect_seconds = result->timings.total_seconds;
  return row;
}

int Run(BenchJsonWriter& json, uint32_t num_threads) {
  ProvinceConfig config = PaperProvinceConfig();
  config.generate_trading = false;
  Result<Province> province = GenerateProvince(config);
  TPIIN_CHECK(province.ok()) << province.status().ToString();

  std::printf("=== Table 1: detecting suspicious groups in a TPIIN over "
              "various trading probability settings ===\n");
  std::printf("Province: %s\n", province->dataset.Stats().ToString().c_str());
  const uint32_t threads = ResolveThreadCount(num_threads);
  if (threads > 1) std::printf("Rows measured on %u threads\n", threads);
  std::printf("\n");
  std::printf(
      "%-7s %-8s %-10s %-9s %-8s %-10s %-10s %-8s %-8s\n", "p", "avgdeg",
      "complex", "simple", "grp-acc", "suspTrade", "totTrade", "arc-acc",
      "susp%%");

  // Machine-readable artifact beside the human table (read by
  // EXPERIMENTS.md regeneration and downstream plotting).
  CsvWriter csv("table1.csv");
  csv.WriteRow({"p", "avg_degree", "complex", "simple",
                "suspicious_trades", "total_trades",
                "suspicious_percent", "paper_complex", "paper_simple",
                "paper_suspicious", "paper_total"});

  // The twenty rows are independent (private dataset copy, per-row rng
  // seeded from the row index), so they fan out across the shared pool;
  // outputs are buffered and emitted in sweep order below.
  std::vector<RowOutput> rows(std::size(kProbabilities));
  ThreadPool::Global().ParallelFor(
      rows.size(), threads, [&](size_t i) {
        rows[i] = MeasureRow(province->dataset, config, i);
      });

  for (size_t i = 0; i < rows.size(); ++i) {
    double p = kProbabilities[i];
    const RowOutput& row = rows[i];
    std::printf(
        "%-7.3f %-8.3f %-10zu %-9zu %-7.0f%% %-10zu %-10zu %-7.0f%% "
        "%-8.4f\n",
        p, row.avg_degree, row.num_complex, row.num_simple,
        row.group_accuracy, row.suspicious_trades, row.total_trades,
        row.arc_accuracy, row.suspicious_percent);
    std::printf(
        "  paper %-8.3f %-10ld %-9ld %-7.0f%% %-10ld %-10ld %-7.0f%% "
        "%-8.4f\n",
        kPaperRows[i].avg_degree, kPaperRows[i].complex_groups,
        kPaperRows[i].simple_groups, 100.0, kPaperRows[i].suspicious,
        kPaperRows[i].total, 100.0,
        100.0 * kPaperRows[i].suspicious / kPaperRows[i].total);
    json.Record("table1_detect", StringPrintf("p=%.3f", p),
                row.detect_seconds,
                row.detect_seconds > 0
                    ? row.total_trades / row.detect_seconds
                    : 0);
    csv.WriteRow({StringPrintf("%.3f", p),
                  StringPrintf("%.3f", row.avg_degree),
                  StringPrintf("%zu", row.num_complex),
                  StringPrintf("%zu", row.num_simple),
                  StringPrintf("%zu", row.suspicious_trades),
                  StringPrintf("%zu", row.total_trades),
                  StringPrintf("%.4f", row.suspicious_percent),
                  StringPrintf("%ld", kPaperRows[i].complex_groups),
                  StringPrintf("%ld", kPaperRows[i].simple_groups),
                  StringPrintf("%ld", kPaperRows[i].suspicious),
                  StringPrintf("%ld", kPaperRows[i].total)});
  }
  json.Flush();
  TPIIN_CHECK(csv.Close().ok());
  std::printf(
      "\n(grp-acc / arc-acc: agreement with the global-traversal "
      "baseline; both are asserted to be exact.)\n");
  std::printf("Row data also written to table1.csv\n");
  return 0;
}

}  // namespace
}  // namespace tpiin

int main(int argc, char** argv) {
  tpiin::BenchJsonWriter json =
      tpiin::BenchJsonWriter::FromArgs(argc, argv);
  // Rows are serial by default so per-row timings stay uncontended;
  // --threads N sweeps the twenty probability settings concurrently
  // (identical counts either way, per-row detect timings get noisier).
  return tpiin::Run(json, tpiin::ParseThreadsFlag(argc, argv));
}
