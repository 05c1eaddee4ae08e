// google-benchmark microbenchmarks of the pipeline's building blocks:
// graph algorithms (Tarjan SCC, weak connectivity), fusion, Algorithm 2
// (patterns tree), component-pattern matching, the end-to-end detector
// and the trading-network generator.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_net.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/arena_pool.h"
#include "core/detector.h"
#include "core/incremental.h"
#include "core/scoring.h"
#include "core/matcher.h"
#include "core/pattern_tree.h"
#include "core/subtpiin.h"
#include "datagen/province.h"
#include "fusion/pipeline.h"
#include "graph/connected.h"
#include "graph/frozen.h"
#include "graph/scc.h"

namespace tpiin {
namespace {

// Set by main() when --snapshot=PATH is passed: every fixture then maps
// the same pre-built net instead of generating+fusing a province, and
// benchmarks that need the RawDataset skip.
std::string g_snapshot_path;  // NOLINT

// Shared fixtures: one province per trading probability, built lazily
// and cached for the whole benchmark binary run. In snapshot mode the
// probability key is ignored (the file *is* the network) and `dataset`
// stays empty.
struct Fixture {
  RawDataset dataset;
  Tpiin fused_net;
  std::unique_ptr<SnapshotView> view;

  bool from_snapshot() const { return view != nullptr; }
  const Tpiin& net() const {
    return view != nullptr ? view->net() : fused_net;
  }
};

const Fixture& GetFixture(double p) {
  static auto* cache = new std::map<double, std::unique_ptr<Fixture>>();
  if (!g_snapshot_path.empty()) p = 0;  // One shared snapshot fixture.
  auto it = cache->find(p);
  if (it == cache->end()) {
    auto fixture = std::make_unique<Fixture>();
    if (!g_snapshot_path.empty()) {
      Result<std::unique_ptr<SnapshotView>> view =
          SnapshotView::Open(g_snapshot_path);
      TPIIN_CHECK(view.ok()) << view.status().ToString();
      fixture->view = std::move(*view);
    } else {
      ProvinceConfig config = PaperProvinceConfig();
      config.trading_probability = p;
      Result<Province> province = GenerateProvince(config);
      TPIIN_CHECK(province.ok());
      Result<FusionOutput> fused = BuildTpiin(province->dataset);
      TPIIN_CHECK(fused.ok());
      fixture->dataset = std::move(province->dataset);
      fixture->fused_net = std::move(fused->tpiin);
    }
    it = cache->emplace(p, std::move(fixture)).first;
  }
  return *it->second;
}

// True (and skips the benchmark) when snapshot mode removes this
// benchmark's input: the raw dataset is not part of the snapshot.
bool SkipInSnapshotMode(benchmark::State& state) {
  if (g_snapshot_path.empty()) return false;
  state.SkipWithError("needs the CSV-mode raw dataset, "
                      "not carried by --snapshot");
  return true;
}

double ArgToProb(int64_t arg) { return arg / 1000.0; }

void BM_FusionPipeline(benchmark::State& state) {
  if (SkipInSnapshotMode(state)) return;
  const Fixture& fixture = GetFixture(ArgToProb(state.range(0)));
  FusionOptions options;
  options.validate_dataset = false;
  for (auto _ : state) {
    Result<FusionOutput> fused = BuildTpiin(fixture.dataset, options);
    TPIIN_CHECK(fused.ok());
    benchmark::DoNotOptimize(fused->tpiin.NumNodes());
  }
}
BENCHMARK(BM_FusionPipeline)->Arg(2)->Arg(20);

// Fusion with the multi-threaded stage schedule: the relationship-layer
// tasks run concurrently, syndicate labels build in parallel, and
// validation runs beside the CSR freeze, which builds its two halves as
// parallel tasks. Output is bit-identical to the serial path (asserted
// by tests/fusion/parallel_fusion_test.cc); only wall clock changes.
void BM_FusionPipelineParallel(benchmark::State& state) {
  if (SkipInSnapshotMode(state)) return;
  const Fixture& fixture = GetFixture(ArgToProb(state.range(0)));
  FusionOptions options;
  options.validate_dataset = false;
  options.num_threads = static_cast<uint32_t>(state.range(1));
  for (auto _ : state) {
    Result<FusionOutput> fused = BuildTpiin(fixture.dataset, options);
    TPIIN_CHECK(fused.ok());
    benchmark::DoNotOptimize(fused->tpiin.NumNodes());
  }
}
BENCHMARK(BM_FusionPipelineParallel)
    ->ArgsProduct({{2, 20}, {1, 2, 4}})
    ->ArgNames({"p_mille", "threads"});

// Tarjan over the CSR (the fusion pipeline's path).
void BM_TarjanSccFrozen(benchmark::State& state) {
  const Fixture& fixture = GetFixture(0.002);
  for (auto _ : state) {
    SccResult scc = StronglyConnectedComponents(fixture.net().frozen());
    benchmark::DoNotOptimize(scc.num_components);
  }
}
BENCHMARK(BM_TarjanSccFrozen);

// WCC over the influence span of the CSR (SegmentTpiin's path).
void BM_WeaklyConnectedFrozen(benchmark::State& state) {
  const Fixture& fixture = GetFixture(0.002);
  for (auto _ : state) {
    WccResult wcc = WeaklyConnectedComponents(fixture.net().frozen(),
                                              FrozenArcClass::kInfluence);
    benchmark::DoNotOptimize(wcc.num_components);
  }
}
BENCHMARK(BM_WeaklyConnectedFrozen);

// One-off cost of building the CSR from the arc table (paid once per
// (sub)TPIIN build, amortized over every traversal that follows).
void BM_FreezeGraph(benchmark::State& state) {
  const Fixture& fixture = GetFixture(ArgToProb(state.range(0)));
  const Tpiin& net = fixture.net();
  std::vector<Arc> arcs(net.NumArcs());
  for (ArcId id = 0; id < net.NumArcs(); ++id) arcs[id] = net.arc(id);
  for (auto _ : state) {
    FrozenGraph frozen(net.NumNodes(), arcs, kArcInfluence);
    benchmark::DoNotOptimize(frozen.NumArcs());
  }
}
BENCHMARK(BM_FreezeGraph)->Arg(2)->Arg(20);

void BM_SegmentTpiin(benchmark::State& state) {
  const Fixture& fixture = GetFixture(ArgToProb(state.range(0)));
  for (auto _ : state) {
    std::vector<SubTpiin> subs = SegmentTpiin(fixture.net());
    benchmark::DoNotOptimize(subs.size());
  }
}
BENCHMARK(BM_SegmentTpiin)->Arg(2)->Arg(20);

// Algorithm 2 (the patterns tree) over every subTPIIN of the province.
void BM_GeneratePatternBase(benchmark::State& state) {
  const Fixture& fixture = GetFixture(ArgToProb(state.range(0)));
  std::vector<SubTpiin> subs = SegmentTpiin(fixture.net());
  for (auto _ : state) {
    size_t trails = 0;
    for (const SubTpiin& sub : subs) {
      Result<PatternGenResult> gen = GeneratePatternBase(sub);
      TPIIN_CHECK(gen.ok());
      trails += gen->num_trails;
    }
    benchmark::DoNotOptimize(trails);
  }
}
BENCHMARK(BM_GeneratePatternBase)->Arg(2)->Arg(20);

void BM_DetectEndToEnd(benchmark::State& state) {
  const Fixture& fixture = GetFixture(ArgToProb(state.range(0)));
  DetectorOptions options;
  options.match.collect_groups = false;
  for (auto _ : state) {
    Result<DetectionResult> result =
        DetectSuspiciousGroups(fixture.net(), options);
    TPIIN_CHECK(result.ok());
    benchmark::DoNotOptimize(result->suspicious_trades.size());
  }
}
BENCHMARK(BM_DetectEndToEnd)->Arg(2)->Arg(20);

// The serving-style repeated-detection workload: the same TPIIN mined
// over and over (range(1) = 1 routes generation storage through a
// persistent ArenaPool, 0 allocates fresh buffers per call, the seed
// behavior). After the first iteration warms the pool every subTPIIN's
// patterns tree lands in a recycled buffer, so the steady-state delta
// between the two rows is the allocator traffic Algorithm 2 no longer
// pays. Results are identical with or without the pool.
void BM_DetectArenaReuse(benchmark::State& state) {
  const Fixture& fixture = GetFixture(ArgToProb(state.range(0)));
  ArenaPool pool;
  DetectorOptions options;
  options.match.collect_groups = false;
  options.arena_pool = state.range(1) != 0 ? &pool : nullptr;
  for (auto _ : state) {
    Result<DetectionResult> result =
        DetectSuspiciousGroups(fixture.net(), options);
    TPIIN_CHECK(result.ok());
    benchmark::DoNotOptimize(result->suspicious_trades.size());
  }
  if (options.arena_pool != nullptr) {
    state.counters["arena_hit_rate"] =
        pool.num_acquires() > 0
            ? static_cast<double>(pool.num_hits()) / pool.num_acquires()
            : 0.0;
  }
}
BENCHMARK(BM_DetectArenaReuse)
    ->ArgsProduct({{2, 20}, {0, 1}})
    ->ArgNames({"p_mille", "arena"});

void BM_IncrementalScreenerBuild(benchmark::State& state) {
  const Fixture& fixture = GetFixture(0.002);
  for (auto _ : state) {
    IncrementalScreener screener(fixture.net());
    benchmark::DoNotOptimize(screener.TotalAncestorEntries());
  }
}
BENCHMARK(BM_IncrementalScreenerBuild);

void BM_IncrementalScreenQuery(benchmark::State& state) {
  const Fixture& fixture = GetFixture(0.002);
  IncrementalScreener screener(fixture.net());
  Rng rng(3);
  const NodeId n = fixture.net().NumNodes();
  size_t hits = 0;
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.UniformU64(n));
    NodeId b = static_cast<NodeId>(rng.UniformU64(n));
    hits += screener.IsSuspicious(a, b);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_IncrementalScreenQuery);

void BM_ScoreDetection(benchmark::State& state) {
  const Fixture& fixture = GetFixture(ArgToProb(state.range(0)));
  auto detection = DetectSuspiciousGroups(fixture.net());
  TPIIN_CHECK(detection.ok());
  for (auto _ : state) {
    ScoringResult scoring = ScoreDetection(fixture.net(), *detection);
    benchmark::DoNotOptimize(scoring.ranked_trades.size());
  }
}
BENCHMARK(BM_ScoreDetection)->Arg(2)->Arg(20);

void BM_GenerateTradingNetwork(benchmark::State& state) {
  Rng rng(7);
  double p = ArgToProb(state.range(0));
  for (auto _ : state) {
    std::vector<TradeRecord> trades = GenerateTradingNetwork(2452, p, rng);
    benchmark::DoNotOptimize(trades.size());
  }
}
BENCHMARK(BM_GenerateTradingNetwork)->Arg(2)->Arg(100);

// The serve-path constant the snapshot work targets: map + validate +
// bind one snapshot file (only registered in --snapshot mode, where a
// file exists to open).
void BM_SnapshotOpen(benchmark::State& state) {
  if (g_snapshot_path.empty()) {
    state.SkipWithError("pass --snapshot=PATH to measure open cost");
    return;
  }
  for (auto _ : state) {
    Result<std::unique_ptr<SnapshotView>> view =
        SnapshotView::Open(g_snapshot_path);
    TPIIN_CHECK(view.ok()) << view.status().ToString();
    benchmark::DoNotOptimize((*view)->net().NumArcs());
  }
}
BENCHMARK(BM_SnapshotOpen);

}  // namespace
}  // namespace tpiin

// BENCHMARK_MAIN, plus the shared --snapshot flag. The flag is consumed
// here (google-benchmark rejects unknown arguments), so strip it from
// argv before Initialize sees it.
int main(int argc, char** argv) {
  tpiin::g_snapshot_path = tpiin::ParseSnapshotFlag(argc, argv);
  std::vector<char*> kept;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--snapshot=", 0) == 0) continue;
    if (arg == "--snapshot") {  // Skip the flag and its value.
      if (i + 1 < argc) ++i;
      continue;
    }
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
