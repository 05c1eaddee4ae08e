// Ablations of the design choices DESIGN.md §5 calls out:
//   A1  union-find vs the paper's DFS findsubgraph() for the MWCS
//       segmentation (identical output, different constants);
//   A2  divide-and-conquer segmentation ON vs OFF (mining the whole
//       TPIIN as a single subTPIIN);
//   A3  patterns-tree prefix sharing: tree nodes vs total emitted trail
//       elements (the redundancy the shared tree avoids);
//   A4  counting-only matching vs materializing every suspicious group.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <thread>

#include "bench/bench_json.h"
#include "bench/bench_net.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/detector.h"
#include "core/matcher.h"
#include "core/pattern_tree.h"
#include "core/subtpiin.h"
#include "datagen/province.h"
#include "fusion/pipeline.h"
#include "graph/connected.h"
#include "graph/traversal.h"

namespace tpiin {
namespace {

// Whole-TPIIN view as one SubTpiin (segmentation disabled): the
// network's own CSR with identity id maps. Trading arcs whose endpoints
// lie in different antecedent components become partnerless trade
// trails and change nothing but the work done.
SubTpiin WholeAsSubTpiin(const Tpiin& net) {
  SubTpiin sub;
  sub.parent = &net;
  sub.frozen = net.frozen();
  sub.num_influence_arcs = net.num_influence_arcs();
  sub.global_of_local.resize(net.NumNodes());
  std::iota(sub.global_of_local.begin(), sub.global_of_local.end(), 0);
  sub.global_arc_of_local.resize(net.NumArcs());
  std::iota(sub.global_arc_of_local.begin(), sub.global_arc_of_local.end(),
            0);
  return sub;
}

int Run(BenchJsonWriter& json, BenchNetSource& source) {
  Result<FusionOutput> fused = Status::Internal("unset");
  const Tpiin* net_ptr = nullptr;
  if (source.from_snapshot()) {
    net_ptr = &source.Open();
    json.Record("ablation_snapshot_open", "p=0.02",
                source.open_seconds());
  } else {
    ProvinceConfig config = PaperProvinceConfig();
    config.trading_probability = 0.02;
    Result<Province> province = GenerateProvince(config);
    TPIIN_CHECK(province.ok());
    fused = BuildTpiin(province->dataset);
    TPIIN_CHECK(fused.ok());
    source.MaybeWrite(fused->tpiin);
    net_ptr = &fused->tpiin;
  }
  const Tpiin& net = *net_ptr;

  std::printf("=== Ablations (province at p=0.02: %u nodes, %u arcs) "
              "===\n\n",
              net.NumNodes(), net.NumArcs());

  // --- A1: union-find vs DFS weak-connectivity (both on the frozen
  // CSR, so the comparison also holds for mmap-opened snapshots).
  {
    constexpr int kReps = 50;
    WallTimer timer;
    WccResult uf;
    for (int i = 0; i < kReps; ++i) {
      uf = WeaklyConnectedComponents(net.frozen(),
                                     FrozenArcClass::kInfluence);
    }
    double uf_s = timer.ElapsedSeconds() / kReps;
    timer.Restart();
    WccResult dfs;
    for (int i = 0; i < kReps; ++i) {
      dfs = FindSubgraphsDfs(net.frozen(), FrozenArcClass::kInfluence);
    }
    double dfs_s = timer.ElapsedSeconds() / kReps;
    TPIIN_CHECK_EQ(uf.num_components, dfs.num_components);
    std::printf("A1 MWCS segmentation: union-find %.4fs vs DFS "
                "findsubgraph() %.4fs (%u components, identical)\n",
                uf_s, dfs_s, uf.num_components);
    json.Record("ablation_a1", "union_find", uf_s);
    json.Record("ablation_a1", "dfs", dfs_s);
  }

  // --- A2: segmentation on vs off.
  {
    DetectorOptions options;
    options.match.collect_groups = false;
    WallTimer timer;
    Result<DetectionResult> with = DetectSuspiciousGroups(net, options);
    TPIIN_CHECK(with.ok());
    double with_s = timer.ElapsedSeconds();

    timer.Restart();
    SubTpiin whole = WholeAsSubTpiin(net);
    Result<PatternGenResult> gen = GeneratePatternBase(whole);
    TPIIN_CHECK(gen.ok());
    MatchOptions match_options;
    match_options.collect_groups = false;
    MatchResult match = MatchPatternsTree(whole, gen->tree, match_options);
    double without_s = timer.ElapsedSeconds();

    TPIIN_CHECK_EQ(match.num_simple + match.num_complex,
                   with->num_simple + with->num_complex);
    std::printf(
        "A2 divide-and-conquer: segmented %.3fs (%zu subTPIINs, %zu "
        "trails) vs unsegmented %.3fs (%zu trails); identical %zu "
        "groups\n",
        with_s, with->num_subtpiins, with->num_trails, without_s,
        gen->num_trails, with->num_simple + with->num_complex);
    json.Record("ablation_a2", "segmented", with_s);
    json.Record("ablation_a2", "unsegmented", without_s);
  }

  // --- A3: prefix sharing in the patterns tree. A component pattern
  // ending at tree depth d has d + 1 trail elements (a trade leaf's
  // d-node influence path plus its trade target), and a parent precedes
  // its children, so one forward pass computes every depth.
  {
    size_t tree_nodes = 0;
    size_t trail_elements = 0;
    std::vector<uint32_t> depth;
    for (const SubTpiin& sub : SegmentTpiin(net)) {
      Result<PatternGenResult> gen = GeneratePatternBase(sub);
      TPIIN_CHECK(gen.ok());
      const PatternsTree& tree = gen->tree;
      tree_nodes += tree.nodes.size();
      depth.assign(tree.nodes.size(), 0);
      for (int32_t i = 0; i < static_cast<int32_t>(tree.nodes.size()); ++i) {
        const int32_t parent = tree.nodes[i].parent;
        if (parent >= 0) depth[i] = depth[parent] + 1;
        if (tree.EndsPattern(sub, i)) trail_elements += depth[i] + 1;
      }
    }
    std::printf(
        "A3 patterns-tree sharing: %zu tree nodes represent %zu trail "
        "elements (%.2fx compression from shared prefixes)\n",
        tree_nodes, trail_elements,
        tree_nodes ? static_cast<double>(trail_elements) / tree_nodes
                   : 0.0);
    json.Record("ablation_a3", "compression", 0,
                tree_nodes
                    ? static_cast<double>(trail_elements) / tree_nodes
                    : 0.0);
  }

  // --- A5: parallel per-subTPIIN processing (§7 future work). The unit
  // of parallelism is one subTPIIN, so the largest weakly connected
  // component bounds the speedup (Amdahl); real provinces are dominated
  // by one conglomerate component, and this one is no different.
  {
    std::vector<SubTpiin> subs = SegmentTpiin(net);
    size_t total_arcs = 0;
    size_t largest_arcs = 0;
    for (const SubTpiin& sub : subs) {
      total_arcs += sub.frozen.NumArcs();
      largest_arcs = std::max<size_t>(largest_arcs, sub.frozen.NumArcs());
    }
    std::printf(
        "A5 parallelism bound: largest subTPIIN holds %.1f%% of the "
        "mining work (%zu of %zu arcs); this host has %u hardware "
        "thread(s)\n",
        total_arcs ? 100.0 * largest_arcs / total_arcs : 0.0,
        largest_arcs, total_arcs, std::thread::hardware_concurrency());
    DetectorOptions options;
    options.match.collect_groups = false;
    double single_s = 0;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      options.num_threads = threads;
      WallTimer timer;
      Result<DetectionResult> result = DetectSuspiciousGroups(net, options);
      TPIIN_CHECK(result.ok());
      double elapsed = timer.ElapsedSeconds();
      if (threads == 1) single_s = elapsed;
      std::printf(
          "A5 parallel detect: %u thread(s) %.3fs (%.2fx vs 1 thread)\n",
          threads, elapsed, elapsed > 0 ? single_s / elapsed : 0.0);
      json.Record("ablation_a5_detect",
                  StringPrintf("threads=%u", threads), elapsed);
    }
  }

  // --- A4: counting-only vs materializing groups.
  {
    DetectorOptions counting;
    counting.match.collect_groups = false;
    WallTimer timer;
    Result<DetectionResult> count_result =
        DetectSuspiciousGroups(net, counting);
    TPIIN_CHECK(count_result.ok());
    double count_s = timer.ElapsedSeconds();

    DetectorOptions collecting;  // collect_groups defaults to true.
    timer.Restart();
    Result<DetectionResult> collect_result =
        DetectSuspiciousGroups(net, collecting);
    TPIIN_CHECK(collect_result.ok());
    double collect_s = timer.ElapsedSeconds();
    std::printf(
        "A4 group materialization: counting-only %.3fs vs collecting "
        "%zu group records %.3fs\n",
        count_s, collect_result->groups.size(), collect_s);
    json.Record("ablation_a4_collect", "counting", count_s);
    json.Record("ablation_a4_collect", "collecting", collect_s);
  }
  json.Flush();
  return 0;
}

}  // namespace
}  // namespace tpiin

int main(int argc, char** argv) {
  tpiin::BenchJsonWriter json =
      tpiin::BenchJsonWriter::FromArgs(argc, argv);
  tpiin::BenchNetSource source = tpiin::BenchNetSource::FromArgs(argc, argv);
  return tpiin::Run(json, source);
}
