// Reproduces the paper's worked example end to end:
//   Fig. 7  - the un-contracted network (as a RawDataset),
//   Fig. 8  - the contracted TPIIN and its edge-list database,
//   Fig. 9  - the listD ordering and the patterns tree,
//   Fig. 10 - the potential component patterns base (15 trails),
//   §4.3    - the three suspicious groups.

#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_net.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/detector.h"
#include "core/pattern_tree.h"
#include "core/subtpiin.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"

namespace tpiin {
namespace {

int Run(BenchJsonWriter& json, BenchNetSource& source) {
  std::printf("=== Worked example (paper Figs. 7-10) ===\n\n");

  Result<FusionOutput> fused = Status::Internal("unset");
  const Tpiin* net_ptr = nullptr;
  double fuse_s = 0;
  if (source.from_snapshot()) {
    net_ptr = &source.Open();
    json.Record("worked_example_snapshot_open", "fig7",
                source.open_seconds());
  } else {
    RawDataset dataset = BuildWorkedExampleDataset();
    std::printf("Fig. 7 (un-contracted network): %s\n\n",
                dataset.Stats().ToString().c_str());
    WallTimer fuse_timer;
    fused = BuildTpiin(dataset);
    fuse_s = fuse_timer.ElapsedSeconds();
    TPIIN_CHECK(fused.ok()) << fused.status().ToString();
    std::printf("Fig. 8 (TPIIN after contraction):\n%s\n\n",
                fused->stats.ToString().c_str());
    source.MaybeWrite(fused->tpiin);
    net_ptr = &fused->tpiin;
  }
  const Tpiin& net = *net_ptr;

  std::printf("Fig. 8 (edge-list database, src dst color; 1=blue "
              "influence, 0=black trading):\n");
  for (const auto& row : net.ToEdgeList()) {
    std::printf("  %-14s %-14s %u\n",
                std::string(net.Label(row[0])).c_str(),
                std::string(net.Label(row[1])).c_str(), row[2]);
  }

  std::vector<SubTpiin> subs = SegmentTpiin(net);
  TPIIN_CHECK_EQ(subs.size(), 1u);
  const SubTpiin& sub = subs[0];

  std::printf("\nFig. 9(a) listD (node, indegree, outdegree):\n");
  for (const ListDEntry& entry : ComputeListD(sub)) {
    std::printf("  %-10s in=%u out=%u\n",
                std::string(sub.Label(entry.node)).c_str(),
                entry.in_degree, entry.out_degree);
  }

  Result<PatternGenResult> gen = GeneratePatternBase(sub);
  TPIIN_CHECK(gen.ok()) << gen.status().ToString();

  std::printf("\nFig. 9(b) patterns tree:\n%s",
              gen->tree.ToString(sub).c_str());
  std::printf("\nFig. 10 potential component patterns base:\n%s",
              FormatPatternBase(sub, gen->tree).c_str());

  WallTimer detect_timer;
  Result<DetectionResult> result = DetectSuspiciousGroups(net);
  double detect_s = detect_timer.ElapsedSeconds();
  TPIIN_CHECK(result.ok()) << result.status().ToString();
  std::printf("\nSuspicious groups (§4.3 expects (L1,C1,C2,C3,C5), "
              "(B1,C5,C6), (B2,C7,C8)):\n");
  for (const SuspiciousGroup& group : result->groups) {
    std::printf("  %s\n", group.Format(net).c_str());
  }
  std::printf("\n%s\n", result->Summary().c_str());
  if (!source.from_snapshot()) {
    json.Record("worked_example_fuse", "fig7", fuse_s);
  }
  json.Record("worked_example_detect", "fig7", detect_s,
              result->TotalGroups());
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
