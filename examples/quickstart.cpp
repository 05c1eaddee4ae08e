// Quickstart: build a small TPIIN from raw relationship records, run the
// suspicious-group detector, and print the findings.
//
// This walks the exact example of the paper's §4.3 (Figs. 7-10): nine
// persons, eight companies, two interdependence links that contract into
// syndicates, and five trading relationships of which three hide an
// interest-affiliated transaction.

#include <cstdio>

#include "common/logging.h"
#include "core/detector.h"
#include "core/pattern_tree.h"
#include "core/subtpiin.h"
#include "datagen/worked_example.h"
#include "fusion/pipeline.h"

int main() {
  using namespace tpiin;

  // 1. Assemble the raw relationship dataset (in production this comes
  //    from CSRC filings, household registration and tax office records;
  //    see io/dataset_csv.h for the CSV ingestion path).
  RawDataset dataset = BuildWorkedExampleDataset();
  std::printf("Raw dataset: %s\n\n", dataset.Stats().ToString().c_str());

  // 2. Multi-network fusion: contract interdependence links into person
  //    syndicates, investment cycles into company syndicates, and
  //    overlay the trading network (Fig. 5 procedure).
  Result<FusionOutput> fused = BuildTpiin(dataset);
  TPIIN_CHECK(fused.ok()) << fused.status().ToString();
  const Tpiin& net = fused->tpiin;
  std::printf("Fusion:\n%s\n\n", fused->stats.ToString().c_str());

  // 3. Inspect the component pattern base of the (single) subTPIIN —
  //    this reproduces Fig. 10.
  std::vector<SubTpiin> subs = SegmentTpiin(net);
  for (const SubTpiin& sub : subs) {
    Result<PatternGenResult> gen = GeneratePatternBase(sub);
    TPIIN_CHECK(gen.ok()) << gen.status().ToString();
    std::printf("Potential component patterns base (%zu trails):\n%s\n",
                gen->num_trails,
                FormatPatternBase(sub, gen->tree).c_str());
  }

  // 4. Run Algorithm 1 end to end.
  Result<DetectionResult> result = DetectSuspiciousGroups(net);
  TPIIN_CHECK(result.ok()) << result.status().ToString();
  std::printf("Detection: %s\n\nSuspicious groups:\n",
              result->Summary().c_str());
  for (const SuspiciousGroup& group : result->groups) {
    std::printf("  %s\n", group.Format(net).c_str());
  }
  std::printf("\nSuspicious trading relationships (the IAT candidates "
              "handed to the ITE phase):\n");
  for (const auto& [seller, buyer] : result->suspicious_trades) {
    std::printf("  %s -> %s\n", std::string(net.Label(seller)).c_str(),
                std::string(net.Label(buyer)).c_str());
  }
  return 0;
}
