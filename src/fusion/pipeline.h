#ifndef TPIIN_FUSION_PIPELINE_H_
#define TPIIN_FUSION_PIPELINE_H_

#include <string>

#include "common/result.h"
#include "fusion/tpiin.h"
#include "model/dataset.h"

namespace tpiin {

/// Options for the multi-network fusion pipeline.
struct FusionOptions {
  /// Run RawDataset::Validate() before fusing. Disable only when the
  /// caller has already validated (e.g. Table 1 re-fuses the same
  /// antecedent data twenty times with different trading layers).
  bool validate_dataset = true;

  /// Worker threads for the parallel fusion stages: the independent
  /// relationship-layer builds (each with its serial contraction) run
  /// as concurrent tasks, syndicate labels build in parallel, the final
  /// validation runs beside the CSR freeze, and each freeze builds its
  /// two CSR halves concurrently. Deduplication, union-find and Tarjan
  /// stay serial. 0 = auto-detect, 1 = fully serial. The TPIIN is
  /// bit-identical at any value (tests/fusion/parallel_fusion_test.cc).
  uint32_t num_threads = 1;
};

/// Per-stage counters of the fusion procedure (Fig. 5), reported by the
/// network-figure benches and useful when calibrating generators.
struct FusionStats {
  // G1 (interdependence graph).
  size_t g1_nodes = 0;
  size_t g1_edges = 0;  // After pair dedup.

  // Person contraction (G12 -> G12').
  size_t person_syndicates = 0;       // Person nodes in the TPIIN.
  size_t persons_in_syndicates = 0;   // Persons merged into size>1 nodes.

  // G2 / influence arcs.
  size_t influence_records = 0;
  size_t influence_arcs = 0;  // After contraction + dedup.

  // GI / investment arcs.
  size_t investment_records = 0;
  size_t investment_arcs = 0;           // After contraction + dedup.
  size_t investment_arcs_intra_scc = 0; // Dropped into syndicates.

  // SCC contraction.
  size_t company_syndicates = 0;        // Non-trivial SCS count.
  size_t companies_in_syndicates = 0;

  // Antecedent network (G123).
  size_t antecedent_nodes = 0;
  size_t antecedent_arcs = 0;

  // Trading overlay (G4).
  size_t trade_records = 0;
  size_t trading_arcs = 0;              // After mapping + dedup.
  size_t intra_syndicate_trades = 0;

  std::string ToString() const;
};

/// Wall/CPU seconds per fusion stage. The stages partition BuildTpiin,
/// so layers + assemble + overlay + build ~= total (the remainder is
/// validation and stats bookkeeping).
struct FusionTimings {
  double layers_seconds = 0;    ///< Stage A: parallel layer builds.
  double assemble_seconds = 0;  ///< Stage B: nodes + antecedent arcs.
  double overlay_seconds = 0;   ///< Trading overlay (G4).
  double build_seconds = 0;     ///< Final validate + CSR freeze.
  double total_seconds = 0;
  double layers_cpu_seconds = 0;
  double assemble_cpu_seconds = 0;
  double overlay_cpu_seconds = 0;
  double build_cpu_seconds = 0;
};

/// Result of fusion: the TPIIN plus its build statistics.
struct FusionOutput {
  Tpiin tpiin;
  FusionStats stats;
  FusionTimings timings;
};

/// Runs the full multi-network fusion of §4.1 (Fig. 5):
///   G1 -> person-syndicate contraction -> + G2 -> G12' -> + GI -> G_B
///   -> Tarjan SCC contraction -> G123 (antecedent DAG) -> + G4 -> TPIIN.
Result<FusionOutput> BuildTpiin(const RawDataset& dataset,
                                const FusionOptions& options = {});

class RunReport;

/// Folds a fusion run into `report`: per-stage wall/CPU rows, a
/// "fusion" section mirroring FusionStats, and network-shape gauges.
void AddFusionToReport(const FusionOutput& output, RunReport* report);

}  // namespace tpiin

#endif  // TPIIN_FUSION_PIPELINE_H_
