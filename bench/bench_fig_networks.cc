// Reproduces the network statistics behind Figs. 11-16: the homogeneous
// layers G1 (interdependence), G2 (influence), G3 (investment), the
// antecedent network G123, the trading network G4 (p = 0.002) and the
// fused TPIIN. The paper renders these in Gephi; here we report the
// structural quantities its captions state (node counts per class, arc
// counts, degree statistics) for the synthetic province generated at the
// published population (776 directors, 1350 legal persons, 2452
// companies).

#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_net.h"
#include "common/logging.h"
#include "common/timer.h"
#include "datagen/province.h"
#include "fusion/layers.h"
#include "fusion/pipeline.h"
#include "graph/connected.h"
#include "graph/degree.h"
#include "graph/scc.h"
#include "graph/topo.h"

namespace tpiin {
namespace {

void PrintStats(const char* figure, const char* name,
                const DegreeStats& stats) {
  std::printf(
      "%-8s %-22s nodes=%-6u arcs=%-7u avg-degree=%-8.3f max-in=%-5u "
      "max-out=%-5u isolated=%u\n",
      figure, name, stats.num_nodes, stats.num_arcs, stats.average_degree,
      stats.max_in_degree, stats.max_out_degree, stats.num_isolated);
}

// Figs. 14 and 16 describe the fused TPIIN itself, so they are computed
// from the frozen CSR and work for both input paths. Figs. 11-13 and 15
// describe the raw homogeneous layers, which a snapshot does not carry —
// in --snapshot mode those are skipped.
void PrintFig14(const Tpiin& net) {
  DegreeStats antecedent =
      ComputeDegreeStats(net.frozen(), FrozenArcClass::kInfluence);
  PrintStats("Fig.14", "G123 antecedent", antecedent);
  WccResult wcc =
      WeaklyConnectedComponents(net.frozen(), FrozenArcClass::kInfluence);
  std::printf("         (DAG verified: %s; %u weakly connected "
              "components)\n",
              IsDag(net.frozen(), FrozenArcClass::kInfluence) ? "yes" : "no",
              wcc.num_components);
}

void PrintFig16(BenchJsonWriter& json, const Tpiin& net) {
  PrintStats("Fig.16", "TPIIN (fused)",
             ComputeDegreeStats(net.frozen(), FrozenArcClass::kAll));
  json.Record("fig_networks_tpiin_nodes", "p=0.002", 0, net.NumNodes());
  json.Record("fig_networks_tpiin_arcs", "p=0.002", 0, net.NumArcs());
}

int Run(BenchJsonWriter& json, BenchNetSource& source) {
  if (source.from_snapshot()) {
    const Tpiin& net = source.Open();
    std::printf("=== Figs. 14/16: fused TPIIN (from snapshot; raw-layer "
                "figures 11-13/15 need the CSV dataset) ===\n");
    PrintFig14(net);
    PrintFig16(json, net);
    json.Record("fig_networks_snapshot_open", "p=0.002",
                source.open_seconds());
    json.Flush();
    return 0;
  }
  ProvinceConfig config = PaperProvinceConfig();
  config.trading_probability = 0.002;  // Fig. 15 uses the sparsest layer.
  Result<Province> province = GenerateProvince(config);
  TPIIN_CHECK(province.ok()) << province.status().ToString();
  const RawDataset& data = province->dataset;

  size_t acting_lps = 0;
  {
    std::vector<bool> is_lp(data.persons().size(), false);
    for (const InfluenceRecord& rec : data.influence()) {
      if (rec.is_legal_person) is_lp[rec.person] = true;
    }
    for (bool lp : is_lp) acting_lps += lp ? 1 : 0;
  }
  std::printf("=== Figs. 11-16: network layers of the provincial TPIIN "
              "===\n");
  std::printf(
      "Population: %zu persons (paper: 776 directors + 1350 legal "
      "persons), of whom %zu act as a registered LP; %zu companies "
      "(paper: 2452)\n\n",
      data.persons().size(), acting_lps, data.companies().size());

  const NodeId num_persons = static_cast<NodeId>(data.persons().size());
  const NodeId num_companies = static_cast<NodeId>(data.companies().size());
  const std::vector<Arc> g1 = BuildInterdependenceGraph(data);
  PrintStats("Fig.11", "G1 interdependence",
             ComputeDegreeStats(FrozenGraph(num_persons, g1)));
  size_t kinship = 0;
  size_t interlocking = 0;
  for (const Arc& arc : g1) {
    (arc.color == kLayerKinship ? kinship : interlocking) += 1;
  }
  std::printf("         (kinship edges=%zu, interlocking edges=%zu)\n",
              kinship, interlocking);

  PrintStats("Fig.12", "G2 influence",
             ComputeDegreeStats(FrozenGraph(num_persons + num_companies,
                                            BuildInfluenceLayerGraph(data))));

  const FrozenGraph g3(num_companies, BuildInvestmentGraph(data));
  PrintStats("Fig.13", "G3 investment", ComputeDegreeStats(g3));
  SccResult scc = StronglyConnectedComponents(g3);
  std::printf(
      "         (strongly connected subgraphs: %zu — the paper found "
      "none either; G3 is a simple DAG: %s)\n",
      scc.nontrivial_components.size(),
      IsDag(g3) ? "yes" : "no");

  WallTimer fuse_timer;
  Result<FusionOutput> fused = BuildTpiin(data);
  TPIIN_CHECK(fused.ok()) << fused.status().ToString();
  double fuse_s = fuse_timer.ElapsedSeconds();
  const Tpiin& net = fused->tpiin;
  source.MaybeWrite(net);

  PrintFig14(net);

  PrintStats("Fig.15", "G4 trading (p=0.002)",
             ComputeDegreeStats(
                 FrozenGraph(num_companies, BuildTradingGraph(data))));

  PrintFig16(json, net);
  std::printf("         (TPIIN nodes=%u: %zu person/syndicate + %zu "
              "company nodes; paper total 4578)\n",
              net.NumNodes(), fused->stats.person_syndicates,
              static_cast<size_t>(net.NumNodes()) -
                  fused->stats.person_syndicates);
  std::printf("\nFusion detail:\n%s\n", fused->stats.ToString().c_str());
  json.Record("fig_networks_fuse", "p=0.002", fuse_s,
              fuse_s > 0 ? net.NumArcs() / fuse_s : 0);
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
