#include "fusion/pipeline.h"

#include <array>
#include <functional>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "fusion/layers.h"
#include "graph/frozen.h"
#include "graph/scc.h"
#include "graph/union_find.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace tpiin {

namespace {

// Builds a syndicate display label from member names: a single member
// keeps its own name; merged members render as "{a+b+c}".
std::string SyndicateLabel(const std::vector<std::string>& names) {
  if (names.size() == 1) return names[0];
  std::string out = "{";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += '+';
    out += names[i];
  }
  out += '}';
  return out;
}

}  // namespace

std::string FusionStats::ToString() const {
  return StringPrintf(
      "G1: %zu persons, %zu interdependence edges -> %zu person nodes "
      "(%zu persons merged)\n"
      "G2: %zu influence records -> %zu influence arcs\n"
      "GI: %zu investment records -> %zu investment arcs "
      "(%zu intra-SCC dropped); %zu company syndicates covering %zu "
      "companies\n"
      "Antecedent: %zu nodes, %zu arcs (DAG)\n"
      "Trading: %zu trade records -> %zu trading arcs "
      "(%zu intra-syndicate)",
      g1_nodes, g1_edges, person_syndicates, persons_in_syndicates,
      influence_records, influence_arcs, investment_records,
      investment_arcs, investment_arcs_intra_scc, company_syndicates,
      companies_in_syndicates, antecedent_nodes, antecedent_arcs,
      trade_records, trading_arcs, intra_syndicate_trades);
}

Result<FusionOutput> BuildTpiin(const RawDataset& dataset,
                                const FusionOptions& options) {
  TPIIN_SPAN("fuse");
  WallTimer total_timer;
  if (options.validate_dataset) {
    TPIIN_SPAN("validate_dataset");
    TPIIN_FAILPOINT("fusion.validate");
    TPIIN_RETURN_IF_ERROR(dataset.Validate());
  }
  const uint32_t threads = ResolveThreadCount(options.num_threads);

  FusionStats stats;
  FusionTimings timings;
  WallTimer stage_timer;
  double stage_cpu = ProcessCpuSeconds();
  const auto close_stage = [&](double* wall_sink, double* cpu_sink) {
    *wall_sink = stage_timer.ElapsedSeconds();
    const double cpu_now = ProcessCpuSeconds();
    *cpu_sink = cpu_now - stage_cpu;
    stage_timer.Restart();
    stage_cpu = cpu_now;
  };
  const NodeId num_persons = static_cast<NodeId>(dataset.persons().size());
  const NodeId num_companies =
      static_cast<NodeId>(dataset.companies().size());

  // --- Stage A: the relationship layers are independent views of the
  // raw dataset, so their builds — and the contractions that only
  // depend on one layer — run as concurrent tasks. Every task writes to
  // its own slots; all stats are derived serially afterwards, so the
  // output is identical at any thread count.
  std::vector<Arc> g1;
  std::vector<NodeId> person_component;
  NodeId num_person_nodes = 0;
  std::vector<Arc> gi;
  SccResult scc;
  std::vector<double> influence_weight(dataset.influence().size());
  std::vector<std::vector<InvestmentArc>> internal_of_component;

  const std::array<std::function<Status()>, 3> layer_tasks = {
      // G1 (kinship + interlocking) + edge contraction: connected
      // components of the interdependence graph become person
      // syndicates. Repeated pairwise edge contraction (the paper's
      // formulation) and union-find produce the same partition; see
      // bench_ablation for the comparison.
      [&]() -> Status {
        TPIIN_FAILPOINT("fusion.layer.g1");
        g1 = BuildInterdependenceGraph(dataset);
        UnionFind person_uf(num_persons);
        for (const Arc& arc : g1) person_uf.Union(arc.src, arc.dst);
        person_component = person_uf.DenseComponentIds();
        num_person_nodes = person_uf.NumSets();
        return Status::OK();
      },
      // GI + Tarjan SCC contraction: strongly connected investment
      // subgraphs become company syndicates. Tarjan runs over the CSR
      // view (one contiguous target array instead of per-node id
      // vectors).
      [&]() -> Status {
        TPIIN_FAILPOINT("fusion.layer.gi");
        gi = BuildInvestmentGraph(dataset);
        FrozenGraph frozen_gi(num_companies, gi, kLayerInvestment, threads);
        scc = StronglyConnectedComponents(frozen_gi);

        // Internal investment arcs of each SCC, collected in one O(arcs)
        // pass in arc-id order, so proof chains follow record order.
        // Only syndicates (more than one member) keep theirs.
        internal_of_component.resize(scc.num_components);
        for (const Arc& arc : gi) {
          NodeId comp = scc.component_of[arc.src];
          if (comp != scc.component_of[arc.dst]) continue;
          internal_of_component[comp].push_back(InvestmentArc{
              static_cast<CompanyId>(arc.src),
              static_cast<CompanyId>(arc.dst)});
        }
        return Status::OK();
      },
      // Influence layer (G2): per-record arc weights, implementing §7's
      // future-work edge weighting — a legal-person link is full
      // strength, director-type links are weaker.
      [&]() -> Status {
        TPIIN_FAILPOINT("fusion.layer.g2");
        const std::vector<InfluenceRecord>& influence = dataset.influence();
        ThreadPool::Global().ParallelForRanges(
            influence.size(), threads, [&](size_t lo, size_t hi) {
              for (size_t i = lo; i < hi; ++i) {
                const InfluenceRecord& rec = influence[i];
                double weight = 1.0;
                if (!rec.is_legal_person) {
                  switch (rec.kind) {
                    case InfluenceKind::kCeoAndDirectorOf:
                      weight = 0.9;
                      break;
                    case InfluenceKind::kCeoOf:
                    case InfluenceKind::kChairmanOf:
                      weight = 0.8;
                      break;
                    case InfluenceKind::kDirectorOf:
                      weight = 0.6;
                      break;
                  }
                }
                influence_weight[i] = weight;
              }
            });
        return Status::OK();
      },
  };
  {
    TPIIN_SPAN("fuse_layers");
    // Checked run: a failing layer task (or a thrown exception inside
    // one) surfaces as this function's Status instead of crashing the
    // pool; the cancel token lets the sibling layer builds that have not
    // started yet exit early.
    CancelToken cancel;
    TPIIN_RETURN_IF_ERROR(
        ThreadPool::Global().RunTasksChecked(layer_tasks, threads, &cancel));
  }
  close_stage(&timings.layers_seconds, &timings.layers_cpu_seconds);

  stats.g1_nodes = num_persons;
  stats.g1_edges = g1.size();
  stats.person_syndicates = num_person_nodes;
  stats.investment_records = dataset.investments().size();
  const NodeId num_company_nodes = scc.num_components;
  stats.company_syndicates = scc.nontrivial_components.size();
  for (NodeId comp : scc.nontrivial_components) {
    stats.companies_in_syndicates += scc.members[comp].size();
  }

  // --- Stage B: assemble TPIIN nodes, person syndicates first, then
  // company (syndicate) nodes, so arc ids and node ids stay grouped by
  // color. Syndicate member lists and display labels are precomputed in
  // parallel (index-addressed, so deterministic); the builder inserts
  // serially to keep node ids sequential.
  TpiinBuilder builder;
  std::vector<NodeId> person_node(num_persons, kInvalidNode);
  std::vector<NodeId> company_node(num_companies, kInvalidNode);

  {
    TPIIN_SPAN("fuse_assemble_persons");
    std::vector<std::vector<PersonId>> members(num_person_nodes);
    for (PersonId p = 0; p < num_persons; ++p) {
      members[person_component[p]].push_back(p);
    }
    std::vector<std::string> labels(num_person_nodes);
    ThreadPool::Global().ParallelForRanges(
        num_person_nodes, threads, [&](size_t lo, size_t hi) {
          std::vector<std::string> names;
          for (size_t c = lo; c < hi; ++c) {
            names.clear();
            names.reserve(members[c].size());
            for (PersonId p : members[c]) {
              names.push_back(dataset.persons()[p].name);
            }
            labels[c] = SyndicateLabel(names);
          }
        });
    for (NodeId c = 0; c < num_person_nodes; ++c) {
      if (members[c].size() > 1) {
        stats.persons_in_syndicates += members[c].size();
      }
      NodeId id = builder.AddPersonNode(std::move(labels[c]), members[c]);
      for (PersonId p : members[c]) person_node[p] = id;
    }
  }
  {
    TPIIN_SPAN("fuse_assemble_companies");
    std::vector<std::string> labels(num_company_nodes);
    std::vector<std::vector<CompanyId>> ids(num_company_nodes);
    ThreadPool::Global().ParallelForRanges(
        num_company_nodes, threads, [&](size_t lo, size_t hi) {
          std::vector<std::string> names;
          for (size_t comp = lo; comp < hi; ++comp) {
            const std::vector<NodeId>& comp_members = scc.members[comp];
            names.clear();
            names.reserve(comp_members.size());
            ids[comp].reserve(comp_members.size());
            for (NodeId c : comp_members) {
              names.push_back(dataset.companies()[c].name);
              ids[comp].push_back(static_cast<CompanyId>(c));
            }
            labels[comp] = SyndicateLabel(names);
          }
        });
    for (NodeId comp = 0; comp < num_company_nodes; ++comp) {
      NodeId id = builder.AddCompanyNode(std::move(labels[comp]), ids[comp]);
      for (CompanyId c : ids[comp]) company_node[c] = id;
      if (ids[comp].size() > 1) {
        // Keep the SCS-internal investment arcs: they carry the proof
        // chains for intra-syndicate suspicious trades.
        builder.SetInternalInvestments(
            id, std::move(internal_of_component[comp]));
      }
    }
  }

  // --- Influence arcs (G12'): person syndicate -> company node, with
  // the weights computed in stage A. Build() deduplicates, keeping the
  // maximum weight.
  stats.influence_records = dataset.influence().size();
  for (size_t i = 0; i < dataset.influence().size(); ++i) {
    const InfluenceRecord& rec = dataset.influence()[i];
    builder.AddInfluenceArc(person_node[rec.person],
                            company_node[rec.company], influence_weight[i]);
  }

  // --- Investment arcs mapped through the SCC contraction; arcs inside
  // one syndicate disappear (they became internal_investments above).
  // The held share fraction becomes the arc weight.
  for (const InvestmentRecord& rec : dataset.investments()) {
    NodeId src = company_node[rec.investor];
    NodeId dst = company_node[rec.investee];
    if (src == dst) {
      ++stats.investment_arcs_intra_scc;
      continue;
    }
    builder.AddInfluenceArc(src, dst, rec.share);
  }
  stats.antecedent_nodes = num_person_nodes + num_company_nodes;
  close_stage(&timings.assemble_seconds, &timings.assemble_cpu_seconds);

  // --- Trading overlay (G4) mapped through the contraction.
  // Intra-syndicate trades are kept per raw record; Build() keeps the
  // first of each trading arc.
  stats.trade_records = dataset.trades().size();
  {
    TPIIN_SPAN("fuse_overlay");
    for (const TradeRecord& rec : dataset.trades()) {
      NodeId src = company_node[rec.seller];
      NodeId dst = company_node[rec.buyer];
      if (src == dst) {
        builder.AddIntraSyndicateTrade(src, rec.seller, rec.buyer);
        ++stats.intra_syndicate_trades;
        continue;
      }
      builder.AddTradingArc(src, dst);
    }
  }
  close_stage(&timings.overlay_seconds, &timings.overlay_cpu_seconds);

  builder.SetEntityMaps(std::move(person_node), std::move(company_node));
  TPIIN_FAILPOINT("fusion.build");
  Result<Tpiin> built = [&]() {
    TPIIN_SPAN("fuse_build");
    return builder.Build(threads);
  }();
  TPIIN_RETURN_IF_ERROR(built.status());
  Tpiin net = std::move(built).value();
  // Influence-range arcs from Person nodes are G2's; from Company nodes,
  // GI's.
  for (ArcId id = 0; id < net.num_influence_arcs(); ++id) {
    if (net.color(net.arc(id).src) == NodeColor::kPerson) {
      ++stats.influence_arcs;
    } else {
      ++stats.investment_arcs;
    }
  }
  stats.antecedent_arcs = net.num_influence_arcs();
  stats.trading_arcs = net.num_trading_arcs();
  close_stage(&timings.build_seconds, &timings.build_cpu_seconds);
  timings.total_seconds = total_timer.ElapsedSeconds();

  TPIIN_GAUGE_SET("fusion.nodes", static_cast<int64_t>(net.NumNodes()));
  TPIIN_GAUGE_SET("fusion.arcs",
                  static_cast<int64_t>(net.num_influence_arcs() +
                                       net.num_trading_arcs()));
  TPIIN_GAUGE_SET("fusion.person_syndicates",
                  static_cast<int64_t>(stats.person_syndicates));
  TPIIN_GAUGE_SET("fusion.company_syndicates",
                  static_cast<int64_t>(stats.company_syndicates));
  TPIIN_GAUGE_SET("fusion.trading_arcs",
                  static_cast<int64_t>(stats.trading_arcs));
  return FusionOutput{std::move(net), stats, timings};
}

void AddFusionToReport(const FusionOutput& output, RunReport* report) {
  const FusionTimings& t = output.timings;
  report->AddStage("layers", t.layers_seconds, t.layers_cpu_seconds);
  report->AddStage("assemble", t.assemble_seconds, t.assemble_cpu_seconds);
  report->AddStage("overlay", t.overlay_seconds, t.overlay_cpu_seconds);
  report->AddStage("build", t.build_seconds, t.build_cpu_seconds);
  report->set_total_seconds(t.total_seconds);

  const FusionStats& stats = output.stats;
  ReportSection& section = report->Section("fusion");
  section.Set("g1_nodes", stats.g1_nodes);
  section.Set("g1_edges", stats.g1_edges);
  section.Set("person_syndicates", stats.person_syndicates);
  section.Set("persons_in_syndicates", stats.persons_in_syndicates);
  section.Set("influence_records", stats.influence_records);
  section.Set("influence_arcs", stats.influence_arcs);
  section.Set("investment_records", stats.investment_records);
  section.Set("investment_arcs", stats.investment_arcs);
  section.Set("investment_arcs_intra_scc", stats.investment_arcs_intra_scc);
  section.Set("company_syndicates", stats.company_syndicates);
  section.Set("companies_in_syndicates", stats.companies_in_syndicates);
  section.Set("antecedent_nodes", stats.antecedent_nodes);
  section.Set("antecedent_arcs", stats.antecedent_arcs);
  section.Set("trade_records", stats.trade_records);
  section.Set("trading_arcs", stats.trading_arcs);
  section.Set("intra_syndicate_trades", stats.intra_syndicate_trades);

  ReportSection& net_section = report->Section("network");
  net_section.Set("nodes",
                  static_cast<uint64_t>(output.tpiin.NumNodes()));
  net_section.Set(
      "influence_arcs",
      static_cast<uint64_t>(output.tpiin.num_influence_arcs()));
  net_section.Set("trading_arcs",
                  static_cast<uint64_t>(output.tpiin.num_trading_arcs()));
}

}  // namespace tpiin
