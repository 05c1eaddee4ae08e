#include "core/subtpiin.h"

#include <algorithm>

#include "common/logging.h"
#include "graph/connected.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tpiin {

std::vector<SubTpiin> SegmentTpiin(const Tpiin& net,
                                   const SegmentOptions& options,
                                   SegmentStats* stats) {
  TPIIN_SPAN("segment_tpiin");
  const FrozenGraph& fg = net.frozen();

  // A snapshot-backed network carries the antecedent WCC decomposition
  // precomputed by the snapshot writer (which ran exactly the function
  // called in the else-branch); reusing it skips the union-find pass.
  // Member lists rebuild by bucketing ascending node ids, which matches
  // the sorted-ascending invariant of WccResult::members.
  WccResult wcc;
  if (net.has_wcc_index()) {
    std::span<const NodeId> component_of = net.WccComponentOf();
    wcc.component_of.assign(component_of.begin(), component_of.end());
    wcc.num_components = net.NumWccComponents();
    wcc.members.resize(wcc.num_components);
    for (NodeId v = 0; v < net.NumNodes(); ++v) {
      wcc.members[wcc.component_of[v]].push_back(v);
    }
  } else {
    wcc = WeaklyConnectedComponents(fg, FrozenArcClass::kInfluence);
  }

  // Bucket trading arcs by component; cross-component arcs are dropped.
  std::vector<std::vector<ArcId>> trading_of_component(wcc.num_components);
  size_t internal = 0;
  size_t cross = 0;
  for (ArcId id = net.num_influence_arcs(); id < net.NumArcs(); ++id) {
    const Arc arc = net.arc(id);
    NodeId cs = wcc.component_of[arc.src];
    NodeId cd = wcc.component_of[arc.dst];
    if (cs == cd) {
      trading_of_component[cs].push_back(id);
      ++internal;
    } else {
      ++cross;
    }
  }

  if (stats != nullptr) {
    stats->num_components = wcc.num_components;
    stats->trading_arcs_internal = internal;
    stats->trading_arcs_cross = cross;
  }

  std::vector<NodeId> local_of_global(net.NumNodes(), kInvalidNode);
  std::vector<Arc> arcs;  // Reused per component.
  std::vector<SubTpiin> out;
  for (NodeId comp = 0; comp < wcc.num_components; ++comp) {
    const std::vector<NodeId>& members = wcc.members[comp];
    if (options.skip_singletons && members.size() <= 1) continue;
    if (options.skip_tradeless && trading_of_component[comp].empty()) {
      continue;
    }

    SubTpiin sub;
    sub.parent = &net;
    sub.global_of_local = members;  // Already sorted ascending.
    for (NodeId local = 0; local < members.size(); ++local) {
      local_of_global[members[local]] = local;
    }

    // Local arc table: influence arcs internal to the component (all
    // arcs touching a member are internal by construction of the WCC)
    // in CSR span order, then the component's trading arcs in id order.
    arcs.clear();
    for (NodeId local = 0; local < members.size(); ++local) {
      NodeId global = members[local];
      AdjSpan influence_out = fg.InfluenceOut(global);
      for (size_t i = 0; i < influence_out.size(); ++i) {
        NodeId dst = influence_out.nodes[i];
        TPIIN_CHECK_EQ(wcc.component_of[dst], comp);
        arcs.push_back(Arc{local, local_of_global[dst], kArcInfluence});
        sub.global_arc_of_local.push_back(influence_out.arcs[i]);
      }
    }
    sub.num_influence_arcs = static_cast<ArcId>(arcs.size());

    for (ArcId id : trading_of_component[comp]) {
      const Arc arc = net.arc(id);
      arcs.push_back(Arc{local_of_global[arc.src], local_of_global[arc.dst],
                         kArcTrading});
      sub.global_arc_of_local.push_back(id);
    }

    sub.frozen = FrozenGraph(static_cast<NodeId>(members.size()), arcs,
                             kArcInfluence);
    out.push_back(std::move(sub));
  }

  if (stats != nullptr) stats->num_emitted = out.size();
  TPIIN_COUNTER_ADD("segment.components_emitted", out.size());
  TPIIN_COUNTER_ADD("segment.trading_arcs_cross", cross);
  return out;
}

}  // namespace tpiin
