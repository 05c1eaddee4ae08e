#include "fusion/tpiin.h"

#include <algorithm>
#include <array>
#include <functional>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "fusion/layers.h"
#include "graph/topo.h"

namespace tpiin {

std::string_view NodeColorName(NodeColor color) {
  switch (color) {
    case NodeColor::kPerson:
      return "Person";
    case NodeColor::kCompany:
      return "Company";
  }
  return "unknown";
}

std::vector<std::array<uint32_t, 3>> Tpiin::ToEdgeList() const {
  std::vector<std::array<uint32_t, 3>> rows;
  rows.reserve(NumArcs());
  for (ArcId id = 0; id < NumArcs(); ++id) {
    const Arc row = arc(id);
    rows.push_back({row.src, row.dst, static_cast<uint32_t>(row.color)});
  }
  return rows;
}

TpiinBuilder::TpiinBuilder() {
  net_.label_offsets_.vec().push_back(0);
  net_.person_member_offsets_.vec().push_back(0);
  net_.company_member_offsets_.vec().push_back(0);
}

NodeId TpiinBuilder::AddNode(NodeColor color, std::string_view label) {
  const NodeId id = static_cast<NodeId>(net_.node_color_.vec().size());
  net_.node_color_.vec().push_back(color);
  std::vector<char>& bytes = net_.label_bytes_.vec();
  bytes.insert(bytes.end(), label.begin(), label.end());
  net_.label_offsets_.vec().push_back(bytes.size());
  staged_investments_.emplace_back();
  return id;
}

NodeId TpiinBuilder::AddPersonNode(std::string_view label,
                                   std::vector<PersonId> members) {
  NodeId id = AddNode(NodeColor::kPerson, label);
  std::vector<PersonId>& values = net_.person_members_.vec();
  values.insert(values.end(), members.begin(), members.end());
  net_.person_member_offsets_.vec().push_back(values.size());
  net_.company_member_offsets_.vec().push_back(
      net_.company_members_.vec().size());
  return id;
}

NodeId TpiinBuilder::AddCompanyNode(std::string_view label,
                                    std::vector<CompanyId> members) {
  NodeId id = AddNode(NodeColor::kCompany, label);
  std::vector<CompanyId>& values = net_.company_members_.vec();
  values.insert(values.end(), members.begin(), members.end());
  net_.company_member_offsets_.vec().push_back(values.size());
  net_.person_member_offsets_.vec().push_back(
      net_.person_members_.vec().size());
  return id;
}

void TpiinBuilder::AddInfluenceArc(NodeId from, NodeId to, double weight) {
  if (saw_trading_arc_) {
    failed_ordering_ = true;
    return;
  }
  AppendArc(from, to, weight);
  ++net_.num_influence_arcs_;
}

void TpiinBuilder::AddTradingArc(NodeId seller, NodeId buyer) {
  saw_trading_arc_ = true;
  AppendArc(seller, buyer, 1.0);
}

void TpiinBuilder::AppendArc(NodeId src, NodeId dst, double weight) {
  const size_t num_nodes = net_.node_color_.vec().size();
  TPIIN_CHECK_LT(src, num_nodes) << "arc from a missing node";
  TPIIN_CHECK_LT(dst, num_nodes) << "arc to a missing node";
  net_.arc_src_.vec().push_back(src);
  net_.arc_dst_.vec().push_back(dst);
  net_.arc_weight_.vec().push_back(weight);
}

void TpiinBuilder::DeduplicateArcs() {
  std::vector<NodeId>& src = net_.arc_src_.vec();
  std::vector<NodeId>& dst = net_.arc_dst_.vec();
  std::vector<double>& weight = net_.arc_weight_.vec();
  size_t kept = 0;
  // Moves the first occurrences among rows [lo, hi) down to row `kept`.
  const auto keep_first = [&](size_t lo, size_t hi) {
    std::vector<uint64_t> keys(hi - lo);
    for (size_t i = lo; i < hi; ++i) keys[i - lo] = PairKey(src[i], dst[i]);
    const std::vector<uint32_t> first = FirstOccurrences(keys);
    for (size_t i = lo; i < hi; ++i) {
      double& kept_weight = weight[lo + first[i - lo]];
      kept_weight = std::max(kept_weight, weight[i]);
    }
    for (size_t i = lo; i < hi; ++i) {
      if (lo + first[i - lo] != i) continue;
      src[kept] = src[i];
      dst[kept] = dst[i];
      weight[kept] = weight[i];
      ++kept;
    }
  };
  const size_t num_influence = net_.num_influence_arcs_;
  keep_first(0, num_influence);
  net_.num_influence_arcs_ = static_cast<ArcId>(kept);
  keep_first(num_influence, src.size());
  src.resize(kept);
  dst.resize(kept);
  weight.resize(kept);
}

void TpiinBuilder::AddIntraSyndicateTrade(NodeId syndicate, CompanyId seller,
                                          CompanyId buyer) {
  net_.intra_syndicate_trades_.vec().push_back(
      IntraSyndicateTrade{syndicate, seller, buyer});
}

void TpiinBuilder::SetInternalInvestments(NodeId node,
                                          std::vector<InvestmentArc> arcs) {
  TPIIN_CHECK_LT(node, staged_investments_.size());
  staged_investments_[node] = std::move(arcs);
}

void TpiinBuilder::SetEntityMaps(std::vector<NodeId> person_node,
                                 std::vector<NodeId> company_node) {
  net_.person_node_.Assign(std::move(person_node));
  net_.company_node_.Assign(std::move(company_node));
}

Result<Tpiin> TpiinBuilder::Build(uint32_t num_threads) {
  if (failed_ordering_) {
    return Status::FailedPrecondition(
        "influence arcs must all precede trading arcs");
  }

  DeduplicateArcs();

  // Flatten the per-node investment stash into its CSR columns, then
  // seal every column: from here on the network is read-only and all
  // accessors (including the validation passes below) go through the
  // sealed views.
  std::vector<uint64_t>& inv_offsets =
      net_.internal_investment_offsets_.vec();
  std::vector<InvestmentArc>& inv = net_.internal_investments_.vec();
  inv_offsets.reserve(staged_investments_.size() + 1);
  inv_offsets.push_back(0);
  for (std::vector<InvestmentArc>& arcs : staged_investments_) {
    inv.insert(inv.end(), arcs.begin(), arcs.end());
    inv_offsets.push_back(inv.size());
  }
  net_.node_color_.Seal();
  net_.label_offsets_.Seal();
  net_.label_bytes_.Seal();
  net_.person_member_offsets_.Seal();
  net_.person_members_.Seal();
  net_.company_member_offsets_.Seal();
  net_.company_members_.Seal();
  net_.internal_investment_offsets_.Seal();
  net_.internal_investments_.Seal();
  net_.arc_src_.Seal();
  net_.arc_dst_.Seal();
  net_.arc_weight_.Seal();
  net_.intra_syndicate_trades_.Seal();

  // The CSR is built from the arc table while the endpoint validation
  // (which only reads the sealed columns) runs beside it; the freeze is
  // simply discarded if validation fails.
  std::vector<Arc> arcs(net_.NumArcs());
  for (ArcId id = 0; id < arcs.size(); ++id) arcs[id] = net_.arc(id);
  Status arc_status = Status::OK();
  const std::array<std::function<void()>, 2> passes = {
      [&] { arc_status = ValidateArcs(); },
      [&] {
        net_.frozen_ = FrozenGraph(net_.NumNodes(), arcs, kArcInfluence,
                                   num_threads);
      },
  };
  ThreadPool::Global().RunTasks(passes, num_threads);

  if (!arc_status.ok()) return arc_status;
  // Property 1 rests on the antecedent network being a DAG.
  if (!IsDag(net_.frozen_, FrozenArcClass::kInfluence)) {
    return Status::FailedPrecondition(
        "antecedent (influence) subgraph contains a directed cycle; run "
        "SCC contraction before building a TPIIN");
  }
  return std::move(net_);
}

Status TpiinBuilder::ValidateArcs() const {
  for (ArcId id = 0; id < net_.NumArcs(); ++id) {
    const Arc arc = net_.arc(id);
    if (IsInfluenceArc(arc)) {
      if (net_.color(arc.dst) != NodeColor::kCompany) {
        return Status::FailedPrecondition(
            "influence arc must end at a Company node: " + LabelOf(arc.src) +
            " -> " + LabelOf(arc.dst));
      }
    } else {
      if (net_.color(arc.src) != NodeColor::kCompany ||
          net_.color(arc.dst) != NodeColor::kCompany) {
        return Status::FailedPrecondition(
            "trading arc must connect Company nodes: " + LabelOf(arc.src) +
            " -> " + LabelOf(arc.dst));
      }
      if (arc.src == arc.dst) {
        return Status::FailedPrecondition(
            "trading self-loop on node " + LabelOf(arc.src) +
            "; intra-syndicate trades must use AddIntraSyndicateTrade");
      }
    }
  }
  return Status::OK();
}

}  // namespace tpiin
