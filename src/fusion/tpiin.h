#ifndef TPIIN_FUSION_TPIIN_H_
#define TPIIN_FUSION_TPIIN_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/column.h"
#include "common/result.h"
#include "graph/frozen.h"
#include "graph/types.h"
#include "model/records.h"

namespace tpiin {

/// Node colors of a TPIIN (Definition 1): Person covers natural persons
/// and person syndicates; Company covers companies and company
/// (SCC) syndicates.
enum class NodeColor : uint8_t { kPerson = 0, kCompany = 1 };

std::string_view NodeColorName(NodeColor color);

/// Arc colors of a TPIIN. Values match the paper's edge-list encoding
/// ("0 represents black [trading] while 1 represents blue [influence]").
inline constexpr ArcColor kArcTrading = 0;
inline constexpr ArcColor kArcInfluence = 1;

inline bool IsTradingArc(const Arc& arc) { return arc.color == kArcTrading; }
inline bool IsInfluenceArc(const Arc& arc) {
  return arc.color == kArcInfluence;
}

/// One investment arc internal to a contracted SCC syndicate. Plain
/// aggregate (two dense ids) so syndicate provenance serializes into the
/// snapshot as a fixed-width column.
struct InvestmentArc {
  CompanyId investor = 0;
  CompanyId investee = 0;

  friend bool operator==(const InvestmentArc&,
                         const InvestmentArc&) = default;
};

/// A read-only view of one TPIIN vertex with its provenance. A Person
/// node may be a syndicate of several natural persons (edge contraction
/// of interdependence links); a Company node may be a syndicate of
/// several companies (contraction of a strongly connected investment
/// subgraph).
///
/// The view points into the network's columnar node store (owned arrays
/// for fused networks, mmap-ed sections for snapshot-backed ones), so it
/// is cheap to take by value and must not outlive the Tpiin.
struct TpiinNode {
  NodeColor color = NodeColor::kPerson;
  /// Display label: the original entity's name, or "{a+b+...}" for
  /// syndicates.
  std::string_view label;
  /// Original persons merged into this node (Person nodes only).
  std::span<const PersonId> person_members;
  /// Original companies merged into this node (Company nodes only).
  std::span<const CompanyId> company_members;
  /// For company syndicates: the investment arcs internal to the
  /// contracted SCC, kept because any trading relationship between SCC
  /// members is suspicious (§4.3 closing remark) and its proof chain
  /// runs along these arcs.
  std::span<const InvestmentArc> internal_investments;

  bool IsSyndicate() const {
    return person_members.size() > 1 || company_members.size() > 1;
  }
};

/// A trading record whose endpoints were merged into the same company
/// syndicate. The arc would be a self-loop in the contracted graph, so it
/// is kept out of the arc table and reported here; the detector turns each
/// into a suspicious trade with an intra-SCC proof chain.
struct IntraSyndicateTrade {
  NodeId syndicate_node = kInvalidNode;
  CompanyId seller = 0;
  CompanyId buyer = 0;
};

/// The Taxpayer Interest Interacted Network (Definition 1): the
/// antecedent network (influence arcs, a DAG) overlaid with the trading
/// network. Influence arcs occupy arc ids [0, num_influence_arcs());
/// trading arcs follow — the same convention as the paper's edge-list
/// where antecedent rows precede trading rows.
///
/// Storage is columnar: node colors, a label lexicon (offset-indexed
/// byte pool), member lists and syndicate provenance as CSR columns,
/// the arc table (endpoints and weight per arc id) and the CSR built
/// from it. A fused network owns these columns; a network opened from a
/// binary snapshot *views* them inside the mmap-ed file — same API, zero
/// per-node or per-arc work at open time.
class Tpiin {
 public:
  /// Immutable CSR, color-partitioned (influence arcs first per node);
  /// built once from the arc table by TpiinBuilder::Build() or bound
  /// directly to the snapshot sections. Every traversal reads this.
  const FrozenGraph& frozen() const { return frozen_; }

  NodeId NumNodes() const {
    return static_cast<NodeId>(node_color_.size());
  }
  ArcId NumArcs() const { return static_cast<ArcId>(arc_src_.size()); }

  /// Endpoints and color of an arc: a row of the arc table.
  Arc arc(ArcId id) const {
    return Arc{arc_src_[id], arc_dst_[id],
               id < num_influence_arcs_ ? kArcInfluence : kArcTrading};
  }

  NodeColor color(NodeId id) const { return node_color_[id]; }

  /// Provenance view of one node (see TpiinNode).
  TpiinNode node(NodeId id) const {
    return TpiinNode{
        node_color_[id],
        Label(id),
        {person_members_.data() + person_member_offsets_[id],
         person_members_.data() + person_member_offsets_[id + 1]},
        {company_members_.data() + company_member_offsets_[id],
         company_members_.data() + company_member_offsets_[id + 1]},
        {internal_investments_.data() + internal_investment_offsets_[id],
         internal_investments_.data() +
             internal_investment_offsets_[id + 1]},
    };
  }

  ArcId num_influence_arcs() const { return num_influence_arcs_; }
  ArcId num_trading_arcs() const { return NumArcs() - num_influence_arcs_; }

  /// TPIIN node holding a given original person/company. Valid only for
  /// ids < the sizes passed at build time.
  NodeId NodeOfPerson(PersonId p) const { return person_node_[p]; }
  NodeId NodeOfCompany(CompanyId c) const { return company_node_[c]; }

  std::span<const IntraSyndicateTrade> intra_syndicate_trades() const {
    return intra_syndicate_trades_.span();
  }

  std::string_view Label(NodeId id) const {
    return std::string_view(label_bytes_.data() + label_offsets_[id],
                            label_offsets_[id + 1] - label_offsets_[id]);
  }

  /// Influence strength of an arc in (0, 1]; trading arcs carry 1.0.
  double ArcWeight(ArcId id) const { return arc_weight_[id]; }

  /// Precomputed antecedent-layer weakly-connected-component ids, loaded
  /// from a snapshot's segmentation index: SegmentTpiin uses them to
  /// skip the WCC pass entirely. Component numbering is identical to
  /// WeaklyConnectedComponents(frozen(), kInfluence) by construction
  /// (the snapshot writer stored exactly that function's output).
  bool has_wcc_index() const { return wcc_num_components_ != kInvalidNode; }
  std::span<const NodeId> WccComponentOf() const {
    return wcc_component_of_.span();
  }
  NodeId NumWccComponents() const { return wcc_num_components_; }

  /// The paper's r x 3 edge-list encoding: {src, dst, color} with all
  /// antecedent (influence) rows before trading rows. Row i corresponds
  /// to arc id i.
  std::vector<std::array<uint32_t, 3>> ToEdgeList() const;

 private:
  friend class TpiinBuilder;
  friend class SnapshotCodec;  // src/snapshot: serializes/binds columns.

  FrozenGraph frozen_;

  // Columnar node store. Offsets columns have NumNodes()+1 entries.
  Col<NodeColor> node_color_;
  Col<uint64_t> label_offsets_;
  Col<char> label_bytes_;
  Col<uint64_t> person_member_offsets_;
  Col<PersonId> person_members_;
  Col<uint64_t> company_member_offsets_;
  Col<CompanyId> company_members_;
  Col<uint64_t> internal_investment_offsets_;
  Col<InvestmentArc> internal_investments_;

  // The arc table by arc id: endpoints and weight. The color follows
  // from the id (influence arcs first).
  Col<NodeId> arc_src_;
  Col<NodeId> arc_dst_;
  Col<double> arc_weight_;
  ArcId num_influence_arcs_ = 0;
  Col<NodeId> person_node_;
  Col<NodeId> company_node_;
  Col<IntraSyndicateTrade> intra_syndicate_trades_;

  // Snapshot-backed networks only: the segmentation index.
  Col<NodeId> wcc_component_of_;
  NodeId wcc_num_components_ = kInvalidNode;
};

/// Constructs a Tpiin node by node. Used by the fusion pipeline and by
/// tests/examples that specify small networks directly (e.g. the paper's
/// Fig. 8 worked example). Influence arcs must all be added before the
/// first trading arc. Build() deduplicates each arc class, then enforces
/// the invariants:
///  - influence arcs end at Company nodes;
///  - trading arcs connect Company nodes;
///  - the influence (antecedent) subgraph is acyclic.
class TpiinBuilder {
 public:
  TpiinBuilder();

  NodeId AddPersonNode(std::string_view label,
                       std::vector<PersonId> members = {});
  NodeId AddCompanyNode(std::string_view label,
                        std::vector<CompanyId> members = {});

  /// Appends an influence/trading arc. CNBM relationships are sets, so
  /// Build() keeps the first of any arcs with equal endpoints and color,
  /// at its first-occurrence arc id; a duplicate influence arc raises
  /// the kept weight to the maximum (the strongest relationship
  /// evidences the link).
  ///
  /// `weight` in (0, 1] quantifies influence strength (§7's future-work
  /// edge weights): 1.0 for a legal-person link or full ownership, the
  /// held share fraction for investment arcs, role-dependent strengths
  /// for director links. Scoring (core/scoring.h) consumes it.
  void AddInfluenceArc(NodeId from, NodeId to, double weight = 1.0);
  void AddTradingArc(NodeId seller, NodeId buyer);

  void AddIntraSyndicateTrade(NodeId syndicate, CompanyId seller,
                              CompanyId buyer);

  /// Attaches SCC-internal investment arcs to a company syndicate node.
  void SetInternalInvestments(NodeId node, std::vector<InvestmentArc> arcs);

  /// Installs the original-id -> node maps (pipeline use). Builders used
  /// directly in tests may skip this; NodeOfPerson/NodeOfCompany then
  /// fall back to identity-sized empty maps.
  void SetEntityMaps(std::vector<NodeId> person_node,
                     std::vector<NodeId> company_node);

  /// Validates and returns the network; the builder is consumed.
  /// Deduplicates the arc table, builds the CSR from it while arc
  /// endpoint validation runs as a concurrent task on the shared
  /// ThreadPool, then checks that the antecedent layer is a DAG; the
  /// returned network is identical at any thread count.
  Result<Tpiin> Build(uint32_t num_threads = 1);

 private:
  NodeId AddNode(NodeColor color, std::string_view label);

  /// Appends a row to the arc table; both endpoints must already exist.
  void AppendArc(NodeId src, NodeId dst, double weight);

  /// Keeps, per arc class, the first row of each (src, dst) pair, folding
  /// duplicate weights into it with std::max in row order.
  void DeduplicateArcs();

  /// Checks the per-arc endpoint invariants (influence ends at Company,
  /// trading connects Companies, no trading self-loops).
  Status ValidateArcs() const;

  std::string LabelOf(NodeId id) const {
    return std::string(net_.Label(id));
  }

  Tpiin net_;
  /// Internal investments arrive per syndicate node in arbitrary order;
  /// Build() flattens them into the CSR columns.
  std::vector<std::vector<InvestmentArc>> staged_investments_;
  bool saw_trading_arc_ = false;
  bool failed_ordering_ = false;
};

}  // namespace tpiin

#endif  // TPIIN_FUSION_TPIIN_H_
