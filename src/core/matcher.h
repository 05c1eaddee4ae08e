#ifndef TPIIN_CORE_MATCHER_H_
#define TPIIN_CORE_MATCHER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/subtpiin.h"

namespace tpiin {

/// A detected suspicious tax evasion group (Definition 2): two component
/// patterns with the same antecedent node joined by exactly one
/// interest-affiliated trading arc into the shared end node.
///
/// All node ids are TPIIN (global) ids.
struct SuspiciousGroup {
  /// A1, the shared antecedent behind the IAT.
  NodeId antecedent = kInvalidNode;

  /// Component pattern 1, the trade-carrying trail: influence nodes
  /// A1..Am followed by the trading arc seller -> buyer
  /// (seller == trade_trail.back()).
  std::vector<NodeId> trade_trail;
  NodeId trade_seller = kInvalidNode;
  NodeId trade_buyer = kInvalidNode;

  /// Component pattern 2: influence trail A1..buyer (last element equals
  /// trade_buyer).
  std::vector<NodeId> partner_trail;

  /// Definition 3: true when the two trails share no node besides the
  /// start (antecedent) and end (buyer).
  bool is_simple = false;

  /// True for groups produced by the paper's in-trail circle special
  /// case (a cycle inside one InOT-FTAOP walk); these are reported in
  /// addition to the pairwise matches and counted separately.
  bool from_cycle = false;

  /// Sorted union of the nodes of both trails plus the buyer.
  std::vector<NodeId> members;

  /// Renders "antecedent: trail1 | trail2" with node labels.
  std::string Format(const Tpiin& net) const;
};

struct MatchOptions {
  /// Materialize SuspiciousGroup records. Counting-only runs (large
  /// Table 1 sweeps) can disable this and keep just the counters.
  bool collect_groups = true;

  /// Also emit the paper's in-trail circle groups.
  bool detect_cycles = true;

  /// Safety valve; 0 = unlimited.
  size_t max_groups = 0;
};

struct MatchResult {
  std::vector<SuspiciousGroup> groups;  // Iff collect_groups.

  // Counters are always maintained (pairwise matches only).
  size_t num_simple = 0;
  size_t num_complex = 0;
  size_t num_cycle_groups = 0;

  /// Global arc ids of the trading arcs participating in at least one
  /// group (pairwise or cycle), deduplicated and sorted.
  std::vector<ArcId> suspicious_trading_arcs;

  bool truncated = false;
};

struct PatternsTree;  // pattern_tree.h

/// The component-pattern matching step (Algorithm 1 step 8 / Appendix B,
/// reconstructed): within each antecedent root's trail family, every
/// trade-terminated trail {A1..Am -> Cj} is matched with every influence
/// prefix {A1..Cj} found in the family (in another trail or in the
/// trail's own element list), and each distinct pair becomes one
/// suspicious group. A trail whose trade target re-enters its own
/// element list additionally yields an in-trail circle group anchored at
/// the re-entered node.
///
/// Matching runs on the patterns tree: a tree node uniquely identifies
/// one trail from its root, so the partner component patterns of a
/// trading leaf ending at Cj are exactly the tree nodes labeled Cj in the
/// same root subtree — no prefix extraction or deduplication.
MatchResult MatchPatternsTree(const SubTpiin& sub, const PatternsTree& tree,
                              const MatchOptions& options = {});

}  // namespace tpiin

#endif  // TPIIN_CORE_MATCHER_H_
