#include "core/pattern_tree.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace tpiin {

std::vector<ListDEntry> ComputeListD(const SubTpiin& sub) {
  const FrozenGraph& fg = sub.frozen;
  const NodeId n = fg.NumNodes();
  std::vector<ListDEntry> list(n);
  for (NodeId v = 0; v < n; ++v) {
    list[v].node = v;
    list[v].out_degree = fg.OutDegree(v);
    list[v].in_degree = fg.InDegree(v);
  }
  std::sort(list.begin(), list.end(),
            [](const ListDEntry& a, const ListDEntry& b) {
              if (a.in_degree != b.in_degree) {
                return a.in_degree < b.in_degree;
              }
              if (a.out_degree != b.out_degree) {
                return a.out_degree > b.out_degree;
              }
              return a.node < b.node;
            });
  return list;
}

std::vector<NodeId> PatternsTree::PathTo(int32_t index) const {
  std::vector<NodeId> path;
  PathTo(index, &path);
  return path;
}

void PatternsTree::PathTo(int32_t index, std::vector<NodeId>* out) const {
  out->clear();
  for (int32_t i = index; i >= 0; i = nodes[i].parent) {
    out->push_back(nodes[i].graph_node);
  }
  std::reverse(out->begin(), out->end());
}

std::string PatternsTree::ToString(const SubTpiin& sub) const {
  // Children lists are not stored; rebuild them for display.
  std::vector<std::vector<int32_t>> children(nodes.size());
  for (int32_t i = 0; i < static_cast<int32_t>(nodes.size()); ++i) {
    if (nodes[i].parent >= 0) children[nodes[i].parent].push_back(i);
  }
  std::string out;
  struct Item {
    int32_t index;
    int depth;
  };
  std::vector<Item> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const TreeNode& tn = nodes[item.index];
    out.append(static_cast<size_t>(item.depth) * 2, ' ');
    if (tn.via_trading_arc) out += "-> ";
    out += sub.Label(tn.graph_node);
    out += '\n';
    const std::vector<int32_t>& kids = children[item.index];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, item.depth + 1});
    }
  }
  return out;
}

std::string PatternsTree::FormatTrail(const SubTpiin& sub,
                                      int32_t index) const {
  const TreeNode& end = nodes[index];
  std::vector<NodeId> path = PathTo(end.via_trading_arc ? end.parent : index);
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += ", ";
    out += sub.Label(path[i]);
  }
  if (end.via_trading_arc) {
    out += " -> ";
    out += sub.Label(end.graph_node);
  }
  return out;
}

std::string FormatPatternBase(const SubTpiin& sub, const PatternsTree& tree) {
  std::string out;
  size_t number = 0;
  for (int32_t i = 0; i < static_cast<int32_t>(tree.nodes.size()); ++i) {
    if (!tree.EndsPattern(sub, i)) continue;
    out += StringPrintf("%zu. ", ++number);
    out += tree.FormatTrail(sub, i);
    out += '\n';
  }
  return out;
}

namespace {

// Emission state of the DFS: the trail budget, the trail count and the
// patterns tree.
struct TrailSink {
  const PatternGenOptions& options;
  PatternGenResult& result;
  uint64_t budget_polls = 0;

  bool OverBudget() {
    if (options.max_trails != 0 &&
        result.num_trails >= options.max_trails) {
      return true;
    }
    if (result.deadline_expired) return true;
    // Poll the clock on a stride — OverBudget runs once per DFS step,
    // and a steady_clock read per step would dominate small subTPIINs.
    // The very first call polls too, so an already-expired deadline
    // truncates before any work happens.
    if (!options.deadline.unlimited() &&
        (++budget_polls & 0x3F) == 1 && options.deadline.Expired()) {
      result.deadline_expired = true;
      return true;
    }
    return false;
  }

  // Counts the trail that ends at the tree node added in the same step
  // (PatternsTree::EndsPattern relies on the pairing).
  void EmitTrail() { ++result.num_trails; }

  int32_t AddTreeNode(NodeId graph_node, int32_t parent, bool via_trade,
                      ArcId via_arc) {
    int32_t index = static_cast<int32_t>(result.tree.nodes.size());
    result.tree.nodes.push_back(
        PatternsTree::TreeNode{graph_node, parent, via_trade, via_arc});
    if (parent < 0) result.tree.roots.push_back(index);
    return index;
  }
};

struct Frame {
  NodeId node;
  uint32_t arc_pos;
  int32_t tree_index;
};

// Root selection: nodes with zero *influence* indegree. On well-formed
// TPIINs (every company linked to a legal person) this equals the
// paper's "indegree-zero over the whole subTPIIN" rule, because Person
// nodes never receive arcs and Company nodes always have an incoming
// influence arc; on arbitrary hand-built networks the influence-based
// rule additionally guarantees completeness when a company heading an
// investment chain receives only trading arcs.
std::vector<NodeId> SelectRoots(const SubTpiin& sub) {
  const FrozenGraph& fg = sub.frozen;
  std::vector<NodeId> roots;
  for (const ListDEntry& entry : ComputeListD(sub)) {
    if (fg.InfluenceInDegree(entry.node) == 0) roots.push_back(entry.node);
  }
  return roots;
}

// Algorithm 2 over the CSR: each frame walks its influence span
// (descents) and then sweeps its trading span (Rule 2 emissions) — no
// Arc struct load and no per-edge color branch anywhere. Every
// subTPIIN numbers its influence arcs before its trading arcs, so this
// visits each node's out arcs in arc-id order; the emitted patterns
// tree is pinned by tests/integration/golden_digest_test.cc.
Result<PatternGenResult> Generate(const SubTpiin& sub,
                                  const PatternGenOptions& options,
                                  PatternGenResult result) {
  const FrozenGraph& fg = sub.frozen;
  const NodeId n = fg.NumNodes();

  // Property 1 requires the antecedent subgraph to be a DAG; verify
  // upfront (a cycle could otherwise hide in a rootless region the DFS
  // never enters). Kahn's algorithm over the influence spans.
  {
    std::vector<uint32_t> degree(n);
    std::vector<NodeId> frontier;
    for (NodeId v = 0; v < n; ++v) {
      degree[v] = fg.InfluenceInDegree(v);
      if (degree[v] == 0) frontier.push_back(v);
    }
    NodeId processed = 0;
    while (!frontier.empty()) {
      NodeId u = frontier.back();
      frontier.pop_back();
      ++processed;
      for (NodeId dst : fg.InfluenceOut(u).nodes) {
        if (--degree[dst] == 0) frontier.push_back(dst);
      }
    }
    if (processed != n) {
      return Status::FailedPrecondition(
          "influence subgraph contains a directed cycle");
    }
  }

  std::vector<NodeId> roots = SelectRoots(sub);

  std::vector<Frame> frames;  // The DFS stack is the current walk.
  std::vector<uint8_t> on_path(n, 0);
  TrailSink sink{options, result};

  for (NodeId root : roots) {
    if (sink.OverBudget()) {
      result.truncated = true;
      break;
    }
    int32_t root_tree = sink.AddTreeNode(root, -1, false, kInvalidArc);
    frames.push_back(Frame{root, 0, root_tree});
    on_path[root] = 1;
    if (fg.OutDegree(root) == 0) sink.EmitTrail();  // Rule 1 at the root.

    while (!frames.empty()) {
      if (sink.OverBudget()) {
        result.truncated = true;
        // Unwind cleanly so on_path stays consistent.
        for (const Frame& f : frames) on_path[f.node] = 0;
        frames.clear();
        break;
      }
      Frame& frame = frames.back();
      AdjSpan influence = fg.InfluenceOut(frame.node);
      bool descended = false;
      bool length_capped = options.max_trail_length != 0 &&
                           frames.size() >= options.max_trail_length;
      while (frame.arc_pos < influence.size()) {
        NodeId dst = influence.nodes[frame.arc_pos];
        ArcId arc_id = influence.arcs[frame.arc_pos];
        ++frame.arc_pos;
        if (on_path[dst]) {
          return Status::FailedPrecondition(
              "influence subgraph contains a directed cycle through " +
              std::string(sub.Label(dst)));
        }
        if (length_capped) {
          result.truncated = true;
          continue;
        }
        int32_t child_tree =
            sink.AddTreeNode(dst, frame.tree_index, false, arc_id);
        frames.push_back(Frame{dst, 0, child_tree});
        on_path[dst] = 1;
        if (fg.OutDegree(dst) == 0) sink.EmitTrail();  // Rule 1.
        descended = true;
        break;
      }
      if (descended) continue;

      // Influence arcs exhausted: Rule 2 — every trading arc ends one
      // walk (Lemma 1 keeps it a trail even when the target already
      // lies on the path). Then backtrack.
      AdjSpan trades = fg.TradingOut(frame.node);
      for (size_t i = 0; i < trades.size(); ++i) {
        sink.EmitTrail();
        sink.AddTreeNode(trades.nodes[i], frame.tree_index, true,
                         trades.arcs[i]);
      }
      on_path[frame.node] = 0;
      frames.pop_back();
    }
  }

  return result;
}

}  // namespace

Result<PatternGenResult> GeneratePatternBase(
    const SubTpiin& sub, const PatternGenOptions& options) {
  // Seed the result with the recycled tree when the caller provided
  // scratch: content-wise a cleared tree equals a fresh one, so the walk
  // is oblivious to where its storage came from.
  PatternGenResult seed;
  if (options.scratch != nullptr) {
    seed.tree = std::move(*options.scratch);
    seed.tree.Clear();
  }
  return Generate(sub, options, std::move(seed));
}

}  // namespace tpiin
