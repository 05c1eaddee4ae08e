#include "io/dot_export.h"

#include "common/atomic_file.h"
#include "common/string_util.h"
#include "fusion/layers.h"

namespace tpiin {

namespace {

// Escapes a DOT double-quoted string.
std::string DotEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

const char* LayerEdgeColor(ArcColor color) {
  switch (color) {
    case kLayerKinship:
      return "brown";
    case kLayerInterlocking:
      return "gold";
    case kLayerInfluence:
      return "blue";
    case kLayerInvestment:
      return "forestgreen";
    case kLayerTrading:
      return "black";
    default:
      return "gray";
  }
}

}  // namespace

std::string TpiinToDot(const Tpiin& net, const std::string& graph_name) {
  std::string out = "digraph \"" + DotEscape(graph_name) + "\" {\n";
  out += "  rankdir=LR;\n  node [fontsize=10];\n";
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    const TpiinNode& node = net.node(v);
    bool is_company = node.color == NodeColor::kCompany;
    out += StringPrintf(
        "  n%u [label=\"%s\", shape=%s, color=%s, fontcolor=%s];\n", v,
        DotEscape(node.label).c_str(), is_company ? "box" : "ellipse",
        is_company ? "red" : "black", is_company ? "red" : "black");
  }
  for (ArcId id = 0; id < net.NumArcs(); ++id) {
    const Arc arc = net.arc(id);
    out += StringPrintf("  n%u -> n%u [color=%s];\n", arc.src, arc.dst,
                        IsInfluenceArc(arc) ? "blue" : "black");
  }
  out += "}\n";
  return out;
}

std::string LayerToDot(NodeId num_nodes, std::span<const Arc> arcs,
                       const std::vector<std::string>& labels,
                       const std::string& graph_name) {
  std::string out = "digraph \"" + DotEscape(graph_name) + "\" {\n";
  out += "  node [fontsize=10, shape=circle];\n";
  for (NodeId v = 0; v < num_nodes; ++v) {
    std::string label =
        v < labels.size() ? labels[v] : StringPrintf("%u", v);
    out += StringPrintf("  n%u [label=\"%s\"];\n", v,
                        DotEscape(label).c_str());
  }
  for (const Arc& arc : arcs) {
    // Interdependence links are unidirectional (undirected) edges in the
    // paper; render without arrowheads.
    bool undirected =
        arc.color == kLayerKinship || arc.color == kLayerInterlocking;
    out += StringPrintf("  n%u -> n%u [color=%s%s];\n", arc.src, arc.dst,
                        LayerEdgeColor(arc.color),
                        undirected ? ", dir=none" : "");
  }
  out += "}\n";
  return out;
}

Status WriteStringToFile(const std::string& path,
                         const std::string& contents) {
  return WriteFileAtomic(path, contents);
}

}  // namespace tpiin
