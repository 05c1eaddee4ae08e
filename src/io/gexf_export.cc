#include "io/gexf_export.h"

#include "common/string_util.h"

namespace tpiin {

namespace {

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string TpiinToGexf(const Tpiin& net) {
  std::string out;
  out +=
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<gexf xmlns=\"http://www.gexf.net/1.2draft\" "
      "xmlns:viz=\"http://www.gexf.net/1.2draft/viz\" version=\"1.2\">\n"
      "  <graph mode=\"static\" defaultedgetype=\"directed\">\n"
      "    <attributes class=\"edge\">\n"
      "      <attribute id=\"0\" title=\"kind\" type=\"string\"/>\n"
      "    </attributes>\n"
      "    <nodes>\n";
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    const TpiinNode& node = net.node(v);
    bool is_company = node.color == NodeColor::kCompany;
    out += StringPrintf(
        "      <node id=\"%u\" label=\"%s\">"
        "<viz:color r=\"%d\" g=\"0\" b=\"0\"/></node>\n",
        v, XmlEscape(node.label).c_str(), is_company ? 255 : 0);
  }
  out += "    </nodes>\n    <edges>\n";
  for (ArcId id = 0; id < net.NumArcs(); ++id) {
    const Arc arc = net.arc(id);
    out += StringPrintf(
        "      <edge id=\"%u\" source=\"%u\" target=\"%u\">"
        "<attvalues><attvalue for=\"0\" value=\"%s\"/></attvalues>"
        "</edge>\n",
        id, arc.src, arc.dst, IsInfluenceArc(arc) ? "influence" : "trading");
  }
  out += "    </edges>\n  </graph>\n</gexf>\n";
  return out;
}

}  // namespace tpiin
