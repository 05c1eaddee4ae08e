#include "io/json_report.h"

#include <unordered_map>

#include "common/string_util.h"
#include "obs/report.h"

namespace tpiin {

namespace {

uint64_t PairKey(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

void AppendLabelArray(std::string& out, const Tpiin& net,
                      const std::vector<NodeId>& nodes) {
  out += '[';
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += JsonEscape(net.Label(nodes[i]));
    out += '"';
  }
  out += ']';
}

}  // namespace

std::string DetectionToJson(const Tpiin& net,
                            const DetectionResult& detection,
                            const ScoringResult* scoring) {
  std::unordered_map<uint64_t, const ScoredTrade*> trade_scores;
  if (scoring != nullptr) {
    for (const ScoredTrade& trade : scoring->ranked_trades) {
      trade_scores.emplace(PairKey(trade.seller, trade.buyer), &trade);
    }
  }

  std::string out = "{\n  \"summary\": {";
  out += StringPrintf(
      "\"subtpiins\": %zu, \"trails\": %zu, \"simple\": %zu, "
      "\"complex\": %zu, \"circle\": %zu, \"intra_scc\": %zu, "
      "\"suspicious_trades\": %zu, \"total_trades\": %zu",
      detection.num_subtpiins, detection.num_trails, detection.num_simple,
      detection.num_complex, detection.num_cycle_groups,
      detection.intra_syndicate.size(),
      detection.suspicious_trades.size() + detection.intra_syndicate.size(),
      detection.total_trading_arcs + detection.intra_syndicate.size());
  out += "},\n  \"suspicious_trades\": [";

  for (size_t i = 0; i < detection.suspicious_trades.size(); ++i) {
    const auto& [seller, buyer] = detection.suspicious_trades[i];
    if (i > 0) out += ',';
    out += "\n    {\"seller\": \"" + JsonEscape(net.Label(seller)) +
           "\", \"buyer\": \"" + JsonEscape(net.Label(buyer)) + "\"";
    auto it = trade_scores.find(PairKey(seller, buyer));
    if (it != trade_scores.end()) {
      out += StringPrintf(", \"score\": %.6f, \"groups\": %zu",
                          it->second->score, it->second->group_count);
    }
    out += '}';
  }
  out += "\n  ],\n  \"groups\": [";

  for (size_t i = 0; i < detection.groups.size(); ++i) {
    const SuspiciousGroup& group = detection.groups[i];
    if (i > 0) out += ',';
    out += "\n    {\"antecedent\": \"" +
           JsonEscape(net.Label(group.antecedent)) + "\", ";
    out += "\"trade_trail\": ";
    AppendLabelArray(out, net, group.trade_trail);
    out += ", \"partner_trail\": ";
    AppendLabelArray(out, net, group.partner_trail);
    out += ", \"seller\": \"" + JsonEscape(net.Label(group.trade_seller)) +
           "\", \"buyer\": \"" + JsonEscape(net.Label(group.trade_buyer)) +
           "\", \"kind\": \"";
    out += group.from_cycle ? "circle"
           : group.is_simple ? "simple"
                             : "complex";
    out += '"';
    if (scoring != nullptr && i < scoring->group_scores.size()) {
      out += StringPrintf(", \"score\": %.6f", scoring->group_scores[i]);
    }
    out += '}';
  }
  out += "\n  ],\n  \"intra_syndicate\": [";
  for (size_t i = 0; i < detection.intra_syndicate.size(); ++i) {
    const IntraSyndicateFinding& finding = detection.intra_syndicate[i];
    if (i > 0) out += ',';
    out += StringPrintf(
        "\n    {\"syndicate\": \"%s\", \"seller\": %u, \"buyer\": %u}",
        JsonEscape(net.Label(finding.syndicate_node)).c_str(),
        finding.seller, finding.buyer);
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace tpiin
