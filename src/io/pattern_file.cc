#include "io/pattern_file.h"

#include "common/atomic_file.h"

namespace tpiin {

// All three writers stream through AtomicFile: a crash or injected IO
// failure mid-write leaves the previous artifact (or nothing), never a
// torn one.

std::string RenderSuspiciousGroups(
    const Tpiin& net, const std::vector<SuspiciousGroup>& groups) {
  std::string out;
  for (const SuspiciousGroup& group : groups) {
    out += group.Format(net);
    out += "\n";
  }
  return out;
}

Status WriteSuspiciousGroupsFile(const std::string& path, const Tpiin& net,
                                 const std::vector<SuspiciousGroup>& groups) {
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  file.stream() << RenderSuspiciousGroups(net, groups);
  return file.Commit();
}

Status WriteSuspiciousTradesFile(
    const std::string& path, const Tpiin& net,
    const std::vector<std::pair<NodeId, NodeId>>& trades) {
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  for (const auto& [seller, buyer] : trades) {
    file.stream() << net.Label(seller) << " -> " << net.Label(buyer)
                  << "\n";
  }
  return file.Commit();
}

Status WriteDetectionReport(const std::string& path, const Tpiin& net,
                            const DetectionResult& result) {
  AtomicFile file(path);
  if (!file.ok()) return Status::IOError("cannot open " + path);
  std::ostream& out = file.stream();
  out << result.Summary() << "\n\n";
  out << "Suspicious trading relationships:\n";
  for (const auto& [seller, buyer] : result.suspicious_trades) {
    out << "  " << net.Label(seller) << " -> " << net.Label(buyer) << "\n";
  }
  for (const IntraSyndicateFinding& finding : result.intra_syndicate) {
    out << "  [intra-SCC " << net.Label(finding.syndicate_node)
        << "] company#" << finding.seller << " -> company#"
        << finding.buyer << "\n";
  }
  out << "\nSuspicious groups:\n";
  for (const SuspiciousGroup& group : result.groups) {
    out << "  " << group.Format(net) << "\n";
  }
  return file.Commit();
}

}  // namespace tpiin
