#ifndef TPIIN_IO_PATTERN_FILE_H_
#define TPIIN_IO_PATTERN_FILE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/detector.h"
#include "core/matcher.h"

namespace tpiin {

/// Renders detected suspicious groups in the paper's susGroup(i)
/// layout: one group per line, "antecedent: {trail1} | {trail2}
/// [flags]". The single source of the format — the batch file writer
/// below streams exactly these bytes, and the serve layer's `groups`
/// verb returns them, so the two are diffable byte for byte.
std::string RenderSuspiciousGroups(const Tpiin& net,
                                   const std::vector<SuspiciousGroup>& groups);

/// Writes RenderSuspiciousGroups to the susGroup(i) file.
Status WriteSuspiciousGroupsFile(const std::string& path, const Tpiin& net,
                                 const std::vector<SuspiciousGroup>& groups);

/// Writes suspicious trading relationships as susTrade(i): one
/// "seller -> buyer" pair per line.
Status WriteSuspiciousTradesFile(
    const std::string& path, const Tpiin& net,
    const std::vector<std::pair<NodeId, NodeId>>& trades);

/// Full detection report (summary + groups + trades) in one text file.
Status WriteDetectionReport(const std::string& path, const Tpiin& net,
                            const DetectionResult& result);

}  // namespace tpiin

#endif  // TPIIN_IO_PATTERN_FILE_H_
