#ifndef TPIIN_IO_JSON_REPORT_H_
#define TPIIN_IO_JSON_REPORT_H_

#include <string>

#include "core/detector.h"
#include "core/scoring.h"
#include "fusion/tpiin.h"

namespace tpiin {

/// Renders a detection run (and optionally its scoring) as a JSON
/// document for downstream tooling:
///
/// {
///   "summary": {"subtpiins": ..., "trails": ..., "simple": ...,
///               "complex": ..., "circle": ..., "intra_scc": ...,
///               "suspicious_trades": ..., "total_trades": ...},
///   "suspicious_trades": [{"seller": "...", "buyer": "...",
///                          "score": 0.92, "groups": 3}, ...],
///   "groups": [{"antecedent": "...", "trade_trail": [...],
///               "partner_trail": [...], "seller": "...",
///               "buyer": "...", "kind": "simple|complex|circle",
///               "score": 0.81}, ...]
/// }
///
/// `scoring` may be null (scores are then omitted). Labels are the TPIIN
/// node labels; JSON string escaping is applied.
std::string DetectionToJson(const Tpiin& net,
                            const DetectionResult& detection,
                            const ScoringResult* scoring = nullptr);

}  // namespace tpiin

#endif  // TPIIN_IO_JSON_REPORT_H_
