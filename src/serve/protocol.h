#ifndef TPIIN_SERVE_PROTOCOL_H_
#define TPIIN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace tpiin {

/// Wire protocol of the `tpiin serve` query daemon: newline-delimited
/// JSON over a TCP stream. Each request is one line, each response is
/// one line; a connection may carry any number of request/response
/// pairs in order (the one-shot `tpiin_client` sends a single pair).
///
/// A request line is either a flat JSON object
///
///   {"verb": "groups", "company": "C0017", "id": 7}
///
/// or, for hand-driven sessions (nc/telnet), the equivalent query form
///
///   groups?company=C0017&id=7
///
/// Recognized fields (everything else is rejected as malformed):
///   verb          groups | explain | rescore | stats | metrics | slow |
///                 healthz | reload (any other verb is answered `error`)
///   company       company label (groups filter; required by explain)
///   sub           subTPIIN emission index (required by rescore)
///   id            opaque caller tag, echoed in the response
///   path          snapshot file for the reload verb (empty = revalidate
///                 and reload the serving generation's own path)
///   deadline_ms   per-request wall-clock budget (RunBudget)
///   sub_slice_ms  per-subTPIIN pattern-walk budget
///   max_sub_nodes / max_sub_arcs
///                 structural caps; subTPIINs over a cap are skipped
///                 deterministically and the response degrades
///
/// The response is always a flat JSON object with a fixed key order:
///
///   {"id": 7, "req": "c3-r2", "verb": "groups", "status": "ok",
///    "payload": "..."}
///
///   req      server-assigned request ID "c<conn>-r<seq>" (connection
///            serial, then request serial within it, both 1-based).
///            The same ID names the request in the access log, the
///            trace and the slow ring, so one grep correlates a
///            response with the server-side record of producing it.
///
///   status   ok        complete answer; payload carries the result
///            degraded  sound but partial answer (a budget bound);
///                      payload is still present
///            busy      refused by admission control; retry later
///            error     malformed request or a handler error; `error`
///                      carries the message and payload is absent
///
/// For `groups`, `explain` and `rescore` the payload is text that is
/// byte-identical to the corresponding batch CLI artifact (susGroup.txt
/// lines, the `tpiin explain` dossier, the rescore report); for `stats`
/// it is a RunReport-style JSON document, for `metrics` the Prometheus
/// text format, for `slow` a JSON list of the slowest requests; for
/// `healthz` it starts with "ok\n" and for `reload` it names the
/// serving generation.
struct Request {
  std::string verb;
  std::string company;
  /// Candidate snapshot file for the `reload` verb; empty = reload the
  /// path the serving generation came from.
  std::string path;
  int64_t sub = -1;  ///< -1 = absent.
  int64_t id = -1;   ///< -1 = absent; echoed verbatim when >= 0.
  int64_t deadline_ms = 0;
  int64_t sub_slice_ms = 0;
  int64_t max_sub_nodes = 0;
  int64_t max_sub_arcs = 0;
};

struct Response {
  int64_t id = -1;
  /// Server-assigned request ID ("c3-r2"); empty = omitted from the
  /// wire form (responses built outside a server, unit tests).
  std::string request_id;
  std::string verb;
  std::string status;  ///< "ok" | "degraded" | "busy" | "error".
  std::string payload;
  std::string error;

  bool ok() const { return status == "ok"; }
};

/// Parses one request line (either form, leading/trailing whitespace and
/// a trailing '\r' tolerated). Malformed input — bad JSON, an unknown
/// key, a missing verb — is an InvalidArgument; the server answers it
/// with a `status: error` response and keeps the connection.
Result<Request> ParseRequestLine(std::string_view line);

/// Renders `response` as its single-line JSON form (no trailing
/// newline; the transport appends it). Key order is fixed so responses
/// are byte-stable for tests and diffs.
std::string SerializeResponse(const Response& response);

/// Parses a response line (the client side). InvalidArgument on
/// malformed JSON or a missing status.
Result<Response> ParseResponseLine(std::string_view line);

}  // namespace tpiin

#endif  // TPIIN_SERVE_PROTOCOL_H_
