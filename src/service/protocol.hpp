// certifyd request/response protocol: line-delimited JSON, one request per
// line in, a stream of response records out.
//
// Requests (the "type" member selects):
//   {"type":"submit","id":"r1","problem":"data/x.ft",      — or
//    "problem_inline":"algorithm\n...","heuristic":"solution1",
//    "claim_k":-1,"links":0,"silences":0,"response_bound":12.5,
//    "latency_constraints":[{"name":"c","source":"A","sink":"B","bound":5}],
//    "threads":0,"deadline_ms":0,"certificate_out":"cert.json"}
//   {"type":"status","id":"s1"}
//   {"type":"shutdown"}
//
// Responses: every record echoes the request id.
//   ack          — request admitted; carries the plan key and sweep size
//   progress     — one per finished certification task (streaming path)
//   counterexample — one violating branch, as found (capped at the spec's
//                  max_counterexamples, like the certificate itself)
//   result       — verdict summary; "cache" says "hit" or "miss"
//   status / error / bye
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/oracle.hpp"
#include "core/error.hpp"
#include "core/time.hpp"

namespace ftsched::service {

struct SubmitRequest {
  std::string id;
  /// Path to a problem file; empty when problem_inline is used instead.
  std::string problem_path;
  /// Problem text carried in the request itself (pipe-mode CI, remote
  /// clients without a shared filesystem). Newlines arrive as \n escapes.
  std::string problem_inline;
  std::string heuristic = "solution1";
  int claim_k = -1;
  int links = 0;
  int silences = 0;
  Time response_bound = kInfinite;
  /// Named chain constraints to certify alongside the scalar envelope:
  /// "latency_constraints":[{"name":…,"source":…,"sink":…,"bound":…}].
  /// Structural validity (well-formed JSON, positive bound) is checked at
  /// parse time; resolution against the schedule happens at submit, where
  /// a malformed spec answers with an error record.
  std::vector<campaign::LatencyConstraint> latency_constraints = {};
  /// Worker threads for this request; 0 = the server's default. Clamped
  /// to the server's own thread count.
  unsigned threads = 0;
  /// Per-request deadline; 0 = none. An expired deadline cancels the
  /// remaining certification tasks and answers with an error record.
  double deadline_ms = 0;
  /// Optional server-side path the full certificate JSON is written to
  /// (the result record itself carries only the summary).
  std::string certificate_out;
};

struct Request {
  enum class Kind { kSubmit, kStatus, kShutdown };
  Kind kind = Kind::kStatus;
  std::string id;
  SubmitRequest submit;
};

/// Parses one request line; malformed JSON, an unknown type, or an integer
/// field that is not a non-negative integer in range (claim_k also takes
/// -1) is a clean Error (the server answers with an error record and keeps
/// serving).
[[nodiscard]] Expected<Request> parse_request(std::string_view line);

}  // namespace ftsched::service
