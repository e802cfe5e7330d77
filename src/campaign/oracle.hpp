// The campaign's correctness oracle: judges one simulated mission against
// the paper's headline contract (§5.6) — a schedule built for K failures
// serves every extio output in every iteration under ANY combination of at
// most K fail-stop processor failures — plus a static response-time
// envelope and harness sanity checks.
//
// The claimed tolerance is separable from the schedule's own K on purpose:
// attacking a K=0 baseline under a claim of K=1 is how the campaign (and
// its tests) prove the oracle has teeth — the schedule is honestly
// under-replicated for the claim, so the runner must find, and the
// shrinker must minimize, a violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/schedule.hpp"
#include "sim/mission.hpp"

namespace ftsched::campaign {

/// Distinct processors genuinely faulted by `plan` (crashes + dead at
/// start; silences and wrong suspicions are not failures, §6.1 item 3).
[[nodiscard]] std::size_t plan_processor_faults(const MissionPlan& plan);

/// Distinct links killed by `plan` (always outside the paper's §5.1
/// failure hypothesis).
[[nodiscard]] std::size_t plan_link_faults(const MissionPlan& plan);

/// Conservative static envelope on any within-contract iteration's
/// response time. Two pieces:
///  * the last statically triggered instant — the failure-free makespan or
///    the worst watch-chain deadline of the timeout table, whichever is
///    later (nothing in the simulator fires later than these except as a
///    data-driven consequence);
///  * a serial tail — after that instant progress is purely data-driven,
///    and in the worst case every replica executes once more in sequence
///    and every value crosses every link once.
/// Loose by design: its job is to catch runaway recoveries and hangs, not
/// to re-derive the paper's tight per-solution bounds.
[[nodiscard]] Time static_response_bound(const Schedule& schedule);

/// One named end-to-end latency constraint over a dependence chain
/// (PAPERS.md: Kermia, *Schedulability Analysis under Dependence and
/// Several Latency Constraints*): the earliest completion of `sink_op`
/// must follow the earliest completion of `source_op` by at most `bound`
/// (widened per iteration by the measured silence deferral, like the
/// whole-mission response envelope). The scalar response_bound stays the
/// degenerate whole-mission chain — mission start to the last extio
/// output — so specs without constraints are judged exactly as before.
struct LatencyConstraint {
  /// Unique label; appears in violations, certificates, and stream records.
  std::string name;
  /// Operation names resolved against the schedule's algorithm graph.
  std::string source_op;
  std::string sink_op;
  /// Finite, strictly positive envelope for the chain.
  Time bound = kInfinite;
};

/// A constraint resolved to graph indices (into IterationResult /
/// MissionIteration op_completions).
struct LatencyProbe {
  std::uint32_t source = 0;
  std::uint32_t sink = 0;
};

/// Validates `constraints` against `schedule` and resolves each to a
/// LatencyProbe. Malformed specs — empty or duplicate names, an endpoint
/// absent from the algorithm graph, a non-finite / non-positive / inverted
/// bound, an endpoint with no scheduled replica — throw
/// std::invalid_argument naming the offending constraint. Every certifier
/// entry point (Oracle construction, certify, certify_shard, the frontier
/// sweep, certifyd submits) funnels through this resolver.
[[nodiscard]] std::vector<LatencyProbe> resolve_latency_constraints(
    const Schedule& schedule,
    const std::vector<LatencyConstraint>& constraints);

/// Latency of one resolved chain given a run's per-op earliest completions:
/// completion(sink) - completion(source); a never-completed sink yields
/// kInfinite (the chain was not served), a never-completed source anchors
/// the chain at mission start (time 0).
[[nodiscard]] Time chain_latency(const std::vector<Time>& op_completions,
                                 const LatencyProbe& probe);

struct OracleSpec {
  /// Fault budget the schedule is claimed to mask; -1 derives the
  /// schedule's own failures_tolerated().
  int claimed_tolerance = -1;
  /// Link-fault budget the schedule is claimed to mask. Link faults sit
  /// outside the paper's §5.1 failure hypothesis, so they are budgeted
  /// separately from the processor K (plan_link_faults counts them); the
  /// default 0 keeps any link fault outside the contract.
  int claimed_link_tolerance = 0;
  /// Response envelope for within-contract iterations; kInfinite derives
  /// static_response_bound(schedule).
  Time response_bound = kInfinite;
  bool check_response = true;
  /// Named chain constraints, all checked simultaneously on every
  /// within-contract iteration. Empty (the default) preserves the
  /// single-envelope oracle byte for byte.
  std::vector<LatencyConstraint> latency_constraints = {};
};

/// The oracle's judgement of one mission.
struct Verdict {
  /// True when the plan stays inside the claimed budgets: distinct
  /// processor faults <= claimed tolerance and distinct link faults <=
  /// claimed link tolerance (default 0: any link fault voids the contract).
  bool within_contract = false;
  /// Some iteration lost an extio output.
  bool outputs_lost = false;
  /// Some within-contract iteration exceeded the response envelope.
  bool response_exceeded = false;
  /// Some within-contract iteration exceeded a named chain constraint.
  bool latency_exceeded = false;
  /// First iteration a violation was observed in; -1 when none.
  int first_violation_iteration = -1;
  /// Names of the latency constraints violated, first-violation order,
  /// each listed once. Empty for scalar-only (or clean) verdicts.
  std::vector<std::string> violated_constraints;
  /// Human-readable violations; empty == the mission satisfied the oracle.
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

class Oracle {
 public:
  /// The schedule must outlive the oracle. Resolves spec defaults; the
  /// static validator is the caller's (run_campaign reports its findings
  /// once), since a structurally broken schedule poisons every scenario.
  Oracle(const Schedule& schedule, OracleSpec spec = {});

  /// Judges `result` (produced by run_mission over `plan`) against the
  /// contract. Within-contract missions must serve every iteration within
  /// the response envelope; every mission, contract or not, must produce
  /// exactly plan.iterations iteration records (harness sanity).
  [[nodiscard]] Verdict judge(const MissionPlan& plan,
                              const MissionResult& result) const;

  [[nodiscard]] int claimed_tolerance() const noexcept { return claimed_; }
  [[nodiscard]] int claimed_link_tolerance() const noexcept {
    return claimed_links_;
  }
  [[nodiscard]] Time response_bound() const noexcept { return bound_; }
  /// The spec's chain constraints (resolved at construction; empty when
  /// none were given).
  [[nodiscard]] const std::vector<LatencyConstraint>& latency_constraints()
      const noexcept {
    return spec_.latency_constraints;
  }

 private:
  const Schedule* schedule_;
  OracleSpec spec_;
  int claimed_ = 0;
  int claimed_links_ = 0;
  Time bound_ = kInfinite;
  std::vector<LatencyProbe> probes_;
};

}  // namespace ftsched::campaign
