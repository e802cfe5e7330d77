// Options of the list-scheduling engine: the placement and routing policies
// the heuristics and the repair engine select, the hard constraints, and the
// decision log.
#pragma once

#include <vector>

#include "core/ids.hpp"

namespace ftsched {

struct ExplainLog;

/// Hard scheduling constraints threaded through the list scheduler — the
/// vocabulary the counterexample-guided repair engine (campaign/repair.hpp)
/// speaks. Each accepted repair move becomes one entry here; re-running the
/// scheduler under the accumulated set replays the same deterministic
/// algorithm inside a restricted decision space, so a repaired schedule is
/// an ordinary Schedule, certifiable and simulatable like any other.
///
/// Semantics:
///  * Pin — the kept K+1 placement set of `op` must contain `proc`
///    (check_input rejects pins on disallowed processors and more pins
///    than replicas). The remaining slots are filled by pressure order as
///    usual, so a pin perturbs only what it names.
///  * Forbid — `op` is never placed on `proc` (the complement move;
///    check_input re-verifies K+1 allowed processors remain).
///  * ForbidLink — every transfer of `dep` is routed over the shortest
///    route that avoids `link` (computed once per (from, to) pair at
///    init). When the ban disconnects a pair, the unconstrained shortest
///    route is used — same fallback contract as disjoint_comm_routes.
struct SchedulingConstraints {
  struct Pin {
    OperationId op;
    ProcessorId proc;
    friend bool operator==(const Pin&, const Pin&) = default;
  };
  struct Forbid {
    OperationId op;
    ProcessorId proc;
    friend bool operator==(const Forbid&, const Forbid&) = default;
  };
  struct ForbidLink {
    DependencyId dep;
    LinkId link;
    friend bool operator==(const ForbidLink&, const ForbidLink&) = default;
  };

  std::vector<Pin> pinned;
  std::vector<Forbid> forbidden;
  std::vector<ForbidLink> forbidden_links;

  [[nodiscard]] bool empty() const noexcept {
    return pinned.empty() && forbidden.empty() && forbidden_links.empty();
  }
};

struct SchedulerOptions {
  /// Adds to sigma(o, p) the cheapest communication duration of every
  /// outgoing dependency whose destination operation cannot execute on p.
  /// The paper's S(n) "takes into account the communication times between
  /// o_i and the main processor of its predecessors and successors" (§6.2);
  /// successors are unscheduled when o_i is a candidate, so this term is our
  /// static approximation of the successor part: placing an operation on a
  /// processor its successor is barred from provably costs at least one
  /// transfer. The ablation benchmark bench_overhead_sweep measures its
  /// effect; disabling it makes the baseline place the last computation of
  /// example 1 on P3, where the output extio cannot run (makespan 9.6
  /// instead of 8.8).
  bool successor_placement_penalty = true;

  /// Solution 2 only: route the K+1 replicated transfers of a dependency
  /// over pairwise link-disjoint paths (replica rank r takes the r-th
  /// disjoint route, wrapping when the topology offers fewer). With
  /// link-disjoint routes, the redundancy that masks processor failures
  /// also masks individual link failures — the paper's §8 future work.
  /// Costs longer detours on sparse topologies; no effect on a single bus.
  bool disjoint_comm_routes = false;

  /// Hybrid heuristic only: dependencies whose transfers are actively
  /// replicated (solution-2 semantics); every other dependency keeps
  /// solution 1's time-redundant protocol. Indexed by dependency id; an
  /// empty vector means all-passive. schedule_hybrid() drives this knob
  /// automatically; expose it here for manual ablations.
  std::vector<bool> active_comm_deps;

  /// Hard placement / routing constraints (see SchedulingConstraints).
  /// Empty (the default) costs nothing: the engine's hot paths test one
  /// boolean and take the unconstrained branch, byte-identical to the
  /// pre-constraint engine (golden-hash and allocation tests enforce it).
  SchedulingConstraints constraints;

  /// Decision log: when non-null, the engine appends one ExplainStep per
  /// list-scheduling step — every evaluated (candidate, processor) pair
  /// with its σ components and the decision taken (sched/explain.hpp).
  /// Owned by the caller; recording costs one extra pass over the
  /// candidate evaluations, so leave null outside audits.
  ExplainLog* explain = nullptr;
};

}  // namespace ftsched
