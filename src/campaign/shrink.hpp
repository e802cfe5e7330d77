// Counterexample shrinking: delta-debugging minimization of a violating
// MissionPlan (Zeller/Hildebrandt's ddmin over the plan's event list,
// followed by domain-specific canonicalization passes), re-simulating at
// every step, until the plan is 1-minimal — removing any single remaining
// event makes the violation disappear. A 40-event random cascade shrinks
// to the two lines that actually matter, ready to be serialized
// (io/scenario_format.hpp) and checked into tests/ as a permanent
// regression.
//
// Passes, in order:
//  1. ddmin over all injected events (crashes, dead-at-start, silences,
//     link faults, suspicions);
//  2. mission truncation to the first violating iteration;
//  3. crash simplification: mid-run crashes become dead-at-start when the
//     violation survives (the settled regime is the simpler reproducer);
//  4. crash-instant snapping to the schedule's Gantt boundaries — replica
//     start/finish dates on the crashed processor — preferring the
//     earliest still-failing instant;
//  5. silent-window narrowing by binary bisection of each edge;
//  6. a final singles sweep re-establishing 1-minimality after the
//     rewrites (a snapped crash can subsume another event).
// Every pass is deterministic, so a shrunk reproducer is stable across
// runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/oracle.hpp"
#include "sim/simulator.hpp"

namespace ftsched::campaign {

struct ShrinkOptions {
  /// Cap on mission simulations spent shrinking; 0 = unbounded. When the
  /// cap is hit mid-pass, no further variants are probed and the best
  /// verified-failing plan found so far is returned with budget_exhausted
  /// set — every intermediate plan the shrinker commits to has itself been
  /// judged failing, so the result is a valid (just possibly non-minimal)
  /// reproducer. The precondition judge and the final violation re-judge
  /// are counted against (and may exceed by one) the cap.
  std::size_t max_simulations = 0;
};

struct ShrinkResult {
  /// The minimized plan; still violating, 1-minimal w.r.t. event removal
  /// unless budget_exhausted is set (then merely best-so-far).
  MissionPlan plan;
  /// Oracle violations of the minimized plan.
  std::vector<std::string> violations;
  /// Names of the latency constraints the minimized plan violates, from
  /// the same judgement as `violations` (Verdict::violated_constraints).
  std::vector<std::string> violated_constraints;
  std::size_t initial_events = 0;
  std::size_t final_events = 0;
  /// Mission simulations spent shrinking.
  std::size_t simulations = 0;
  /// True when ShrinkOptions::max_simulations stopped the minimization
  /// before the passes converged.
  bool budget_exhausted = false;
};

/// Minimizes `plan`. Precondition: the oracle rejects `plan` (judge over a
/// fresh run_mission is not ok); throws std::invalid_argument otherwise.
/// `simulator` must execute the same schedule the oracle judges.
[[nodiscard]] ShrinkResult shrink(const Simulator& simulator,
                                  const Oracle& oracle, MissionPlan plan,
                                  const ShrinkOptions& options);
[[nodiscard]] ShrinkResult shrink(const Simulator& simulator,
                                  const Oracle& oracle, MissionPlan plan);

}  // namespace ftsched::campaign
