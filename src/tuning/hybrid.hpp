// Automatic software/time-redundancy trade-off (§5.3: "a tradeoff between
// these two kinds of redundancy should be found in order to obtain good
// performances ... in both cases").
//
// Solution 1 minimizes the failure-free cost but a failure costs the
// accumulated watch timeouts; solution 2 minimizes the faulty-case response
// but pays replicated transfers every iteration. The hybrid searches the
// middle ground per dependency: starting from all-passive (= solution 1),
// it repeatedly flips to active replication the dependency whose watch
// chain bounds the worst single-failure transient response, as long as the
// failure-free makespan stays within the caller's budget.
#pragma once

#include "core/error.hpp"
#include "sched/heuristics.hpp"
#include "tuning/transient_analysis.hpp"

namespace ftsched {

struct HybridOptions {
  /// Failure-free budget: candidate policies whose makespan exceeds
  /// max_overhead_factor x solution-1's makespan are rejected.
  double max_overhead_factor = 1.15;
};

struct HybridResult {
  Schedule schedule;
  TransientReport transient;
  /// Dependencies flipped to active replication, in flip order.
  std::vector<DependencyId> flipped;
};

/// Runs the search. Fails exactly when solution 1 itself is infeasible.
[[nodiscard]] Expected<HybridResult> schedule_hybrid(
    const Problem& problem, HybridOptions options = {});

}  // namespace ftsched
