// Reliability analysis: turns the simulator's masking verdicts into the
// dependability number a safety case needs (§2.3's dependable-systems
// context) — the probability that one iteration still produces all its
// outputs when each processor has failed independently with probability p.
//
// The analysis enumerates failure subsets, asks the simulator which are
// masked (dead-from-start, the pessimistic permanent regime), and sums the
// binomial weights of the masked ones. A K-fault-tolerant schedule masks
// everything up to size K by construction; subsets beyond K may still be
// masked by luck (the failed processors host disjoint replica sets), which
// is why the exact figure can exceed the guaranteed bound.
#pragma once

#include <cstddef>
#include <vector>

#include "core/error.hpp"
#include "sched/schedule.hpp"

namespace ftsched {

struct ReliabilityReport {
  /// P(all outputs produced), over every failure subset.
  double iteration_reliability = 0;
  /// Guaranteed bound: only subsets verified masked up to size K count.
  double lower_bound = 0;
  /// masked/total subset counts per subset size (index = size).
  std::vector<std::pair<std::size_t, std::size_t>> masked_by_size;
};

/// Precondition: 0 <= failure_probability <= 1 and the architecture has at
/// most 16 processors (the analysis runs 2^n simulations).
[[nodiscard]] ReliabilityReport analyze_reliability(
    const Schedule& schedule, double failure_probability);

}  // namespace ftsched
