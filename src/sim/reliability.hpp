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

struct ReliabilityOptions {
  /// Also simulate subsets larger than K (exact analysis). When false,
  /// those subsets are assumed lost, yielding the guaranteed lower bound
  /// only (cheaper: O(n^K) instead of O(2^n) simulations).
  bool exhaustive_beyond_k = true;
  /// Refuse architectures beyond this size (2^n simulations).
  std::size_t max_processors = 16;
};

struct ReliabilityReport {
  /// P(all outputs produced) with the exhaustive analysis (equals
  /// `lower_bound` when exhaustive_beyond_k is off).
  double iteration_reliability = 0;
  /// Guaranteed bound: only subsets verified masked up to size K count.
  double lower_bound = 0;
  /// masked/total subset counts per subset size (index = size).
  std::vector<std::pair<std::size_t, std::size_t>> masked_by_size;
};

/// Precondition: 0 <= failure_probability <= 1 and the architecture has at
/// most options.max_processors processors.
[[nodiscard]] ReliabilityReport analyze_reliability(
    const Schedule& schedule, double failure_probability,
    ReliabilityOptions options = {});

}  // namespace ftsched
