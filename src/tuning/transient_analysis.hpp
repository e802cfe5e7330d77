// Worst-case transient behaviour of a fault-tolerant schedule (§5.6
// criterion 3, made quantitative): for every single permanent failure,
// sweep the crash over every critical instant of the failure-free run and
// record the worst response time the survivors deliver.
//
// The crash instants that matter are the event dates of the nominal trace
// (a crash strictly between two events behaves like a crash just after the
// earlier one), so sweeping event dates and midpoints is exhaustive for
// single failures up to simulation determinism.
#pragma once

#include <vector>

#include "sched/schedule.hpp"

namespace ftsched {

struct TransientReport {
  /// Worst response over every (processor, crash instant) pair and the
  /// dead-from-start regime; kInfinite if some single failure loses
  /// outputs.
  Time worst_response = 0;
  /// Failure-free response time, for the stretch ratio.
  Time nominal_response = 0;
  /// Per processor: worst response when that processor is the victim.
  std::vector<Time> worst_by_victim;
  /// Victim of the overall worst case.
  ProcessorId worst_victim;
  /// Largest number of timeout expiries observed in one transient run.
  std::size_t worst_timeouts = 0;

  [[nodiscard]] double worst_stretch() const {
    return nominal_response > 0 && !is_infinite(worst_response)
               ? worst_response / nominal_response
               : 0.0;
  }
};

/// Simulates every single-processor failure of `schedule` at every critical
/// instant. The failure-free prefix up to each instant is simulated once and
/// copied per victim without its trace (Simulator::Branch::copy_to), not
/// replayed from scratch.
[[nodiscard]] TransientReport analyze_transient(const Schedule& schedule);

}  // namespace ftsched
