// Fail-stop failure scenarios injected into the simulator (paper §5.1:
// accidental, physical, internal, operational, permanent processor failures
// with fail-stop behaviour — the processor halts, volatile state is lost,
// its communication units fall silent).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/ids.hpp"
#include "core/time.hpp"

namespace ftsched {

struct FailureEvent {
  ProcessorId processor;
  /// Instant the processor halts (within the simulated iteration).
  Time time = 0;

  friend bool operator==(const FailureEvent&, const FailureEvent&) = default;
};

/// A communication link dying mid-iteration (the paper's §8 future work:
/// "new solutions to tolerate also the communication link failures"). The
/// frame in flight is lost and the medium never carries data again.
struct LinkFailureEvent {
  LinkId link;
  Time time = 0;

  friend bool operator==(const LinkFailureEvent&,
                         const LinkFailureEvent&) = default;
};

/// Intermittent fail-silent episode (§6.1 item 3): during [from, to) the
/// processor's communication units transmit nothing, but it keeps computing
/// and receiving. Healthy peers flag it on their watch deadlines; once it
/// resumes sending, the bus-scanning rejoin logic clears the flags.
struct SilentWindow {
  ProcessorId processor;
  Time from = 0;
  Time to = 0;

  friend bool operator==(const SilentWindow&, const SilentWindow&) = default;
};

struct FailureScenario {
  /// Processors that crash mid-iteration.
  std::vector<FailureEvent> events;
  /// Processors already dead — and known dead by every healthy processor —
  /// when the iteration starts (the paper's "subsequent iterations" after a
  /// transient iteration detected the failure, §5.6 criterion 3).
  std::vector<ProcessorId> failed_at_start;
  /// Transient send omissions (intermittent fail-silent behaviour).
  std::vector<SilentWindow> silent_windows;
  /// Links that die mid-iteration / are dead from the start.
  std::vector<LinkFailureEvent> link_events;
  std::vector<LinkId> failed_links_at_start;
  /// Healthy processors wrongly believed dead when the iteration starts
  /// (detection mistakes carried over from a previous iteration): every
  /// other processor pre-sets their fail flag, but they run normally and
  /// can be rehabilitated by the rejoin logic once observed sending.
  std::vector<ProcessorId> suspected_at_start;

  [[nodiscard]] static FailureScenario none() { return {}; }

  [[nodiscard]] static FailureScenario crash(ProcessorId processor,
                                             Time time) {
    FailureScenario scenario;
    scenario.events.push_back(FailureEvent{processor, time});
    return scenario;
  }

  [[nodiscard]] static FailureScenario dead_from_start(
      std::vector<ProcessorId> processors) {
    FailureScenario scenario;
    scenario.failed_at_start = std::move(processors);
    return scenario;
  }
};

/// Every subset of the ids 0..count-1 with min..max members, each sorted
/// ascending; sizes ascending, lexicographic within a size. The
/// certifier's dead-at-start subsets (its canonical task order) and
/// failure_subsets share this order.
template <typename Id>
[[nodiscard]] std::vector<std::vector<Id>> id_subsets(std::size_t count,
                                                      std::size_t min,
                                                      std::size_t max) {
  std::vector<std::vector<Id>> out;
  for (std::size_t size = min; size <= std::min(max, count); ++size) {
    std::vector<std::size_t> at(size);
    for (std::size_t i = 0; i < size; ++i) at[i] = i;
    for (;;) {
      std::vector<Id>& subset = out.emplace_back();
      for (const std::size_t id : at) {
        subset.push_back(Id{static_cast<typename Id::underlying_type>(id)});
      }
      // Advance the rightmost position that can still move right.
      std::size_t i = size;
      while (i > 0 && at[i - 1] == count - size + i - 1) --i;
      if (i == 0) break;
      ++at[i - 1];
      for (; i < size; ++i) at[i] = at[i - 1] + 1;
    }
  }
  return out;
}

/// All processor subsets with size in [1, max_failures]; used by the
/// exhaustive fault-tolerance property tests.
[[nodiscard]] inline std::vector<std::vector<ProcessorId>> failure_subsets(
    std::size_t processors, std::size_t max_failures) {
  return id_subsets<ProcessorId>(processors, 1, max_failures);
}

}  // namespace ftsched
