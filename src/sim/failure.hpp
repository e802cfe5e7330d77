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

  /// Number of distinct processors genuinely faulted by this scenario
  /// (mid-run crashes plus dead-from-start). Processors only: link faults
  /// are outside the paper's failure hypothesis (§5.1) and are counted
  /// separately by link_failure_count(). Silent windows and wrong
  /// suspicions are not failures — the §6.1-item-3 machinery masks them
  /// for free.
  [[nodiscard]] std::size_t failure_count() const {
    std::vector<ProcessorId> procs = failed_at_start;
    for (const FailureEvent& event : events) procs.push_back(event.processor);
    std::sort(procs.begin(), procs.end());
    procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
    return procs.size();
  }

  /// Number of distinct links killed by this scenario (mid-run deaths plus
  /// dead-from-start).
  [[nodiscard]] std::size_t link_failure_count() const {
    std::vector<LinkId> links = failed_links_at_start;
    for (const LinkFailureEvent& event : link_events) links.push_back(event.link);
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    return links.size();
  }

  /// Faults of every class: the honest "how much did this scenario inject"
  /// answer the campaign oracle budgets against.
  [[nodiscard]] std::size_t total_fault_count() const {
    return failure_count() + link_failure_count();
  }
};

/// All subsets of `processors` with size in [1, max_failures]; used by the
/// exhaustive fault-tolerance property tests.
[[nodiscard]] std::vector<std::vector<ProcessorId>> failure_subsets(
    std::size_t processors, std::size_t max_failures);

}  // namespace ftsched
