// Multi-iteration mission runner: the reactive system executes its schedule
// once per input event, forever (§4.2). This driver chains consecutive
// iterations, carrying the failure knowledge each iteration's survivors
// accumulated into the next one — the transient-then-subsequent life cycle
// of §5.6 criterion 3 — while injecting crashes and fail-silent episodes at
// chosen iterations.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"

namespace ftsched {

/// A crash of `event.processor` at `event.time` within iteration `iteration`.
struct MissionFailure {
  int iteration = 0;
  FailureEvent event;
};

/// A fail-silent episode within one iteration.
struct MissionSilence {
  int iteration = 0;
  SilentWindow window;
};

/// A link dying at `event.time` within iteration `iteration`; it stays dead
/// for the rest of the mission.
struct MissionLinkFailure {
  int iteration = 0;
  LinkFailureEvent event;
};

/// A complete multi-iteration adversarial plan: every fault class the
/// simulator models, placed at chosen iterations, plus the mission's
/// initial knowledge state. This is the unit the fault-injection campaign
/// generates, replays, shrinks, and serializes (io/scenario_format.hpp).
struct MissionPlan {
  int iterations = 1;
  /// Mid-run processor crashes.
  std::vector<MissionFailure> failures;
  /// Intermittent send-omission windows.
  std::vector<MissionSilence> silences;
  /// Link deaths (permanent from their instant on).
  std::vector<MissionLinkFailure> link_failures;
  /// Processors dead — and known dead — before iteration 0.
  std::vector<ProcessorId> dead_at_start;
  /// Links dead before iteration 0.
  std::vector<LinkId> dead_links_at_start;
  /// Healthy processors wrongly flagged faulty before iteration 0.
  std::vector<ProcessorId> suspected_at_start;

  /// Total number of injected events of every class (size of the
  /// shrinker's search space, not a fault count — see
  /// FailureScenario::failure_count for the budget semantics).
  [[nodiscard]] std::size_t event_count() const noexcept {
    return failures.size() + silences.size() + link_failures.size() +
           dead_at_start.size() + dead_links_at_start.size() +
           suspected_at_start.size();
  }
};

struct MissionIteration {
  int index = 0;
  bool all_outputs_produced = false;
  Time response_time = kInfinite;
  std::size_t timeouts = 0;
  std::size_t elections = 0;
  std::size_t transfers = 0;
  /// See IterationSummary::silence_deferral: the tight response allowance
  /// this iteration's silent windows earned (0 when none deferred a send).
  Time silence_deferral = 0;
  /// Genuinely dead processors known when the iteration started.
  std::vector<ProcessorId> known_failed;
  /// Healthy processors wrongly suspected when the iteration started.
  std::vector<ProcessorId> suspected;
  /// See IterationSummary::op_completions: earliest completion per graph
  /// operation, kInfinite where none — the chain-latency oracle's input.
  std::vector<Time> op_completions;
};

struct MissionResult {
  std::vector<MissionIteration> iterations;

  [[nodiscard]] bool every_iteration_served() const {
    for (const MissionIteration& it : iterations) {
      if (!it.all_outputs_produced) return false;
    }
    return !iterations.empty();
  }

  /// One line per iteration, for examples and diagnostics.
  [[nodiscard]] std::string to_text(
      const class ArchitectureGraph& arch) const;
};

/// Runs `iterations` consecutive iterations of `schedule`. Failures take
/// effect in their iteration and persist; detections propagate: a processor
/// flagged by the survivors at the end of iteration i is treated as known
/// (if genuinely dead) or suspected (if it was a detection mistake) at the
/// start of iteration i+1.
[[nodiscard]] MissionResult run_mission(
    const Schedule& schedule, int iterations,
    const std::vector<MissionFailure>& failures,
    const std::vector<MissionSilence>& silences = {});

/// Reusable buffers for the batched mission path: one per worker amortizes
/// every per-mission allocation (the branch every iteration runs in, the
/// per iteration scenario, the knowledge vectors) across a whole chunk of
/// missions. Treat as opaque; contents are reset by run_mission. Holds
/// results of one simulator: never share a scratch across schedules.
struct MissionScratch {
  Simulator::Branch sim;
  IterationSummary summary;
  FailureScenario scenario;
  std::vector<ProcessorId> dead;
  std::vector<ProcessorId> known;
  std::vector<ProcessorId> suspected;
  std::vector<LinkId> dead_links;
  /// Discrete-iteration memo: an iteration with no silent window, no link
  /// death and every crash at t = 0 is fully described by its start state
  /// (known dead, suspected, the t = 0 victims, dead links), so it is
  /// keyed by that state and reused across missions sharing this scratch.
  /// Mid-run instants are continuous draws that essentially never repeat,
  /// but the iterations that follow them collapse onto a handful of such
  /// states — including the ones that re-inject an undetected dead
  /// processor at t = 0, every post-crash iteration of a schedule without
  /// timeouts. Purely an optimization: IterationSummary is a function of
  /// the scenario, so a hit returns exactly what the skipped simulation
  /// would.
  std::unordered_map<std::string, IterationSummary> memo;
  std::string key;
  /// Work counts over every mission run with this scratch: iterations
  /// actually simulated (memo misses) and the events they dispatched. Pure
  /// functions of the plans and their order; pinned by the Cost.* tests.
  std::size_t iterations_simulated = 0;
  std::size_t events_simulated = 0;
};

/// Full-plan variant: link failures and a non-empty initial state in
/// addition to crashes and silences. The simulator overload lets callers
/// that replay thousands of plans against one schedule (the campaign
/// runner, the shrinker) reuse one Simulator — construction builds routing
/// and timeout tables, Simulator::run is const and reentrant. The scratch
/// overload additionally reuses one set of run buffers and the discrete-
/// iteration memo across calls; all overloads produce identical
/// MissionResults (the mission digest is derived through
/// Simulator::run_summary, whose summary equivalence to run() is pinned by
/// tests/sim/summary_equiv_test.cpp; the memo's transparency by
/// tests/sim/mission_test.cpp).
[[nodiscard]] MissionResult run_mission(const Simulator& simulator,
                                        const MissionPlan& plan,
                                        MissionScratch& scratch);
[[nodiscard]] MissionResult run_mission(const Simulator& simulator,
                                        const MissionPlan& plan);
[[nodiscard]] MissionResult run_mission(const Schedule& schedule,
                                        const MissionPlan& plan);

}  // namespace ftsched
