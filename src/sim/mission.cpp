#include "sim/mission.hpp"

#include <algorithm>
#include <cstring>

#include "arch/architecture_graph.hpp"
#include "core/text.hpp"

namespace ftsched {

namespace {

/// True when `scenario` is fully described by its start state: no silent
/// window, no link death, every crash at t = 0.
bool is_discrete(const FailureScenario& scenario) {
  return scenario.silent_windows.empty() && scenario.link_events.empty() &&
         std::all_of(scenario.events.begin(), scenario.events.end(),
                     [](const FailureEvent& event) { return event.time == 0; });
}

/// Exact byte key of a discrete scenario: known dead, suspected and the
/// t = 0 victims (in simulator order), each with its count, then the dead
/// links.
void memo_key(const FailureScenario& scenario, std::string& key) {
  key.clear();
  auto put = [&key](std::int64_t v) {
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    key.append(bytes, sizeof v);
  };
  put(static_cast<std::int64_t>(scenario.failed_at_start.size()));
  for (ProcessorId p : scenario.failed_at_start) put(p.value());
  put(static_cast<std::int64_t>(scenario.suspected_at_start.size()));
  for (ProcessorId p : scenario.suspected_at_start) put(p.value());
  put(static_cast<std::int64_t>(scenario.events.size()));
  for (const FailureEvent& event : scenario.events) {
    put(event.processor.value());
  }
  for (LinkId l : scenario.failed_links_at_start) put(l.value());
}

}  // namespace

MissionResult run_mission(const Schedule& schedule, int iterations,
                          const std::vector<MissionFailure>& failures,
                          const std::vector<MissionSilence>& silences) {
  MissionPlan plan;
  plan.iterations = iterations;
  plan.failures = failures;
  plan.silences = silences;
  return run_mission(schedule, plan);
}

MissionResult run_mission(const Schedule& schedule, const MissionPlan& plan) {
  return run_mission(Simulator(schedule), plan);
}

MissionResult run_mission(const Simulator& simulator,
                          const MissionPlan& plan) {
  MissionScratch scratch;
  return run_mission(simulator, plan, scratch);
}

MissionResult run_mission(const Simulator& simulator, const MissionPlan& plan,
                          MissionScratch& x) {
  FTSCHED_REQUIRE(plan.iterations > 0,
                  "a mission needs at least one iteration");

  // The initial knowledge is a set; normalize its presentation (sorted,
  // duplicate-free, suspicion subsumed by known death) so the iteration
  // summaries depend on the fault pattern, not on input ordering — the
  // invariant canonical.hpp's fingerprints rely on.
  auto as_set = [](std::vector<ProcessorId>& procs) {
    std::sort(procs.begin(), procs.end());
    procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  };
  std::vector<ProcessorId>& dead = x.dead;  // genuinely dead, any iteration
  dead = plan.dead_at_start;
  as_set(dead);
  std::vector<ProcessorId>& known = x.known;  // dead AND known by survivors
  known = dead;
  std::vector<ProcessorId>& suspected = x.suspected;  // alive but flagged
  suspected = plan.suspected_at_start;
  as_set(suspected);
  std::erase_if(suspected, [&](ProcessorId proc) {
    return std::find(dead.begin(), dead.end(), proc) != dead.end();
  });
  std::vector<LinkId>& dead_links = x.dead_links;
  dead_links = plan.dead_links_at_start;

  MissionResult result;
  result.iterations.reserve(static_cast<std::size_t>(plan.iterations));
  for (int i = 0; i < plan.iterations; ++i) {
    FailureScenario& scenario = x.scenario;
    scenario.events.clear();
    scenario.silent_windows.clear();
    scenario.link_events.clear();
    scenario.failed_at_start = known;
    scenario.suspected_at_start = suspected;
    scenario.failed_links_at_start = dead_links;
    // Dead-but-undetected processors are silent from the very start of this
    // iteration; survivors rediscover them through their watch chains.
    for (ProcessorId proc : dead) {
      if (std::find(known.begin(), known.end(), proc) == known.end()) {
        scenario.events.push_back(FailureEvent{proc, 0});
      }
    }
    for (const MissionFailure& failure : plan.failures) {
      if (failure.iteration == i) scenario.events.push_back(failure.event);
    }
    for (const MissionSilence& silence : plan.silences) {
      if (silence.iteration == i) {
        scenario.silent_windows.push_back(silence.window);
      }
    }
    for (const MissionLinkFailure& failure : plan.link_failures) {
      if (failure.iteration == i) {
        scenario.link_events.push_back(failure.event);
      }
    }

    // Discrete iterations recur across missions; serve them from the
    // scratch's memo when possible (see MissionScratch::memo).
    const IterationSummary* memoized = nullptr;
    const bool discrete = is_discrete(scenario);
    if (discrete) {
      memo_key(scenario, x.key);
      const auto hit = x.memo.find(x.key);
      if (hit != x.memo.end()) memoized = &hit->second;
    }
    if (memoized == nullptr) {
      simulator.run_summary(scenario, x.sim, x.summary);
      ++x.iterations_simulated;
      x.events_simulated += x.summary.events_executed;
      if (discrete) x.memo.emplace(x.key, x.summary);
    }
    const IterationSummary& run = memoized != nullptr ? *memoized : x.summary;

    MissionIteration summary;
    summary.index = i;
    summary.all_outputs_produced = run.all_outputs_produced;
    summary.response_time = run.response_time;
    summary.timeouts = run.timeouts;
    summary.elections = run.elections;
    summary.transfers = run.transfer_starts;
    summary.silence_deferral = run.silence_deferral;
    summary.op_completions = run.op_completions;
    summary.known_failed = known;
    summary.suspected = suspected;
    result.iterations.push_back(std::move(summary));

    // Update ground truth and knowledge for the next iteration.
    for (const FailureEvent& event : scenario.events) {
      if (std::find(dead.begin(), dead.end(), event.processor) ==
          dead.end()) {
        dead.push_back(event.processor);
      }
    }
    // A link that died stays dead for the rest of the mission.
    for (const LinkFailureEvent& event : scenario.link_events) {
      if (std::find(dead_links.begin(), dead_links.end(), event.link) ==
          dead_links.end()) {
        dead_links.push_back(event.link);
      }
    }
    known.clear();
    suspected.clear();
    for (ProcessorId accused : run.detected_failures) {
      if (std::find(dead.begin(), dead.end(), accused) != dead.end()) {
        known.push_back(accused);
      } else {
        suspected.push_back(accused);
      }
    }
  }
  return result;
}

std::string MissionResult::to_text(const ArchitectureGraph& arch) const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"iter", "outputs", "response", "timeouts", "elections",
                  "transfers", "known failed", "suspected"});
  for (const MissionIteration& it : iterations) {
    auto names = [&](const std::vector<ProcessorId>& procs) {
      std::vector<std::string> parts;
      for (ProcessorId proc : procs) parts.push_back(arch.processor(proc).name);
      return parts.empty() ? std::string("-") : join(parts, ",");
    };
    rows.push_back({std::to_string(it.index),
                    it.all_outputs_produced ? "ok" : "LOST",
                    time_to_string(it.response_time),
                    std::to_string(it.timeouts),
                    std::to_string(it.elections),
                    std::to_string(it.transfers), names(it.known_failed),
                    names(it.suspected)});
  }
  return render_table(rows);
}

}  // namespace ftsched
