// Fork-equivalence: the snapshotable Branch API (begin / advance_until /
// inject / fork / finish) must be indistinguishable from Simulator::run —
// bit-identical traces, response times, and detections — no matter how
// the same scenario is sliced into prefix + injections. The certifier and
// the transient analyzer both rest on this.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/heuristics.hpp"
#include "sim/simulator.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

void expect_identical(const IterationResult& a, const IterationResult& b) {
  ASSERT_EQ(a.trace.events().size(), b.trace.events().size());
  for (std::size_t i = 0; i < a.trace.events().size(); ++i) {
    EXPECT_TRUE(a.trace.events()[i] == b.trace.events()[i])
        << "trace diverges at event " << i;
  }
  EXPECT_EQ(a.all_outputs_produced, b.all_outputs_produced);
  EXPECT_EQ(a.response_time, b.response_time);  // exact, not epsilon
  EXPECT_EQ(a.detected_failures, b.detected_failures);
}

/// The mid-run events of `scenario` — crashes, link deaths, and silent
/// windows (keyed by their opening edge) — injected into a branch seeded
/// with everything else; `advance` interleaves advance_until up to each
/// injection instant (false = inject all upfront against the unexecuted
/// prologue).
IterationResult replay_forked(const Simulator& simulator,
                              const FailureScenario& scenario, bool advance) {
  FailureScenario base = scenario;
  base.events.clear();
  base.link_events.clear();
  base.silent_windows.clear();
  Simulator::Branch branch = simulator.begin(base);

  struct Injection {
    Time time = 0;
    int cls = 0;  // 0 = crash, 1 = link death, 2 = silent window
    std::size_t index = 0;
  };
  std::vector<Injection> order;
  for (std::size_t i = 0; i < scenario.events.size(); ++i) {
    order.push_back({scenario.events[i].time, 0, i});
  }
  for (std::size_t i = 0; i < scenario.link_events.size(); ++i) {
    order.push_back({scenario.link_events[i].time, 1, i});
  }
  for (std::size_t i = 0; i < scenario.silent_windows.size(); ++i) {
    order.push_back({scenario.silent_windows[i].from, 2, i});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Injection& a, const Injection& b) {
                     return time_lt(a.time, b.time);
                   });
  for (const Injection& injection : order) {
    if (advance) simulator.advance_until(branch, injection.time);
    if (injection.cls == 1) {
      simulator.inject(branch, scenario.link_events[injection.index]);
    } else if (injection.cls == 2) {
      simulator.inject(branch, scenario.silent_windows[injection.index]);
    } else {
      simulator.inject(branch, scenario.events[injection.index]);
    }
  }
  return simulator.finish(std::move(branch));
}

std::vector<FailureScenario> interesting_scenarios(const Schedule& schedule) {
  const Time makespan = schedule.makespan();
  std::vector<FailureScenario> scenarios;
  scenarios.push_back({});
  scenarios.push_back(FailureScenario::dead_from_start({ProcessorId{1}}));
  scenarios.push_back(FailureScenario::crash(ProcessorId{0}, makespan / 3));
  scenarios.push_back(FailureScenario::crash(ProcessorId{1}, makespan / 2));
  {
    // Double crash at distinct instants plus a silent window.
    FailureScenario scenario;
    scenario.events.push_back(FailureEvent{ProcessorId{0}, makespan / 4});
    scenario.events.push_back(
        FailureEvent{ProcessorId{2}, makespan * 2 / 3});
    scenario.silent_windows.push_back(
        SilentWindow{ProcessorId{1}, makespan / 5, makespan / 2});
    scenarios.push_back(std::move(scenario));
  }
  {
    // Simultaneous crashes: same instant, two victims.
    FailureScenario scenario;
    scenario.events.push_back(FailureEvent{ProcessorId{0}, makespan / 2});
    scenario.events.push_back(FailureEvent{ProcessorId{2}, makespan / 2});
    scenarios.push_back(std::move(scenario));
  }
  {
    // A link death mid-run alongside a processor crash.
    FailureScenario scenario;
    scenario.events.push_back(FailureEvent{ProcessorId{1}, makespan / 2});
    scenario.link_events.push_back(
        LinkFailureEvent{LinkId{0}, makespan / 4});
    scenarios.push_back(std::move(scenario));
  }
  {
    // A silent window with no other fault: blocked sends resume at the
    // closing edge, watch chains may fire meanwhile.
    FailureScenario scenario;
    scenario.silent_windows.push_back(
        SilentWindow{ProcessorId{0}, makespan / 6, makespan / 2});
    scenarios.push_back(std::move(scenario));
  }
  {
    // Same-instant crash and window opening on distinct processors (the
    // certifier explores these as one canonical same-instant pair).
    FailureScenario scenario;
    scenario.events.push_back(FailureEvent{ProcessorId{2}, makespan / 3});
    scenario.silent_windows.push_back(
        SilentWindow{ProcessorId{0}, makespan / 3, makespan});
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

void check_schedule(const Schedule& schedule) {
  const Simulator simulator(schedule);
  for (const FailureScenario& scenario : interesting_scenarios(schedule)) {
    const IterationResult scratch = simulator.run(scenario);
    // Mode 1: the whole scenario seeds the branch.
    expect_identical(simulator.finish(simulator.begin(scenario)), scratch);
    // Mode 2: mid-run events injected upfront, prologue unexecuted.
    expect_identical(replay_forked(simulator, scenario, false), scratch);
    // Mode 3: prefix executed incrementally up to each injection.
    expect_identical(replay_forked(simulator, scenario, true), scratch);
  }
}

TEST(ForkEquivalence, PaperExample1Solution1) {
  const OwnedProblem ex = workload::paper_example1();
  check_schedule(schedule_solution1(ex.problem).value());
}

TEST(ForkEquivalence, PaperExample1Base) {
  const OwnedProblem ex = workload::paper_example1();
  check_schedule(schedule_base(ex.problem).value());
}

TEST(ForkEquivalence, PaperExample2Solution2) {
  const OwnedProblem ex = workload::paper_example2();
  check_schedule(schedule_solution2(ex.problem).value());
}

TEST(ForkEquivalence, RandomProblems) {
  for (const std::uint64_t seed : {7u, 19u, 40u}) {
    workload::RandomProblemParams params;
    params.dag.operations = 14;
    params.processors = 4;
    params.failures_to_tolerate = 1;
    params.seed = seed;
    const OwnedProblem ex = workload::random_problem(params);
    for (const HeuristicKind kind :
         {HeuristicKind::kSolution1, HeuristicKind::kSolution2}) {
      const auto result = schedule(ex.problem, kind);
      ASSERT_TRUE(result.has_value()) << result.error().message;
      SCOPED_TRACE(to_string(kind) + " seed " + std::to_string(seed));
      check_schedule(result.value());
    }
  }
}

TEST(ForkEquivalence, ForksAreIndependent) {
  // Two branches forked from one advanced cursor evolve independently:
  // finishing one (or forking it again) must not disturb the other, and
  // each must equal its from-scratch run.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  const Time mid = schedule.makespan() / 2;

  Simulator::Branch cursor = simulator.begin();
  simulator.advance_until(cursor, mid);

  Simulator::Branch a = cursor.fork();
  Simulator::Branch b = cursor.fork();
  simulator.inject(a, FailureEvent{ProcessorId{0}, mid});
  simulator.inject(b, FailureEvent{ProcessorId{2}, mid});

  // Finish a twice via an extra fork before touching b at all.
  const IterationResult a1 = simulator.finish(a.fork());
  const IterationResult a2 = simulator.finish(std::move(a));
  expect_identical(a1, a2);
  expect_identical(a1,
                   simulator.run(FailureScenario::crash(ProcessorId{0}, mid)));
  expect_identical(simulator.finish(std::move(b)),
                   simulator.run(FailureScenario::crash(ProcessorId{2}, mid)));
  // The cursor itself is still a valid failure-free branch.
  expect_identical(simulator.finish(std::move(cursor)), simulator.run());
}

TEST(ForkEquivalence, InjectIntoExecutedPrefixThrows) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  Simulator::Branch branch = simulator.begin();
  simulator.advance_until(branch, schedule.makespan());
  EXPECT_THROW(simulator.inject(branch, FailureEvent{ProcessorId{0}, 0}),
               std::invalid_argument);
}

TEST(ForkEquivalence, InjectSilentWindowGuards) {
  // The window's opening edge carries the same executed_until guard as a
  // crash instant, and degenerate (non-positive-length) windows are
  // rejected outright.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  const Time makespan = schedule.makespan();
  Simulator::Branch branch = simulator.begin();
  simulator.advance_until(branch, makespan / 2);
  EXPECT_THROW(
      simulator.inject(branch, SilentWindow{ProcessorId{0}, 0, makespan}),
      std::invalid_argument);
  EXPECT_THROW(
      simulator.inject(branch,
                       SilentWindow{ProcessorId{0}, makespan, makespan}),
      std::invalid_argument);
  // A well-formed future window is accepted and the branch still runs.
  simulator.inject(branch,
                   SilentWindow{ProcessorId{0}, makespan * 0.75, makespan});
  const IterationResult result = simulator.finish(std::move(branch));
  EXPECT_FALSE(result.trace.events().empty());
}

}  // namespace
}  // namespace ftsched
