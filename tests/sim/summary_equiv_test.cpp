// Summary equivalence of the event core, pinned over scenario sweeps:
// Simulator::run_summary produces, field for field, the digest a full
// Simulator::run would derive from its trace (the batched campaign path
// simulates without materializing traces). So does a paused branch copied
// with or without its trace, given the scenario's faults and finished in
// place (the certifier's leaves), and a branch given its silent windows
// each at its own instant (the certifier's depths). The scenarios pile
// crashes, window edges and link deaths onto schedule completion instants,
// so the same-instant batches hold many equal-time events.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "sched/heuristics.hpp"
#include "sim/simulator.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

/// The digest run() implies: trace-event counts plus the result fields.
IterationSummary digest_of(const IterationResult& result) {
  IterationSummary digest;
  digest.all_outputs_produced = result.all_outputs_produced;
  digest.response_time = result.response_time;
  digest.events_executed = result.events_executed;
  digest.detected_failures = result.detected_failures;
  digest.silence_deferral = result.silence_deferral;
  digest.op_completions = result.op_completions;
  for (const TraceEvent& event : result.trace.events()) {
    switch (event.kind) {
      case TraceEvent::Kind::kTimeout: ++digest.timeouts; break;
      case TraceEvent::Kind::kElection: ++digest.elections; break;
      case TraceEvent::Kind::kTransferStart: ++digest.transfer_starts; break;
      default: break;
    }
  }
  return digest;
}

void expect_equal(const IterationSummary& a, const IterationSummary& b) {
  EXPECT_EQ(a.all_outputs_produced, b.all_outputs_produced);
  EXPECT_EQ(a.response_time, b.response_time);  // exact, not epsilon
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.elections, b.elections);
  EXPECT_EQ(a.transfer_starts, b.transfer_starts);
  EXPECT_EQ(a.detected_failures, b.detected_failures);
  // The certifier's response envelope and chain verdicts read these two.
  EXPECT_EQ(a.silence_deferral, b.silence_deferral);  // exact
  EXPECT_EQ(a.op_completions, b.op_completions);      // exact
}

/// Randomized scenarios with deliberately colliding instants: every fault
/// time is quantized to 1/8ths of the makespan, so crashes, window edges,
/// link deaths, and static schedule events pile onto the same instants.
std::vector<FailureScenario> tie_heavy_scenarios(const Schedule& schedule,
                                                 std::uint64_t seed,
                                                 int count) {
  const Time makespan = schedule.makespan();
  const auto nprocs = static_cast<std::uint64_t>(
      schedule.problem().architecture->processor_count());
  std::mt19937_64 rng(seed);
  const auto instant = [&] {
    return makespan * static_cast<Time>(rng() % 9) / 8.0;
  };
  const auto proc = [&] {
    return ProcessorId{static_cast<std::int32_t>(rng() % nprocs)};
  };
  std::vector<FailureScenario> scenarios;
  scenarios.push_back({});  // failure-free floor
  for (int i = 0; i < count; ++i) {
    FailureScenario scenario;
    if (rng() % 2 != 0) {
      scenario.failed_at_start.push_back(proc());
    }
    if (rng() % 2 != 0) {
      scenario.events.push_back(FailureEvent{proc(), instant()});
    }
    if (rng() % 3 == 0) {
      const Time open = instant();
      scenario.silent_windows.push_back(
          SilentWindow{proc(), open, open + makespan / 8.0});
    }
    if (rng() % 4 == 0) {
      scenario.link_events.push_back(LinkFailureEvent{LinkId{0}, instant()});
    }
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

/// Injects every mid-run fault of `scenario` into a paused branch.
void inject_faults(const Simulator& simulator, const FailureScenario& scenario,
                   Simulator::Branch& branch) {
  for (const FailureEvent& crash : scenario.events) {
    simulator.inject(branch, crash);
  }
  for (const LinkFailureEvent& death : scenario.link_events) {
    simulator.inject(branch, death);
  }
  for (const SilentWindow& window : scenario.silent_windows) {
    simulator.inject(branch, window);
  }
}

/// The forked legs: the scenario's start state is begun and advanced up to
/// its earliest mid-run fault (half the makespan when it has none), then
/// copied three ways, each given the faults and finished: a fresh traced
/// fork finished into an IterationResult, and copies into the reused
/// `traced` and `bare` branches (with and without the trace prefix)
/// finished in place. `scratch` is run()'s digest; the forked digests count
/// only the events run after the copy.
void check_forked(const Simulator& simulator, const FailureScenario& scenario,
                  const IterationSummary& scratch, Simulator::Branch& traced,
                  Simulator::Branch& bare) {
  FailureScenario start = scenario;
  start.events.clear();
  start.link_events.clear();
  start.silent_windows.clear();
  Time pause = kInfinite;
  for (const FailureEvent& crash : scenario.events) {
    pause = std::min(pause, crash.time);
  }
  for (const LinkFailureEvent& death : scenario.link_events) {
    pause = std::min(pause, death.time);
  }
  for (const SilentWindow& window : scenario.silent_windows) {
    pause = std::min(pause, window.from);
  }
  if (is_infinite(pause)) pause = simulator.schedule().makespan() / 2;
  Simulator::Branch paused = simulator.begin(start);
  simulator.advance_until(paused, pause);
  IterationSummary expected = scratch;
  expected.events_executed -= paused.executed_events();

  Simulator::Branch fork = paused.fork();
  inject_faults(simulator, scenario, fork);
  const IterationResult result = simulator.finish(std::move(fork));
  {
    SCOPED_TRACE("traced fork, finish()");
    expect_equal(digest_of(result), expected);
  }

  IterationSummary summary;
  paused.copy_to(traced);
  inject_faults(simulator, scenario, traced);
  simulator.finish(traced, summary);
  {
    SCOPED_TRACE("traced copy, finished in place");
    expect_equal(summary, expected);
    EXPECT_TRUE(traced.trace().events() == result.trace.events());
  }

  paused.copy_to(bare, /*trace=*/false);
  inject_faults(simulator, scenario, bare);
  simulator.finish(bare, summary);
  {
    SCOPED_TRACE("trace-free copy, finished in place");
    expect_equal(summary, expected);
    EXPECT_TRUE(bare.trace().events().empty());
  }
}

void check_schedule(const Schedule& schedule, std::uint64_t seed) {
  const Simulator simulator(schedule);
  Simulator::Scratch scratch;
  IterationSummary summary;
  // Copy targets reused across scenarios, each switching between traced
  // and trace-free copies: a copy must overwrite all of a larger or
  // differently moded earlier state.
  Simulator::Branch targets[2];
  int i = 0;
  for (const FailureScenario& scenario :
       tie_heavy_scenarios(schedule, seed, 24)) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    simulator.run_summary(scenario, scratch, summary);
    const IterationSummary digest = digest_of(simulator.run(scenario));
    expect_equal(summary, digest);
    check_forked(simulator, scenario, digest, targets[i % 2],
                 targets[(i + 1) % 2]);
    ++i;
  }
}

/// Two silent windows injected each at its own pause point, as the
/// certifier's cursor injects a branch's faults depth by depth: `first`
/// opens at t = 0 and goes in once the prologue ran, `second` after the
/// run advanced to its opening edge. The staged summary must equal
/// run_summary's with both windows in the scenario. While the run
/// advances, relay hops and runtime backup sends give a sender idle sends
/// it had none of at t = 0; injecting `second` must not re-read that state
/// into `first`'s charge for instant 0.
void check_staged_windows(const Simulator& simulator,
                          const FailureScenario& start, SilentWindow first,
                          SilentWindow second) {
  FailureScenario scenario = start;
  scenario.silent_windows = {first, second};
  Simulator::Scratch scratch;
  IterationSummary expected;
  simulator.run_summary(scenario, scratch, expected);

  Simulator::Branch branch = simulator.begin(start);
  simulator.advance_until(branch, first.from);
  simulator.inject(branch, first);
  simulator.advance_until(branch, second.from);
  simulator.inject(branch, second);
  IterationSummary staged;
  simulator.finish(branch, staged);
  expect_equal(staged, expected);
}

/// Every (first sender, second sender, second opening edge on an eighths
/// grid) on `schedule`, with no processor or each one dead at start (a
/// dead main replica makes solution-1 backups send at run time).
void check_staged_schedule(const Schedule& schedule) {
  const Simulator simulator(schedule);
  const Time makespan = schedule.makespan();
  const ArchitectureGraph& arch = *schedule.problem().architecture;
  const auto nprocs = static_cast<std::int32_t>(arch.processor_count());
  const auto name = [&](std::int32_t p) {
    return arch.processor(ProcessorId{p}).name;
  };
  for (std::int32_t dead = -1; dead < nprocs; ++dead) {
    FailureScenario start;
    if (dead >= 0) start.failed_at_start.push_back(ProcessorId{dead});
    for (std::int32_t p = 0; p < nprocs; ++p) {
      const SilentWindow first{ProcessorId{p}, 0, makespan / 4};
      for (std::int32_t q = 0; q < nprocs; ++q) {
        for (int k = 1; k < 8; ++k) {
          const Time open = makespan * k / 8;
          SCOPED_TRACE((dead < 0 ? "none" : name(dead)) +
                       " dead, windows on " + name(p) + " at 0 and " +
                       name(q) + " at " + std::to_string(k) + "/8");
          check_staged_windows(simulator, start, first,
                               SilentWindow{ProcessorId{q}, open,
                                            open + makespan / 8});
        }
      }
    }
  }
}

TEST(SummaryEquivalence, WindowsInjectedAtTheirOwnInstants) {
  // Example 2 under solution 1: with P1 dead at start, P3's backups send
  // at run time, so P3 has idle sends it had none of at t = 0. A window
  // on P3 opening at 0 must not be charged for instant 0 when a later
  // window goes in.
  const OwnedProblem ex2 = workload::paper_example2();
  check_staged_schedule(schedule_solution1(ex2.problem).value());
  // A 5-processor ring relays transfers over several hops: P2 feeds no
  // first hop and gains an idle send only when a hop into it lands.
  workload::RandomProblemParams params;
  params.dag.operations = 10;
  params.processors = 5;
  params.arch_kind = workload::ArchKind::kRing;
  params.failures_to_tolerate = 1;
  params.seed = 2;
  const OwnedProblem ring = workload::random_problem(params);
  check_staged_schedule(schedule_solution2(ring.problem).value());
}

TEST(SummaryEquivalence, PaperExample1Solution1) {
  const OwnedProblem ex = workload::paper_example1();
  check_schedule(schedule_solution1(ex.problem).value(), 11);
}

TEST(SummaryEquivalence, PaperExample2Solution2) {
  const OwnedProblem ex = workload::paper_example2();
  check_schedule(schedule_solution2(ex.problem).value(), 12);
}

TEST(SummaryEquivalence, RandomProblems) {
  for (const std::uint64_t seed : {3u, 21u}) {
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
      check_schedule(result.value(), seed);
    }
  }
}

}  // namespace
}  // namespace ftsched
