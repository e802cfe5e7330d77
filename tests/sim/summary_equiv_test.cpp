// Summary equivalence of the event core, pinned over scenario sweeps:
// Simulator::run_summary produces, field for field, the digest a full
// Simulator::run would derive from its trace (the batched campaign path
// simulates without materializing traces). The scenarios pile crashes,
// window edges and link deaths onto schedule completion instants, so the
// same-instant batches hold many equal-time events.
#include <gtest/gtest.h>

#include <random>
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

void check_schedule(const Schedule& schedule, std::uint64_t seed) {
  const Simulator simulator(schedule);
  Simulator::Scratch scratch;
  IterationSummary summary;
  for (const FailureScenario& scenario :
       tie_heavy_scenarios(schedule, seed, 24)) {
    simulator.run_summary(scenario, scratch, summary);
    expect_equal(summary, digest_of(simulator.run(scenario)));
  }
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
