// Mission runner and intermittent fail-silent episodes (§6.1 item 3).
#include <gtest/gtest.h>

#include "campaign/scenario_gen.hpp"
#include "sched/heuristics.hpp"
#include "sim/mission.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

TEST(Mission, FailureFreeMissionIsSteady) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const MissionResult mission = run_mission(schedule, 4, {});
  EXPECT_TRUE(mission.every_iteration_served());
  for (const MissionIteration& it : mission.iterations) {
    EXPECT_DOUBLE_EQ(it.response_time,
                     mission.iterations.front().response_time);
    EXPECT_EQ(it.timeouts, 0u);
    EXPECT_TRUE(it.known_failed.empty());
    EXPECT_TRUE(it.suspected.empty());
  }
}

TEST(Mission, CrashDetectedThenSettled) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const ProcessorId p2 = ex.problem.architecture->find_processor("P2");
  const MissionResult mission = run_mission(
      schedule, 4, {MissionFailure{1, FailureEvent{p2, 3.2}}});
  SCOPED_TRACE(mission.to_text(*ex.problem.architecture));
  EXPECT_TRUE(mission.every_iteration_served());
  // Iteration 1 is the transient one; iterations 2-3 know the failure.
  EXPECT_GT(mission.iterations[1].timeouts, 0u);
  EXPECT_TRUE(mission.iterations[1].known_failed.empty());
  EXPECT_EQ(mission.iterations[2].known_failed,
            std::vector<ProcessorId>{p2});
  EXPECT_EQ(mission.iterations[2].timeouts, 0u);
  EXPECT_EQ(mission.iterations[3].known_failed,
            std::vector<ProcessorId>{p2});
  // Subsequent iterations are no slower than the transient one.
  EXPECT_LE(mission.iterations[2].response_time,
            mission.iterations[1].response_time);
}

TEST(Mission, TwoStaggeredCrashesWithKTwo) {
  // 4-processor bus version of the paper's algorithm with K = 2: allow I/O
  // on three processors so the redundancy suffices.
  OwnedProblem ex = workload::paper_example1();
  auto arch = std::make_unique<ArchitectureGraph>();
  std::vector<ProcessorId> procs;
  for (int i = 1; i <= 4; ++i) {
    std::string name = "P";
    name += std::to_string(i);
    procs.push_back(arch->add_processor(name));
  }
  arch->add_bus("bus", procs);
  auto algorithm = workload::paper_algorithm();
  auto exec = std::make_unique<ExecTable>(*algorithm, *arch);
  auto comm = std::make_unique<CommTable>(*algorithm, *arch);
  for (const Operation& op : algorithm->operations()) {
    exec->set_uniform(op.id, 1.0);
  }
  for (const Dependency& dep : algorithm->dependencies()) {
    comm->set_uniform(dep.id, 0.4);
  }
  OwnedProblem owned =
      workload::assemble(std::move(algorithm), std::move(arch),
                         std::move(exec), std::move(comm), 2);
  const Schedule schedule = schedule_solution1(owned.problem).value();

  const MissionResult mission = run_mission(
      schedule, 5,
      {MissionFailure{1, FailureEvent{ProcessorId{0}, 2.0}},
       MissionFailure{3, FailureEvent{ProcessorId{2}, 1.0}}});
  SCOPED_TRACE(mission.to_text(*owned.problem.architecture));
  EXPECT_TRUE(mission.every_iteration_served());
  EXPECT_EQ(mission.iterations[4].known_failed.size(), 2u);
}

TEST(FailSilent, EpisodeIsRiddenOutAndForgiven) {
  // P2 (the main of most of example 1's operations) goes silent for a
  // stretch of the iteration: the backups detect the silence and cover for
  // it, outputs still appear, and once P2 resumes sending, the rejoin logic
  // clears its flags — nobody considers it failed afterwards.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  const ProcessorId p2 = ex.problem.architecture->find_processor("P2");

  FailureScenario scenario;
  scenario.silent_windows.push_back(SilentWindow{p2, 4.0, 7.0});
  const IterationResult result = simulator.run(scenario);
  SCOPED_TRACE(result.trace.to_text(*ex.problem.algorithm,
                                    *ex.problem.architecture));
  EXPECT_TRUE(result.all_outputs_produced);
  EXPECT_GT(result.trace.count(TraceEvent::Kind::kTimeout), 0u);
  // Nobody still flags P2 itself: its resumed sends rehabilitated it. (A
  // flag on another processor may linger until the next iteration's
  // traffic — covered by the mission test below.)
  for (ProcessorId accused : result.detected_failures) {
    EXPECT_NE(accused, p2);
  }

  // Across a mission the episode may leave a *sticky* suspicion on a pure
  // backup processor (it transmits nothing in nominal iterations, so the
  // bus-scanning rejoin never gets evidence of life — an honest limitation
  // of the §6.1 scheme). The property that matters: the suspicion is
  // benign — every iteration keeps serving, nothing is ever promoted to
  // "known failed", and a later REAL failure is still masked.
  const MissionResult mission = run_mission(
      schedule, 4, {MissionFailure{2, FailureEvent{p2, 3.2}}},
      {MissionSilence{0, SilentWindow{p2, 4.0, 7.0}}});
  SCOPED_TRACE(mission.to_text(*ex.problem.architecture));
  EXPECT_TRUE(mission.every_iteration_served());
  for (const MissionIteration& it : mission.iterations) {
    EXPECT_LE(it.suspected.size(), 1u);
  }
  EXPECT_EQ(mission.iterations[3].known_failed,
            std::vector<ProcessorId>{p2});
}

TEST(FailSilent, SuspectedProcessorIsRehabilitatedNextIteration) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  const ProcessorId p2 = ex.problem.architecture->find_processor("P2");

  // Everyone wrongly believes P2 dead at iteration start; P2 is healthy.
  FailureScenario scenario;
  scenario.suspected_at_start = {p2};
  const IterationResult result = simulator.run(scenario);
  SCOPED_TRACE(result.trace.to_text(*ex.problem.algorithm,
                                    *ex.problem.architecture));
  EXPECT_TRUE(result.all_outputs_produced);
  // P2's own sends rehabilitate it.
  EXPECT_TRUE(result.detected_failures.empty());
}

TEST(Mission, SharedScratchEqualsFreshScratch) {
  // The discrete-iteration memo is pure reuse: a scratch that has already
  // served hundreds of missions must return, field for field, what a fresh
  // one does. Solution 2 has no timeouts, so nothing is ever detected and
  // every post-crash iteration re-injects its dead processor at t = 0 —
  // the memo's widest domain.
  const OwnedProblem ex1 = workload::paper_example1();
  const OwnedProblem ex2 = workload::paper_example2();
  workload::RandomProblemParams params;
  params.dag.operations = 14;
  params.arch_kind = workload::ArchKind::kFullyConnected;
  params.seed = 3;
  const OwnedProblem random = workload::random_problem(params);
  const Schedule schedules[] = {schedule_solution1(ex1.problem).value(),
                                schedule_solution2(ex2.problem).value(),
                                schedule_solution2(random.problem).value()};
  // campaign_tool's default mix.
  campaign::CampaignSpec spec;
  spec.max_iterations = 3;
  spec.over_budget_fraction = 0.15;
  spec.silence_probability = 0.10;
  spec.suspect_probability = 0.10;
  for (const Schedule& schedule : schedules) {
    const Simulator simulator(schedule);
    const campaign::ScenarioGenerator generator(schedule, spec, 42);
    MissionScratch shared;
    for (std::size_t i = 0; i < 400; ++i) {
      const MissionPlan plan = generator.scenario(i).plan;
      const MissionResult reused = run_mission(simulator, plan, shared);
      const MissionResult fresh = run_mission(simulator, plan);
      SCOPED_TRACE("scenario " + std::to_string(i));
      ASSERT_EQ(reused.iterations.size(), fresh.iterations.size());
      for (std::size_t k = 0; k < fresh.iterations.size(); ++k) {
        const MissionIteration& a = reused.iterations[k];
        const MissionIteration& b = fresh.iterations[k];
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.all_outputs_produced, b.all_outputs_produced);
        EXPECT_EQ(a.response_time, b.response_time);
        EXPECT_EQ(a.timeouts, b.timeouts);
        EXPECT_EQ(a.elections, b.elections);
        EXPECT_EQ(a.transfers, b.transfers);
        EXPECT_EQ(a.silence_deferral, b.silence_deferral);
        EXPECT_EQ(a.known_failed, b.known_failed);
        EXPECT_EQ(a.suspected, b.suspected);
        EXPECT_EQ(a.op_completions, b.op_completions);
      }
    }
    EXPECT_FALSE(shared.memo.empty());
  }
}

TEST(Mission, RejectsNonPositiveIterationCount) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  EXPECT_THROW(run_mission(schedule, 0, {}), std::invalid_argument);
}

}  // namespace
}  // namespace ftsched
