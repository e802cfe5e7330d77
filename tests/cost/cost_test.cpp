// Work counts of every layer, pinned exactly on fixed inputs: scheduler
// evaluations, fault-free simulator events, the missions a campaign really
// simulates, and the forks, branches and events of exhaustive
// certification. Each count is a pure function of its input, so it holds on
// any machine, compiler, build type and thread count, and a structural
// regression (a full rescan every step, a memo that stops hitting, fork
// sharing replaced by replay, dedup gone) moves it exactly, naming its
// layer. Wall clock is measured only by the benchmark (ftbench/).
//
// A count that moves on purpose is re-pinned in the same change, with the
// reason in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/certify.hpp"
#include "campaign/scenario_gen.hpp"
#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"
#include "tuning/hybrid.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

OwnedProblem certify_k2_problem() {
  std::ifstream file(std::string(FTSCHED_SOURCE_DIR) + "/data/certify_k2.ft");
  std::stringstream buffer;
  buffer << file.rdbuf();
  Expected<OwnedProblem> parsed = io::read_problem(buffer.str());
  EXPECT_TRUE(parsed.has_value());
  return std::move(parsed).value();
}

/// The scheduler configs: seed-97 random DAGs of width 6 at CCR 0.5.
OwnedProblem scheduler_problem(std::size_t operations, std::size_t processors,
                               int k, workload::ArchKind arch) {
  workload::RandomProblemParams params;
  params.dag.operations = operations;
  params.dag.width = 6;
  params.arch_kind = arch;
  params.processors = processors;
  params.failures_to_tolerate = k;
  params.ccr = 0.5;
  params.seed = 97;
  return workload::random_problem(params);
}

OwnedProblem small_random_problem(std::size_t operations,
                                  std::size_t processors, int k,
                                  std::uint64_t seed) {
  workload::RandomProblemParams params;
  params.dag.operations = operations;
  params.processors = processors;
  params.failures_to_tolerate = k;
  params.seed = seed;
  return workload::random_problem(params);
}

TEST(Cost, SchedulerEvaluations) {
  // Seed-97 DAGs from 20 to 500 operations on 4 to 8 processors. Every
  // step evaluates each waiting candidate on each processor allowed to run
  // it, so the count is the sum over steps of those (candidate, processor)
  // pairs; a step that evaluates anything else moves it.
  struct Config {
    HeuristicKind kind;
    workload::ArchKind arch;
    std::size_t operations;
    std::size_t processors;
    int k;
    std::size_t evaluations;
  };
  using enum HeuristicKind;
  constexpr auto kBus = workload::ArchKind::kBus;
  constexpr auto kP2P = workload::ArchKind::kFullyConnected;
  const std::vector<Config> configs = {
      {kSolution1, kBus, 20, 4, 1, 276},
      {kSolution1, kBus, 50, 4, 1, 652},
      {kSolution1, kBus, 100, 4, 1, 1'564},
      {kSolution1, kBus, 200, 4, 1, 4'308},
      {kSolution1, kBus, 100, 8, 1, 3'028},
      {kSolution1, kBus, 100, 8, 3, 3'024},
      {kSolution2, kP2P, 20, 4, 1, 268},
      {kSolution2, kP2P, 50, 4, 1, 644},
      {kSolution2, kP2P, 100, 4, 1, 1'524},
      {kSolution2, kP2P, 200, 4, 1, 4'176},
      {kSolution2, kP2P, 100, 8, 1, 2'740},
      {kSolution2, kP2P, 100, 8, 3, 3'072},
      {kBase, kBus, 50, 6, 0, 920},
      {kBase, kBus, 200, 6, 0, 5'438},
      {kBase, kBus, 500, 6, 0, 19'472},
  };
  for (const Config& c : configs) {
    const OwnedProblem ex =
        scheduler_problem(c.operations, c.processors, c.k, c.arch);
    const Expected<Schedule> result = schedule(ex.problem, c.kind);
    ASSERT_TRUE(result.has_value());
    const std::string label = to_string(c.kind) + " " +
                              std::to_string(c.operations) + "/" +
                              std::to_string(c.processors) + "/" +
                              std::to_string(c.k);
    EXPECT_EQ(result.value().work().evaluations, c.evaluations) << label;
  }
}

TEST(Cost, FaultFreeSimulatorEvents) {
  const OwnedProblem ex1 = workload::paper_example1();
  const OwnedProblem ex2 = workload::paper_example2();
  const OwnedProblem k2 = certify_k2_problem();
  const OwnedProblem bus200 =
      scheduler_problem(200, 4, 1, workload::ArchKind::kBus);
  const OwnedProblem p2p200 =
      scheduler_problem(200, 4, 1, workload::ArchKind::kFullyConnected);
  struct Config {
    const char* name;
    const Problem* problem;
    HeuristicKind kind;
    std::size_t events;
  };
  const std::vector<Config> configs = {
      {"example1 base", &ex1.problem, HeuristicKind::kBase, 12},
      {"example1 solution1", &ex1.problem, HeuristicKind::kSolution1, 36},
      {"example2 solution2", &ex2.problem, HeuristicKind::kSolution2, 32},
      {"certify_k2 solution2", &k2.problem, HeuristicKind::kSolution2, 101},
      {"200-op bus solution1", &bus200.problem, HeuristicKind::kSolution1,
       1'470},
      {"200-op p2p solution2", &p2p200.problem, HeuristicKind::kSolution2,
       1'563},
  };
  for (const Config& c : configs) {
    const Schedule s = schedule(*c.problem, c.kind).value();
    const IterationResult run = Simulator(s).run(FailureScenario{});
    EXPECT_TRUE(run.all_outputs_produced) << c.name;
    EXPECT_EQ(run.events_executed, c.events) << c.name;
  }
}

TEST(Cost, EventCoreVisitsStayFlat) {
  // Seed-5 DAGs of 25 to 400 operations on 8 processors, each run
  // fault-free and with one crash per processor at makespan / 2. A
  // same-instant batch revisits only the entities its events can unblock,
  // so the entities examined per event (fixpoint visits, fault-handler
  // frames, wake-lookup candidates) stay flat as the plan grows: 1.47x on
  // the bus and 1.05x on P2P from 25 to 400 operations. Rescanning every
  // live entity per batch grew them linearly: from 28 to 430 per event on
  // the bus and from 43 to 701 on P2P.
  struct Config {
    workload::ArchKind arch;
    HeuristicKind kind;
    std::size_t operations;
    std::size_t events;
    std::size_t visits;
  };
  constexpr auto kBus = workload::ArchKind::kBus;
  constexpr auto kP2P = workload::ArchKind::kFullyConnected;
  using enum HeuristicKind;
  const std::vector<Config> configs = {
      {kBus, kSolution1, 25, 1'403, 5'570},
      {kBus, kSolution1, 50, 3'385, 16'605},
      {kBus, kSolution1, 100, 6'414, 31'783},
      {kBus, kSolution1, 200, 13'343, 69'513},
      {kBus, kSolution1, 400, 26'935, 156'643},
      {kP2P, kSolution2, 25, 1'373, 3'609},
      {kP2P, kSolution2, 50, 2'972, 8'182},
      {kP2P, kSolution2, 100, 5'799, 15'831},
      {kP2P, kSolution2, 200, 11'526, 31'219},
      {kP2P, kSolution2, 400, 23'630, 65'143},
  };
  double smallest = 0;
  for (const Config& c : configs) {
    workload::RandomProblemParams params;
    params.dag.operations = c.operations;
    params.processors = 8;
    params.arch_kind = c.arch;
    params.seed = 5;
    const OwnedProblem ex = workload::random_problem(params);
    const Schedule s = schedule(ex.problem, c.kind).value();
    const Simulator simulator(s);
    Simulator::Scratch scratch;
    IterationSummary summary;
    std::size_t events = 0;
    std::size_t visits = 0;
    auto run = [&](const FailureScenario& scenario) {
      simulator.run_summary(scenario, scratch, summary);
      events += summary.events_executed;
      visits += summary.entity_visits;
    };
    run({});
    for (std::size_t p = 0; p < params.processors; ++p) {
      run(FailureScenario::crash(
          ProcessorId{static_cast<ProcessorId::underlying_type>(p)},
          s.makespan() / 2));
    }
    const std::string label =
        to_string(c.kind) + " " + std::to_string(c.operations);
    EXPECT_EQ(events, c.events) << label;
    EXPECT_EQ(visits, c.visits) << label;
    const double per_event =
        static_cast<double>(visits) / static_cast<double>(events);
    if (c.operations == 25) smallest = per_event;
    if (c.operations == 400) {
      EXPECT_LE(per_event, 2 * smallest) << label;
    }
  }
}

TEST(Cost, OneMissionScratchRunsTheCampaignPlans) {
  // The plans of a 4,000-scenario seed-42 campaign on the Fig. 17 schedule,
  // run in order through one scratch: what run_campaign simulates at one
  // thread. Most of their 8,023 iterations are discrete (no silence, no
  // link death, every crash at t = 0) and come from the scratch's memo.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  campaign::CampaignSpec spec;
  spec.max_iterations = 3;
  spec.over_budget_fraction = 0.15;
  spec.silence_probability = 0.10;
  spec.suspect_probability = 0.10;
  const campaign::ScenarioGenerator generator(schedule, spec, 42);
  const Simulator simulator(schedule);
  campaign::CampaignScenario scenario;
  campaign::ScenarioScratch gen;
  MissionScratch scratch;
  for (std::size_t i = 0; i < 4000; ++i) {
    generator.scenario_into(i, scenario, gen);
    (void)run_mission(simulator, scenario.plan, scratch);
  }
  EXPECT_EQ(scratch.iterations_simulated, 1'992u);
  EXPECT_EQ(scratch.events_simulated, 64'672u);
}

TEST(Cost, CertifyForksAndDedupBeatReplayingEveryBranch) {
  // Six schedules at their own K: both paper figures, the §5.3 hybrid of
  // Fig. 22's problem, and three random DAGs. The naive enumerator's every
  // branch is replayed from t = 0 and must reach its recorded verdict; that
  // replay is the work fork sharing and dedup save, at least 3x here.
  const OwnedProblem ex1 = workload::paper_example1();
  const OwnedProblem ex2 = workload::paper_example2();
  const OwnedProblem r12 = small_random_problem(12, 4, 1, 3);
  const OwnedProblem r16 = small_random_problem(16, 5, 1, 8);
  const OwnedProblem r10 = small_random_problem(10, 4, 2, 11);
  struct Config {
    const char* name;
    Schedule schedule;
    std::size_t branches;
    std::size_t forks;
    std::size_t events;
    std::size_t naive_branches;
    std::size_t replay_events;
  };
  std::vector<Config> configs = {
      {"fig17_solution1", schedule_solution1(ex1.problem).value(), 40, 82,
       855, 109, 3'903},
      {"fig22_solution2", schedule_solution2(ex2.problem).value(), 55, 112,
       789, 109, 3'201},
      {"fig22_hybrid", schedule_hybrid(ex2.problem).value().schedule, 70, 142,
       1'449, 139, 5'782},
      {"random_n12_p4_k1", schedule_solution2(r12.problem).value(), 145, 293,
       4'625, 425, 27'836},
      {"random_n16_p5_k1", schedule_solution2(r16.problem).value(), 203, 410,
       9'442, 731, 70'397},
      {"random_n10_p4_k2", schedule_solution2(r10.problem).value(), 14'598,
       29'414, 351'763, 105'051, 8'556'889},
  };
  for (const Config& c : configs) {
    campaign::CertifySpec spec;
    spec.threads = 4;
    const campaign::CertifyReport fast = campaign::certify(c.schedule, spec);
    spec.dedup = false;
    spec.collect_branches = true;
    const campaign::CertifyReport naive = campaign::certify(c.schedule, spec);
    EXPECT_TRUE(fast.certified) << c.name;
    EXPECT_TRUE(naive.certified) << c.name;

    const Simulator simulator(c.schedule);
    Simulator::Scratch scratch;
    IterationSummary summary;
    std::size_t replay_events = 0;
    std::size_t wrong_verdicts = 0;
    for (const campaign::CertifyBranch& branch : naive.branches_list) {
      simulator.run_summary(branch.faults, scratch, summary);
      replay_events += summary.events_executed;
      if (summary.all_outputs_produced == branch.outputs_lost) ++wrong_verdicts;
    }
    EXPECT_EQ(wrong_verdicts, 0u) << c.name;
    EXPECT_EQ(fast.branches, c.branches) << c.name;
    EXPECT_EQ(fast.forks, c.forks) << c.name;
    EXPECT_EQ(fast.events_simulated, c.events) << c.name;
    EXPECT_EQ(naive.branches, c.naive_branches) << c.name;
    EXPECT_EQ(replay_events, c.replay_events) << c.name;
    EXPECT_GE(replay_events, 3 * fast.events_simulated) << c.name;
  }
}

// Fig. 22's schedule runs on 3 processors, so a K=3 budget clamps to
// N - 1 = 2 crashes. Its deduplicated K=2 + S=1 sweep (271,231 branches) is
// pinned by Certify.ReportIsThreadCountInvariantWithLinkAndSilenceBudgets,
// its K=3 sweep (1,058) and the 4-processor K=3 sweep (462,267) by
// Cli.RefutedClaimsExitOneWithAValidCertificate. Branch counts do not depend
// on the thread count, so the sweeps here run on four.

TEST(Cost, DedupSimulatesATenthOfTheNaiveBranches) {
  // K=1 + S=1, the frontier's (1, 0, 1) point. The naive K=2 + S=1
  // enumeration simulates 4,631,833 branches, 17.1x what dedup keeps, but
  // costs 18 s of CPU; this sweep shows the same pruning at 1/25 the cost.
  const OwnedProblem ex2 = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex2.problem).value();
  campaign::CertifySpec spec{.max_failures = 1, .max_silences = 1,
                             .threads = 4};
  const campaign::CertifyReport dedup = campaign::certify(schedule, spec);
  spec.dedup = false;
  const campaign::CertifyReport naive = campaign::certify(schedule, spec);
  EXPECT_TRUE(dedup.certified);
  EXPECT_TRUE(naive.certified);
  EXPECT_EQ(dedup.branches, 15'789u);
  EXPECT_EQ(naive.branches, 182'335u);
  EXPECT_GE(naive.branches, 10 * dedup.branches);
}

// The task cut. A task whose first fault leaves at least two more to
// place is divided into one task per child of its root, so no task holds a
// large share of a deep sweep: one per-first-victim task of Fig. 22's
// K=2 + S=1 sweep held 89,891 of its branches (28 tasks), and one per
// (first victim, first instant) would still hold 35,459. Shallower sweeps,
// every certifyd request of the benchmark's serve mix among them, keep one
// task per first victim, so their task lists, and with them certifyd's
// `ack.tasks` and counterexample task indices, stay put.
TEST(Cost, DeepTasksAreCutPerChildOfTheirRoot) {
  const OwnedProblem ex1 = workload::paper_example1();
  const OwnedProblem ex2 = workload::paper_example2();
  const Schedule fig17 = schedule_solution1(ex1.problem).value();
  const Schedule fig22 = schedule_solution2(ex2.problem).value();
  const campaign::CertifySpec deep{
      .max_failures = 2, .max_silences = 1, .threads = 1};
  std::size_t tasks = 0;
  std::size_t largest = 0;
  std::size_t branches = 0;
  std::size_t forks = 0;
  EXPECT_TRUE(campaign::certify_shard(
      fig22, deep, {}, [&](campaign::CertifyTaskPartial&& partial) {
        ++tasks;
        largest = std::max(largest, partial.branches);
        branches += partial.branches;
        forks += partial.forks;
      }));
  EXPECT_EQ(campaign::certify_sweep(fig22, deep).tasks, 353u);
  EXPECT_EQ(tasks, 353u);
  EXPECT_EQ(largest, 5'714u);
  EXPECT_EQ(branches, 271'231u);
  // The undivided tree's forks: a child task's repeated root start and
  // cursor copy are not counted.
  EXPECT_EQ(forks, 559'229u);

  EXPECT_EQ(campaign::certify_sweep(
                fig22, {.max_failures = 1, .max_silences = 1})
                .tasks,
            16u);
  EXPECT_EQ(campaign::certify_sweep(fig17, {.max_failures = 1}).tasks, 7u);
}

TEST(Cost, DeepSweepsWithALinkOrSilenceBudget) {
  const OwnedProblem ex2 = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex2.problem).value();
  const campaign::CertifyReport link = campaign::certify(
      schedule, {.max_failures = 3, .max_link_failures = 1, .threads = 4});
  EXPECT_FALSE(link.certified);
  EXPECT_EQ(link.branches, 27'620u);
  const campaign::CertifyReport silence = campaign::certify(
      schedule, {.max_failures = 3, .max_silences = 1, .threads = 4});
  EXPECT_FALSE(silence.certified);
  EXPECT_EQ(silence.branches, 271'231u);
}

}  // namespace
}  // namespace ftsched
