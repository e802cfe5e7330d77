// The parallel campaign runner: clean schedules survive, thread count
// never changes the verdict, under-replicated claims are caught, and the
// randomized campaign agrees with exhaustive subset injection.
#include <gtest/gtest.h>

#include <string>

#include "campaign/certify.hpp"
#include "campaign/runner.hpp"
#include "sched/heuristics.hpp"
#include "sim/simulator.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched::campaign {
namespace {

CampaignOptions rich_options(std::size_t scenarios, std::uint64_t seed) {
  CampaignOptions options;
  options.scenarios = scenarios;
  options.seed = seed;
  options.threads = 1;
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.2;
  options.spec.silence_probability = 0.15;
  options.spec.suspect_probability = 0.15;
  return options;
}

TEST(CampaignRunner, Example1Solution1SurvivesCampaign) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const CampaignReport report =
      run_campaign(schedule, rich_options(400, 42));
  EXPECT_EQ(report.scenarios_run, 400u);
  EXPECT_EQ(report.total_violations, 0u)
      << (report.violations.empty()
              ? std::string()
              : report.violations.front().details.front());
  EXPECT_GT(report.within_contract, 0u);
  // Over-budget attacks must actually break things — otherwise the
  // campaign is shooting blanks.
  EXPECT_GT(report.expected_losses, 0u);
  EXPECT_EQ(report.claimed_tolerance, schedule.failures_tolerated());
}

TEST(CampaignRunner, Example2Solution2SurvivesCampaign) {
  const workload::OwnedProblem ex = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex.problem).value();
  const CampaignReport report =
      run_campaign(schedule, rich_options(200, 7));
  EXPECT_EQ(report.total_violations, 0u);
  EXPECT_GT(report.expected_losses, 0u);
}

TEST(CampaignRunner, ReportIndependentOfThreadCount) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  CampaignOptions options = rich_options(300, 99);
  // Give the oracle something to find so violation ordering is exercised
  // too: claim one more than the schedule provides.
  options.oracle.claimed_tolerance = schedule.failures_tolerated() + 1;
  options.spec.max_processor_failures = schedule.failures_tolerated() + 1;

  options.threads = 1;
  const CampaignReport serial = run_campaign(schedule, options);
  for (const unsigned threads : {2u, 4u, 7u}) {
    options.threads = threads;
    const CampaignReport parallel = run_campaign(schedule, options);
    EXPECT_EQ(parallel.scenarios_run, serial.scenarios_run);
    EXPECT_EQ(parallel.within_contract, serial.within_contract);
    EXPECT_EQ(parallel.expected_losses, serial.expected_losses);
    EXPECT_EQ(parallel.total_violations, serial.total_violations);
    ASSERT_EQ(parallel.violations.size(), serial.violations.size());
    for (std::size_t i = 0; i < serial.violations.size(); ++i) {
      EXPECT_EQ(parallel.violations[i].index, serial.violations[i].index);
      EXPECT_EQ(parallel.violations[i].seed, serial.violations[i].seed);
      EXPECT_EQ(parallel.violations[i].details,
                serial.violations[i].details);
    }
    EXPECT_EQ(parallel.coverage.processor_faults,
              serial.coverage.processor_faults);
    EXPECT_EQ(parallel.coverage.crash_time_buckets,
              serial.coverage.crash_time_buckets);
    EXPECT_EQ(parallel.coverage.crash_events, serial.coverage.crash_events);
    // Dedup accounting is part of the determinism contract too: the
    // fingerprint union never depends on which thread ran a chunk.
    EXPECT_EQ(parallel.unique_scenarios, serial.unique_scenarios);
    EXPECT_EQ(parallel.duplicate_scenarios, serial.duplicate_scenarios);
    EXPECT_TRUE(parallel.metrics == serial.metrics);
  }
  EXPECT_GT(serial.unique_scenarios, 0u);
  EXPECT_LE(serial.unique_scenarios, serial.scenarios_run);
  EXPECT_EQ(serial.unique_scenarios + serial.duplicate_scenarios,
            serial.scenarios_run);
}

TEST(CampaignRunner, DuplicateDrawsCollapseIntoUniquePatterns) {
  // Dead-at-start-only scenarios collide heavily on a 3-processor
  // architecture: the canonical fingerprints must count the repeats as
  // duplicates of fewer unique patterns, and no verdict may suffer.
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  CampaignOptions options;
  options.scenarios = 400;
  options.seed = 7;
  options.threads = 1;
  options.spec.max_iterations = 1;
  options.spec.dead_at_start_probability = 1.0;  // dead-at-start only
  const CampaignReport report = run_campaign(schedule, options);
  EXPECT_LT(report.unique_scenarios, report.scenarios_run);
  EXPECT_GT(report.duplicate_scenarios, 0u);
  EXPECT_EQ(report.total_violations, 0u);
}

TEST(CampaignRunner, UnderReplicatedClaimIsCaught) {
  // A K=0 base schedule attacked under a claim of K=1: single-processor
  // crashes are within the claimed contract but nothing masks them.
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_base(ex.problem).value();
  ASSERT_EQ(schedule.failures_tolerated(), 0);
  CampaignOptions options = rich_options(200, 1);
  options.oracle.claimed_tolerance = 1;
  options.spec.max_processor_failures = 1;
  const CampaignReport report = run_campaign(schedule, options);
  EXPECT_GT(report.total_violations, 0u);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_FALSE(report.violations.front().details.empty());
  EXPECT_GT(report.violations.front().plan.event_count(), 0u);
}

TEST(CampaignRunner, ViolationCapKeepsCountingPastTheCap) {
  // campaign_tool --example1 --base --claim-k 1 --scenarios 300 --seed 3.
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_base(ex.problem).value();
  CampaignOptions options;
  options.scenarios = 300;
  options.seed = 3;
  options.threads = 1;
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;
  options.oracle.claimed_tolerance = 1;
  options.spec.max_processor_failures = 1;
  const CampaignReport report = run_campaign(schedule, options);
  EXPECT_EQ(report.total_violations, 115u);
  ASSERT_EQ(report.violations.size(), report.total_violations);
  // The first 32 keep their plans; past the cap only index, seed and
  // details survive.
  EXPECT_GT(report.violations[31].plan.event_count(), 0u);
  EXPECT_EQ(report.violations[32].plan.event_count(), 0u);
  EXPECT_FALSE(report.violations[32].details.empty());
  // Ascending scenario index throughout.
  for (std::size_t i = 1; i < report.violations.size(); ++i) {
    EXPECT_LT(report.violations[i - 1].index, report.violations[i].index);
  }
}

TEST(CampaignRunner, StaticValidatorFindingsLeadTheViolations) {
  // A deadline tightened after scheduling leaves a schedule the validator
  // rejects: the campaign reports that once, ahead of any scenario.
  workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  ex.problem.deadline = schedule.makespan() / 2;
  const CampaignReport report = run_campaign(schedule, rich_options(50, 1));
  EXPECT_EQ(report.total_violations, 1u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].plan.event_count(), 0u);
  ASSERT_FALSE(report.violations[0].details.empty());
  EXPECT_EQ(report.violations[0].details[0].rfind("static validator: ", 0),
            0u)
      << report.violations[0].details[0];
  // The scenario counters count scenarios only.
  EXPECT_FALSE(report.metrics.counters.contains("campaign.violations"));
}

TEST(CampaignRunner, CoverageTouchesEveryProcessor) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const CampaignReport report =
      run_campaign(schedule, rich_options(500, 11));
  ASSERT_EQ(report.coverage.processor_faults.size(),
            ex.problem.architecture->processor_count());
  for (const std::size_t hits : report.coverage.processor_faults) {
    EXPECT_GT(hits, 0u);
  }
  ASSERT_EQ(report.coverage.crash_time_buckets.size(), kCrashTimeBuckets);
  std::size_t bucketed = 0;
  for (const std::size_t hits : report.coverage.crash_time_buckets) {
    bucketed += hits;
  }
  EXPECT_EQ(bucketed, report.coverage.crash_events);
  EXPECT_GT(report.coverage.multi_iteration_missions, 0u);
  // The human-readable report renders without blowing up.
  EXPECT_NE(report.to_text(*ex.problem.architecture).find("scenarios"),
            std::string::npos);
}

TEST(CampaignRunner, AgreesWithExhaustiveSubsetInjection) {
  // On a small random problem the campaign's randomized within-contract
  // attacks and the exhaustive failure_subsets sweep must agree: the
  // schedule masks every subset, so the campaign must find nothing.
  workload::RandomProblemParams params;
  params.dag.operations = 12;
  params.dag.width = 3;
  params.arch_kind = workload::ArchKind::kBus;
  params.processors = 4;
  params.failures_to_tolerate = 1;
  params.ccr = 0.5;
  params.seed = 21;
  const workload::OwnedProblem ex = workload::random_problem(params);
  const Schedule schedule = schedule_solution1(ex.problem).value();

  const Simulator simulator(schedule);
  for (const std::vector<ProcessorId>& subset : failure_subsets(4, 1)) {
    EXPECT_TRUE(
        simulator.run(FailureScenario::dead_from_start(subset))
            .all_outputs_produced);
  }

  CampaignOptions options = rich_options(400, 5);
  options.spec.over_budget_fraction = 0.0;  // within contract only
  options.spec.link_failure_probability = 0.0;
  const CampaignReport report = run_campaign(schedule, options);
  EXPECT_EQ(report.scenarios_run, report.within_contract);
  EXPECT_EQ(report.total_violations, 0u);
}

TEST(CampaignRunner, GoldenArtifactsByteIdenticalAcrossThreadCounts) {
  // The strongest form of the determinism contract: not field-by-field
  // equality but byte identity of every serialized artifact the engines
  // emit — the campaign metrics JSON and the certification certificate —
  // across 1, 2, and 8 worker threads (8 oversubscribes most CI runners,
  // exercising arbitrary chunk interleavings). The batched executor and the
  // per-worker scratch arenas with their iteration memos must be invisible
  // in the output bytes.
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  CampaignOptions options = rich_options(500, 42);
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;

  options.threads = 1;
  const std::string golden_metrics =
      run_campaign(schedule, options).metrics.to_json();
  CertifySpec certify_spec;
  certify_spec.threads = 1;
  const std::string golden_certificate =
      certify(schedule, certify_spec).to_json(*ex.problem.architecture);

  for (const unsigned threads : {2u, 8u}) {
    options.threads = threads;
    EXPECT_EQ(run_campaign(schedule, options).metrics.to_json(),
              golden_metrics)
        << "campaign metrics diverge at " << threads << " threads";
    certify_spec.threads = threads;
    EXPECT_EQ(certify(schedule, certify_spec).to_json(
                  *ex.problem.architecture),
              golden_certificate)
        << "certificate diverges at " << threads << " threads";
  }
}

}  // namespace
}  // namespace ftsched::campaign
