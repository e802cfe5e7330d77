// Exhaustive budgeted-fault certification: the fault-tolerant paper
// schedules must certify their processor claim clean, the non-FT baseline
// and the link-fragile bus topology must be refuted with concrete
// counterexamples, fail-silent windows must widen the response envelope
// without breaking certification, the report must be bit-identical for
// any thread count, and the exact-equivalence dedup must never change a
// verdict relative to the naive enumerator it prunes — per fault class.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../obs/json_check.hpp"
#include "campaign/certify.hpp"
#include "campaign/oracle.hpp"
#include "campaign/shrink.hpp"
#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"
#include "tuning/transient_analysis.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched::campaign {
namespace {

using workload::OwnedProblem;

/// The committed K=2 workload, read as `campaign_tool data/certify_k2.ft`
/// reads it.
OwnedProblem certify_k2_problem() {
  std::ifstream file(std::string(FTSCHED_SOURCE_DIR) + "/data/certify_k2.ft");
  std::stringstream buffer;
  buffer << file.rdbuf();
  Expected<OwnedProblem> parsed = io::read_problem(buffer.str());
  EXPECT_TRUE(parsed.has_value());
  return std::move(parsed).value();
}

void expect_same_report(const CertifyReport& a, const CertifyReport& b) {
  EXPECT_EQ(a.certified, b.certified);
  EXPECT_EQ(a.max_failures, b.max_failures);
  EXPECT_EQ(a.max_link_failures, b.max_link_failures);
  EXPECT_EQ(a.max_silences, b.max_silences);
  EXPECT_EQ(a.subsets, b.subsets);
  EXPECT_EQ(a.link_subsets, b.link_subsets);
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.forks, b.forks);
  EXPECT_EQ(a.instants_kept, b.instants_kept);
  EXPECT_EQ(a.instants_merged, b.instants_merged);
  EXPECT_EQ(a.total_counterexamples, b.total_counterexamples);
  EXPECT_EQ(a.worst_response, b.worst_response);  // exact
  EXPECT_TRUE(a.metrics == b.metrics);
  ASSERT_EQ(a.counterexamples.size(), b.counterexamples.size());
  for (std::size_t i = 0; i < a.counterexamples.size(); ++i) {
    EXPECT_EQ(a.counterexamples[i].faults.failed_at_start,
              b.counterexamples[i].faults.failed_at_start);
    EXPECT_EQ(a.counterexamples[i].faults.failed_links_at_start,
              b.counterexamples[i].faults.failed_links_at_start);
    EXPECT_EQ(a.counterexamples[i].faults.events,
              b.counterexamples[i].faults.events);
    EXPECT_EQ(a.counterexamples[i].faults.link_events,
              b.counterexamples[i].faults.link_events);
    EXPECT_EQ(a.counterexamples[i].faults.silent_windows,
              b.counterexamples[i].faults.silent_windows);
    EXPECT_EQ(a.counterexamples[i].outputs_lost,
              b.counterexamples[i].outputs_lost);
  }
}

TEST(Certify, PaperExample1Solution1CertifiesItsClaim) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const CertifyReport report = certify(schedule);
  EXPECT_TRUE(report.certified);
  EXPECT_EQ(report.max_failures, 1);
  EXPECT_EQ(report.subsets, 4u);  // {}, {P1}, {P2}, {P3}
  EXPECT_GT(report.branches, 3u);
  EXPECT_TRUE(report.counterexamples.empty());
  EXPECT_EQ(report.total_counterexamples, 0u);
  EXPECT_FALSE(is_infinite(report.worst_response));
  // The certified worst response bounds the single-crash transient sweep.
  EXPECT_TRUE(time_ge(report.worst_response, schedule.makespan()));
}

TEST(Certify, PaperExample2Solution2CertifiesItsClaim) {
  const OwnedProblem ex = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex.problem).value();
  const CertifyReport report = certify(schedule);
  EXPECT_TRUE(report.certified) << report.to_text(*ex.problem.architecture);
}

TEST(Certify, K1WorstResponseMatchesTheTransientAnalysis) {
  // Two independent sweeps of every single crash: analyze_transient kills
  // each processor from the start and at every representative instant of
  // the fault-free trace; a K=1 certify explores the same faults through
  // its own candidates, dedup and forks. The certificate also counts the
  // fault-free branch, which the transient worst leaves out. A refuted
  // certificate must be a transient sweep that lost outputs.
  std::vector<OwnedProblem> problems;
  problems.push_back(workload::paper_example1());
  problems.push_back(workload::paper_example2());
  for (const workload::ArchKind arch :
       {workload::ArchKind::kBus, workload::ArchKind::kFullyConnected,
        workload::ArchKind::kRing}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      workload::RandomProblemParams params;
      params.dag.operations = 10;
      params.processors = 4;
      params.arch_kind = arch;
      params.seed = seed;
      problems.push_back(workload::random_problem(params));
    }
  }
  std::size_t compared = 0;
  std::size_t refuted = 0;
  for (const OwnedProblem& ex : problems) {
    for (const HeuristicKind kind :
         {HeuristicKind::kSolution1, HeuristicKind::kSolution2}) {
      const Expected<Schedule> scheduled = schedule(ex.problem, kind);
      ASSERT_TRUE(scheduled.has_value()) << scheduled.error().message;
      const TransientReport transient = analyze_transient(scheduled.value());
      const CertifyReport report =
          certify(scheduled.value(), {.max_failures = 1, .threads = 1});
      ++compared;
      if (report.certified) {
        EXPECT_EQ(std::max(transient.nominal_response,
                           transient.worst_response),
                  report.worst_response)
            << report.to_text(*ex.problem.architecture);
      } else {
        ++refuted;
        EXPECT_TRUE(is_infinite(transient.worst_response))
            << report.to_text(*ex.problem.architecture);
      }
    }
  }
  EXPECT_EQ(compared, 64u);
  // Both arms are exercised: 14 of the 64 schedules lose outputs.
  EXPECT_EQ(refuted, 14u);
}

TEST(Certify, BaseScheduleClaimingK1IsRefuted) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_base(ex.problem).value();
  CertifySpec spec;
  spec.max_failures = 1;
  const CertifyReport report = certify(schedule, spec);
  EXPECT_FALSE(report.certified);
  EXPECT_GT(report.total_counterexamples, 0u);
  ASSERT_FALSE(report.counterexamples.empty());

  // Every recorded counterexample really does violate the oracle, and the
  // first one survives the shrinker (the certify -> shrink route the tool
  // exposes).
  const Oracle oracle(schedule, OracleSpec{.claimed_tolerance = 1});
  const Simulator simulator(schedule);
  for (const CertifyBranch& cex : report.counterexamples) {
    const MissionPlan plan = counterexample_plan(cex);
    const Verdict verdict = oracle.judge(plan, run_mission(schedule, plan));
    EXPECT_FALSE(verdict.ok());
    EXPECT_TRUE(verdict.outputs_lost);
  }
  const ShrinkResult shrunk =
      shrink(simulator, oracle, counterexample_plan(report.counterexamples[0]));
  EXPECT_LE(shrunk.final_events, shrunk.initial_events);
  EXPECT_FALSE(shrunk.violations.empty());
}

TEST(Certify, SingleLinkDeathRefutesPassiveCommRedundancy) {
  // Solution 1 masks K=1 processor crashes but routes every replica over
  // the one bus — a single link death loses outputs. The L budget must
  // find that, and the counterexample must route through the oracle and
  // the shrinker like any crash counterexample does.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  ASSERT_EQ(ex.problem.architecture->link_count(), 1u);

  CertifySpec spec;
  spec.max_failures = 1;
  spec.max_link_failures = 1;
  const CertifyReport report = certify(schedule, spec);
  EXPECT_FALSE(report.certified);
  EXPECT_EQ(report.max_link_failures, 1);
  EXPECT_EQ(report.link_subsets, 2u);  // {}, {bus}
  EXPECT_GT(report.total_counterexamples, 0u);
  ASSERT_FALSE(report.counterexamples.empty());

  // Every counterexample involves the bus: the crash-only slice of this
  // sweep is the clean K=1 certificate.
  OracleSpec claimed;
  claimed.claimed_tolerance = 1;
  claimed.claimed_link_tolerance = 1;
  const Oracle oracle(schedule, claimed);
  const Simulator simulator(schedule);
  for (const CertifyBranch& cex : report.counterexamples) {
    EXPECT_TRUE(!cex.faults.failed_links_at_start.empty() ||
                !cex.faults.link_events.empty());
    const MissionPlan plan = counterexample_plan(cex);
    const Verdict verdict = oracle.judge(plan, run_mission(schedule, plan));
    EXPECT_TRUE(verdict.within_contract);
    EXPECT_FALSE(verdict.ok());
  }
  const ShrinkResult shrunk =
      shrink(simulator, oracle, counterexample_plan(report.counterexamples[0]));
  EXPECT_LE(shrunk.final_events, shrunk.initial_events);
  EXPECT_FALSE(shrunk.violations.empty());

  // Link faults are budgeted separately: the same schedule with the link
  // budget back at zero still certifies its processor claim.
  CertifySpec crash_only;
  crash_only.max_failures = 1;
  EXPECT_TRUE(certify(schedule, crash_only).certified);
}

TEST(Certify, SilenceBudgetCertifiesWithWidenedEnvelope) {
  // A fail-silent window cannot lose outputs (sends resume at the closing
  // edge), so example1 stays certified under S=1 — but the worst response
  // grows beyond the crash-only certificate, and silence branches really
  // are explored.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();

  const CertifyReport crash_only = certify(schedule);
  ASSERT_TRUE(crash_only.certified);

  CertifySpec spec;
  spec.max_failures = 1;
  spec.max_silences = 1;
  spec.collect_branches = true;
  const CertifyReport report = certify(schedule, spec);
  EXPECT_TRUE(report.certified) << report.to_text(*ex.problem.architecture);
  EXPECT_EQ(report.max_silences, 1);
  EXPECT_TRUE(time_ge(report.worst_response, crash_only.worst_response));

  std::size_t silence_branches = 0;
  bool crash_plus_silence = false;
  for (const CertifyBranch& branch : report.branches_list) {
    silence_branches += branch.faults.silent_windows.empty() ? 0u : 1u;
    for (const SilentWindow& window : branch.faults.silent_windows) {
      EXPECT_TRUE(time_lt(window.from, window.to));
    }
    crash_plus_silence |=
        !branch.faults.silent_windows.empty() &&
        (!branch.faults.events.empty() ||
         !branch.faults.failed_at_start.empty());
  }
  EXPECT_GT(silence_branches, 0u);
  EXPECT_TRUE(crash_plus_silence);  // budgets compose, not either/or
}

TEST(Certify, ReportIsThreadCountInvariant) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule good = schedule_solution1(ex.problem).value();
  const Schedule bad = schedule_base(ex.problem).value();
  for (const Schedule* schedule : {&good, &bad}) {
    CertifySpec spec;
    spec.max_failures = 1;
    spec.threads = 1;
    const CertifyReport one = certify(*schedule, spec);
    for (const unsigned threads : {2u, 4u}) {
      spec.threads = threads;
      const CertifyReport many = certify(*schedule, spec);
      expect_same_report(one, many);
      EXPECT_EQ(one.to_json(*ex.problem.architecture),
                many.to_json(*ex.problem.architecture));
    }
  }
}

TEST(Certify, ReportIsThreadCountInvariantWithLinkAndSilenceBudgets) {
  // The extended sweep fans out over (processor subset x link subset)
  // pairs with typed first victims; partials still merge in task-index
  // order, so the certificate must stay bit-identical for any thread
  // count — link counterexamples, silence windows, chain labels and all.
  const OwnedProblem ex1 = workload::paper_example1();
  const OwnedProblem ex2 = workload::paper_example2();
  const OwnedProblem k2 = certify_k2_problem();
  const Schedule ex1_solution1 = schedule_solution1(ex1.problem).value();
  const Schedule ex2_solution2 = schedule_solution2(ex2.problem).value();
  const Schedule k2_solution2 = schedule_solution2(k2.problem).value();
  const CertifySpec chains{
      .latency_constraints = {LatencyConstraint{"spine", "A", "E", 1.0},
                              LatencyConstraint{"mission", "I", "O", 100.0}}};
  struct Case {
    const Schedule* schedule;
    CertifySpec spec;
    bool certified;
    std::vector<unsigned> threads;  // each compared with the 1-thread run
    std::size_t branches;           // the sweep's work, pinned exactly
  };
  const std::vector<Case> cases = {
      // The bus death refutes it.
      {&ex1_solution1,
       {.max_failures = 1, .max_link_failures = 1, .max_silences = 1},
       false,
       {2, 4},
       155'730},
      // campaign_tool data/certify_k2.ft --solution2 --certify-links 1
      {&k2_solution2, {.max_link_failures = 1}, false, {8}, 440'377},
      // ... --claim-k 1 --certify-silences 1
      {&k2_solution2, {.max_failures = 1, .max_silences = 1}, true, {8},
       390'979},
      // campaign_tool --example2 --solution2 --claim-k 2
      //   --certify-silences 1 (the naive enumerator simulates 17.1x as
      //   many branches)
      {&ex2_solution2,
       {.max_failures = 2, .max_silences = 1},
       false,
       {2, 8},
       271'231},
      // campaign_tool --example1 --solution1 --certify
      //   --latency spine:A:E:1 --latency mission:I:O:100
      {&ex1_solution1, chains, false, {8}, 40},
  };
  for (const Case& c : cases) {
    const ArchitectureGraph& arch = *c.schedule->problem().architecture;
    CertifySpec spec = c.spec;
    spec.threads = 1;
    const CertifyReport one = certify(*c.schedule, spec);
    EXPECT_EQ(one.certified, c.certified);
    EXPECT_EQ(one.branches, c.branches);
    const std::string json = one.to_json(arch);
    EXPECT_TRUE(testing::JsonChecker(json).valid());
    for (const unsigned threads : c.threads) {
      spec.threads = threads;
      const CertifyReport many = certify(*c.schedule, spec);
      expect_same_report(one, many);
      EXPECT_EQ(json, many.to_json(arch)) << threads << " threads";
    }
  }
}

TEST(Certify, DedupNeverChangesTheVerdict) {
  // Dedup is exact pruning: against the naive enumerator (dedup off) the
  // verdict, the worst response, and the per-victim counterexample set
  // must be unchanged — only the branch count may drop.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule good = schedule_solution1(ex.problem).value();
  const Schedule bad = schedule_base(ex.problem).value();
  for (const Schedule* schedule_ptr : {&good, &bad}) {
    const Schedule& schedule = *schedule_ptr;
    CertifySpec naive;
    naive.max_failures = 1;
    naive.dedup = false;
    CertifySpec pruned = naive;
    pruned.dedup = true;
    const CertifyReport full = certify(schedule, naive);
    const CertifyReport deduped = certify(schedule, pruned);
    EXPECT_EQ(full.certified, deduped.certified);
    EXPECT_EQ(full.worst_response, deduped.worst_response);
    EXPECT_EQ(full.total_counterexamples == 0,
              deduped.total_counterexamples == 0);
    EXPECT_LE(deduped.branches, full.branches);
    // At K=1 there is a single crash level, so the pruned and naive runs
    // see the same candidate sets: kept + merged must cover them exactly.
    EXPECT_EQ(deduped.instants_kept + deduped.instants_merged,
              full.instants_kept);
  }
}

TEST(Certify, DedupNeverChangesTheVerdictForLinkDeaths) {
  // Same exactness contract as for crashes, one class over: at L=1 there
  // is a single link-death level, so the pruned run's kept + merged
  // instants must cover the naive run's candidate set exactly.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  CertifySpec naive;
  naive.max_failures = 0;
  naive.max_link_failures = 1;
  naive.dedup = false;
  CertifySpec pruned = naive;
  pruned.dedup = true;
  const CertifyReport full = certify(schedule, naive);
  const CertifyReport deduped = certify(schedule, pruned);
  EXPECT_EQ(full.certified, deduped.certified);
  EXPECT_EQ(full.worst_response, deduped.worst_response);
  EXPECT_EQ(full.total_counterexamples == 0,
            deduped.total_counterexamples == 0);
  EXPECT_LE(deduped.branches, full.branches);
  EXPECT_EQ(deduped.instants_kept + deduped.instants_merged,
            full.instants_kept);
}

TEST(Certify, DedupNeverChangesTheVerdictForSilences) {
  // Silence candidates are (from, to) pairs, so the naive and pruned
  // instant ledgers are not directly comparable — but the verdict, the
  // worst response, and whether any counterexample exists must agree,
  // and pruning can only shrink the branch count.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  CertifySpec naive;
  naive.max_failures = 0;
  naive.max_silences = 1;
  naive.dedup = false;
  CertifySpec pruned = naive;
  pruned.dedup = true;
  const CertifyReport full = certify(schedule, naive);
  const CertifyReport deduped = certify(schedule, pruned);
  EXPECT_EQ(full.certified, deduped.certified);
  EXPECT_EQ(full.worst_response, deduped.worst_response);
  EXPECT_EQ(full.total_counterexamples == 0,
            deduped.total_counterexamples == 0);
  EXPECT_LE(deduped.branches, full.branches);
  EXPECT_GT(deduped.instants_merged, 0u);
}

TEST(Certify, RandomK2ProblemCertifiesToDepthTwo) {
  workload::RandomProblemParams params;
  params.dag.operations = 10;
  params.processors = 4;
  params.failures_to_tolerate = 2;
  params.seed = 11;
  const OwnedProblem ex = workload::random_problem(params);
  const auto scheduled = schedule_solution2(ex.problem);
  ASSERT_TRUE(scheduled.has_value()) << scheduled.error().message;
  ASSERT_EQ(scheduled->failures_tolerated(), 2);

  const CertifyReport report = certify(scheduled.value());
  EXPECT_EQ(report.max_failures, 2);
  EXPECT_EQ(report.subsets, 1u + 4u + 6u);  // C(4,0)+C(4,1)+C(4,2)
  EXPECT_TRUE(report.certified) << report.to_text(*ex.problem.architecture);

  // Depth-two exploration really happened: some branch carries two
  // mid-run crashes.
  bool depth_two = false;
  CertifySpec collect;
  collect.collect_branches = true;
  const CertifyReport branches = certify(scheduled.value(), collect);
  for (const CertifyBranch& branch : branches.branches_list) {
    depth_two |= branch.faults.events.size() == 2;
  }
  EXPECT_TRUE(depth_two);
}

TEST(Certify, EmptySweepIsMarkedNotExhaustive) {
  const OwnedProblem ex1 = workload::paper_example1();
  const OwnedProblem ex2 = workload::paper_example2();
  const Schedule ex1_solution1 = schedule_solution1(ex1.problem).value();
  const Schedule ex2_solution2 = schedule_solution2(ex2.problem).value();
  for (const Schedule* schedule : {&ex1_solution1, &ex2_solution2}) {
    const ArchitectureGraph& arch = *schedule->problem().architecture;
    const CertifyReport report = certify(*schedule, {.max_failures = 0});
    // Zero resolved budgets certify exactly one branch: the fault-free run.
    EXPECT_TRUE(report.certified);
    EXPECT_EQ(report.branches, 1u);
    EXPECT_NE(report.to_json(arch).find("\"sweep\": \"empty\""),
              std::string::npos);
    EXPECT_NE(certify(*schedule, {.max_failures = 1})
                  .to_json(arch)
                  .find("\"sweep\": \"exhaustive\""),
              std::string::npos);
  }
}

TEST(Certify, ResponseBoundRefutesWhenTooTight) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const CertifyReport open = certify(schedule);
  ASSERT_TRUE(open.certified);

  CertifySpec generous;
  generous.response_bound = open.worst_response;
  EXPECT_TRUE(certify(schedule, generous).certified);

  CertifySpec tight;
  tight.response_bound = open.worst_response - 0.5;
  const CertifyReport refuted = certify(schedule, tight);
  EXPECT_FALSE(refuted.certified);
  ASSERT_FALSE(refuted.counterexamples.empty());
  EXPECT_FALSE(refuted.counterexamples[0].outputs_lost);
  EXPECT_TRUE(time_gt(refuted.counterexamples[0].response_time,
                      tight.response_bound));
}

TEST(Certify, SilenceCounterexamplesReplayAsViolations) {
  // Under a tight response bound every counterexample of a silence sweep
  // must violate the oracle when its plan runs from scratch. A window
  // opening at t = 0 is injected into a branch whose prologue already ran;
  // it was once charged less silence allowance than the same window gets
  // from scratch, and 100 of this sweep's 1,867 counterexamples replayed
  // clean.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  CertifySpec spec;
  spec.max_failures = 1;
  spec.max_silences = 1;
  spec.response_bound = schedule.makespan();
  spec.max_counterexamples = 100000;
  const CertifyReport report = certify(schedule, spec);
  ASSERT_FALSE(report.certified);
  ASSERT_EQ(report.counterexamples.size(), report.total_counterexamples);

  const Oracle oracle(schedule,
                      OracleSpec{.claimed_tolerance = 1,
                                 .response_bound = spec.response_bound});
  std::size_t opening_at_zero = 0;
  for (const CertifyBranch& cex : report.counterexamples) {
    const MissionPlan plan = counterexample_plan(cex);
    const Verdict verdict = oracle.judge(plan, run_mission(schedule, plan));
    EXPECT_FALSE(verdict.ok()) << certify_branch_json(
        cex, *ex.problem.architecture);
    for (const SilentWindow& window : cex.faults.silent_windows) {
      opening_at_zero += window.from == 0 ? 1u : 0u;
    }
  }
  EXPECT_GT(opening_at_zero, 0u);
}

TEST(Certify, CounterexamplePlanRoundTrips) {
  CertifyBranch branch;
  branch.faults.failed_at_start = {ProcessorId{2}};
  branch.faults.failed_links_at_start = {LinkId{1}};
  branch.faults.events = {FailureEvent{ProcessorId{0}, 3.5}};
  branch.faults.link_events = {LinkFailureEvent{LinkId{0}, 4.25}};
  branch.faults.silent_windows = {SilentWindow{ProcessorId{1}, 2.0, 5.5}};
  const MissionPlan plan = counterexample_plan(branch);
  EXPECT_EQ(plan.iterations, 1);
  EXPECT_EQ(plan.dead_at_start, branch.faults.failed_at_start);
  EXPECT_EQ(plan.dead_links_at_start, branch.faults.failed_links_at_start);
  ASSERT_EQ(plan.failures.size(), 1u);
  EXPECT_EQ(plan.failures[0].iteration, 0);
  EXPECT_TRUE(plan.failures[0].event == branch.faults.events[0]);
  ASSERT_EQ(plan.link_failures.size(), 1u);
  EXPECT_EQ(plan.link_failures[0].iteration, 0);
  EXPECT_TRUE(plan.link_failures[0].event == branch.faults.link_events[0]);
  ASSERT_EQ(plan.silences.size(), 1u);
  EXPECT_EQ(plan.silences[0].iteration, 0);
  EXPECT_TRUE(plan.silences[0].window == branch.faults.silent_windows[0]);
}

TEST(Certify, ChainRefutationNamesTheViolatedConstraint) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const CertifyReport scalar = certify(schedule);
  ASSERT_TRUE(scalar.certified);

  // A generous chain beside an impossibly tight one: every branch serves
  // its outputs, so every counterexample is a pure chain violation naming
  // exactly the tight constraint.
  CertifySpec spec;
  spec.latency_constraints.push_back(
      LatencyConstraint{"roomy", "I", "O", 100.0});
  spec.latency_constraints.push_back(
      LatencyConstraint{"tight", "A", "E", 0.01});
  const CertifyReport report = certify(schedule, spec);
  EXPECT_FALSE(report.certified);
  ASSERT_EQ(report.latency_constraints.size(), 2u);
  ASSERT_EQ(report.worst_chain_latency.size(), 2u);
  ASSERT_FALSE(report.counterexamples.empty());
  for (const CertifyBranch& cex : report.counterexamples) {
    EXPECT_FALSE(cex.outputs_lost);
    ASSERT_EQ(cex.violated_constraints.size(), 1u);
    EXPECT_EQ(cex.violated_constraints[0], "tight");
  }

  // The certify -> oracle -> shrink route a labeled counterexample rides:
  // the branch re-judged through an oracle carrying the same constraints
  // violates them, and the shrunk reproducer still names the chain.
  OracleSpec ospec;
  ospec.latency_constraints = spec.latency_constraints;
  const Oracle oracle(schedule, ospec);
  const MissionPlan plan = counterexample_plan(report.counterexamples[0]);
  const Verdict verdict = oracle.judge(plan, run_mission(schedule, plan));
  ASSERT_FALSE(verdict.ok());
  EXPECT_TRUE(verdict.latency_exceeded);
  ASSERT_EQ(verdict.violated_constraints.size(), 1u);
  EXPECT_EQ(verdict.violated_constraints[0], "tight");

  const Simulator simulator(schedule);
  const ShrinkResult shrunk = shrink(simulator, oracle, plan);
  ASSERT_FALSE(shrunk.violations.empty());
  bool names_chain = false;
  for (const std::string& violation : shrunk.violations) {
    if (violation.find("\"tight\"") != std::string::npos) names_chain = true;
  }
  EXPECT_TRUE(names_chain) << shrunk.violations[0];

  // Chain-constrained reports are thread-count deterministic like scalar
  // ones, including the per-branch violated lists and the chain envelopes.
  CertifySpec threaded = spec;
  threaded.threads = 4;
  const CertifyReport other = certify(schedule, threaded);
  expect_same_report(report, other);
  ASSERT_EQ(other.worst_chain_latency.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(report.worst_chain_latency[i], other.worst_chain_latency[i]);
  }
  ASSERT_EQ(report.counterexamples.size(), other.counterexamples.size());
  for (std::size_t i = 0; i < report.counterexamples.size(); ++i) {
    EXPECT_EQ(report.counterexamples[i].violated_constraints,
              other.counterexamples[i].violated_constraints);
  }

  // Generous bounds on both chains certify clean and record a finite
  // per-chain envelope bounded by each chain's own constraint.
  CertifySpec roomy;
  roomy.latency_constraints.push_back(
      LatencyConstraint{"spine", "A", "E", 100.0});
  const CertifyReport clean = certify(schedule, roomy);
  EXPECT_TRUE(clean.certified)
      << clean.to_text(*ex.problem.architecture);
  ASSERT_EQ(clean.worst_chain_latency.size(), 1u);
  EXPECT_FALSE(is_infinite(clean.worst_chain_latency[0]));
  EXPECT_TRUE(time_le(clean.worst_chain_latency[0], 100.0));
  // Adding a satisfied chain never changes the scalar verdict surface.
  EXPECT_EQ(clean.branches, scalar.branches);
  EXPECT_EQ(clean.worst_response, scalar.worst_response);
}

TEST(Certify, MalformedChainSpecsThrowThroughEveryEntryPoint) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();

  const auto bad_specs = [] {
    std::vector<std::vector<LatencyConstraint>> specs;
    // Endpoint absent from the graph.
    specs.push_back({LatencyConstraint{"c", "Zeta", "E", 5.0}});
    specs.push_back({LatencyConstraint{"c", "A", "Zeta", 5.0}});
    // Duplicate names.
    specs.push_back({LatencyConstraint{"c", "A", "E", 5.0},
                     LatencyConstraint{"c", "I", "O", 9.0}});
    // Zero / negative / non-finite bound.
    specs.push_back({LatencyConstraint{"c", "A", "E", 0.0}});
    specs.push_back({LatencyConstraint{"c", "A", "E", -1.0}});
    specs.push_back({LatencyConstraint{"c", "A", "E", kInfinite}});
    return specs;
  }();

  for (const std::vector<LatencyConstraint>& constraints : bad_specs) {
    CertifySpec spec;
    spec.latency_constraints = constraints;
    EXPECT_THROW((void)certify(schedule, spec), std::invalid_argument);

    const CertifyShardSpec shard{0, 1};
    EXPECT_THROW((void)certify_shard(schedule, spec, shard,
                                     [](CertifyTaskPartial&&) {},
                                     [] { return false; }),
                 std::invalid_argument);

    OracleSpec ospec;
    ospec.latency_constraints = constraints;
    EXPECT_THROW(Oracle(schedule, ospec), std::invalid_argument);
  }

  // A replica-less endpoint throws the same way from certify (a bare
  // schedule places nothing, so every operation lacks replicas).
  const Schedule empty(ex.problem, HeuristicKind::kBase);
  CertifySpec unplaced;
  unplaced.latency_constraints.push_back(
      LatencyConstraint{"c", "A", "E", 5.0});
  EXPECT_THROW((void)certify(empty, unplaced), std::invalid_argument);
}

}  // namespace
}  // namespace ftsched::campaign
