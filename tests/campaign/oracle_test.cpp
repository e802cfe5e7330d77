// The campaign oracle's accounting corners: fail-silent windows widen the
// response envelope by their measured deferral — closing edge minus first
// actually-blocked send, never more than the window length and never its
// absolute end (the bug this file pins) — malformed silence placements
// flag the plan instead of being silently dropped, and link faults are
// budgeted separately from the paper's §5.1 processor contract.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "campaign/oracle.hpp"
#include "sched/heuristics.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::campaign {
namespace {

using workload::OwnedProblem;

TEST(Oracle, LateShortSilenceCannotMaskAResponseViolation) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule sched = schedule_solution1(ex.problem).value();
  const Simulator simulator(sched);
  const Time nominal = simulator.run().response_time;
  ASSERT_FALSE(is_infinite(nominal));

  // A short window placed late: the buggy accounting granted the window's
  // absolute end (~nominal) on top of the bound, masking every violation
  // this mission could produce; a send blocked at `from` resumes at `to`,
  // so the window is worth at most its length, 0.25.
  MissionPlan plan;
  plan.iterations = 1;
  plan.silences.push_back(MissionSilence{
      0, SilentWindow{ProcessorId{0}, nominal - 0.25, nominal}});

  const MissionResult result = run_mission(simulator, plan);
  ASSERT_EQ(result.iterations.size(), 1u);
  ASSERT_TRUE(result.iterations[0].all_outputs_produced);
  const Time response = result.iterations[0].response_time;
  ASSERT_TRUE(time_ge(response, nominal));

  OracleSpec tight;
  tight.response_bound = nominal - 0.5;
  const Verdict verdict =
      Oracle(sched, tight).judge(plan, result);
  EXPECT_TRUE(verdict.within_contract);
  EXPECT_TRUE(verdict.response_exceeded);
  ASSERT_EQ(verdict.violations.size(), 1u);
  // A user's bound is not the schedule's static one; the message names
  // neither, only the response bound it checked.
  EXPECT_NE(verdict.violations[0].find("exceeds response bound "),
            std::string::npos)
      << verdict.violations[0];

  // The allowance is the window's measured deferral — closing edge minus
  // the first send it actually blocked — which can never exceed the
  // window's length.
  const Time deferral = result.iterations[0].silence_deferral;
  ASSERT_TRUE(time_ge(deferral, 0));
  ASSERT_TRUE(time_le(deferral, 0.25));

  // A bound that leaves exactly the measured deferral of headroom is
  // satisfied...
  OracleSpec exact;
  exact.response_bound = response - deferral;
  EXPECT_TRUE(Oracle(sched, exact).judge(plan, result).ok());
  // ...and noticeably less headroom than that is not.
  OracleSpec short_by_a_hair;
  short_by_a_hair.response_bound = response - deferral - 0.05;
  EXPECT_FALSE(Oracle(sched, short_by_a_hair).judge(plan, result).ok());
}

TEST(Oracle, SilenceTargetingAMissingIterationFlagsThePlan) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule sched = schedule_solution1(ex.problem).value();
  const Oracle oracle(sched);

  for (const int bad_iteration : {-1, 2, 7}) {
    MissionPlan plan;
    plan.iterations = 2;
    plan.silences.push_back(MissionSilence{
        bad_iteration, SilentWindow{ProcessorId{0}, 1.0, 2.0}});
    const MissionResult result = run_mission(sched, plan);
    const Verdict verdict = oracle.judge(plan, result);
    EXPECT_FALSE(verdict.ok()) << "iteration " << bad_iteration;
    EXPECT_EQ(verdict.first_violation_iteration, 0);
    ASSERT_FALSE(verdict.violations.empty());
    EXPECT_NE(verdict.violations[0].find("silence"), std::string::npos)
        << verdict.violations[0];
  }

  // The in-range placement stays judged on its merits.
  MissionPlan fine;
  fine.iterations = 2;
  fine.silences.push_back(
      MissionSilence{1, SilentWindow{ProcessorId{0}, 1.0, 2.0}});
  EXPECT_TRUE(oracle.judge(fine, run_mission(sched, fine)).ok());
}

// The three OracleSpec shapes the certifier entry points build: --certify
// (processor claim only), --certify-links (adds a link budget), and
// --certify-silences / --response-bound (response envelope enforced).
std::vector<OracleSpec> certifier_entry_point_specs() {
  OracleSpec plain;
  plain.claimed_tolerance = 1;
  plain.check_response = false;
  OracleSpec links = plain;
  links.claimed_link_tolerance = 1;
  OracleSpec silences = plain;
  silences.response_bound = 100.0;
  silences.check_response = true;
  return {plain, links, silences};
}

TEST(Oracle, OutOfRangeSilenceIterationFlagsEveryEntryPoint) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule sched = schedule_solution1(ex.problem).value();

  for (const OracleSpec& spec : certifier_entry_point_specs()) {
    const Oracle oracle(sched, spec);
    for (const int bad_iteration : {-3, 3, 42}) {
      MissionPlan plan;
      plan.iterations = 3;
      plan.silences.push_back(MissionSilence{
          bad_iteration, SilentWindow{ProcessorId{0}, 0.5, 1.5}});
      // run_mission never injects an out-of-range silence — exactly the
      // harness drop the oracle must refuse to paper over.
      const Verdict verdict = oracle.judge(plan, run_mission(sched, plan));
      EXPECT_FALSE(verdict.ok()) << "iteration " << bad_iteration;
      EXPECT_EQ(verdict.first_violation_iteration, 0);
      ASSERT_FALSE(verdict.violations.empty());
      EXPECT_NE(verdict.violations[0].find("harness"), std::string::npos)
          << verdict.violations[0];
      EXPECT_NE(verdict.violations[0].find("targets iteration"),
                std::string::npos)
          << verdict.violations[0];
    }
  }
}

TEST(Oracle, ZeroLengthSilenceWindowFlagsEveryEntryPoint) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule sched = schedule_solution1(ex.problem).value();

  // An in-range zero-length window never reaches the simulator (inject
  // rejects it), so a mission "result" for such a plan can only come from
  // a harness that dropped the event. Reproduce that drop — simulate the
  // plan WITHOUT the malformed silence — and require the oracle to flag
  // the plan rather than trust the otherwise-clean result.
  for (const OracleSpec& spec : certifier_entry_point_specs()) {
    const Oracle oracle(sched, spec);
    for (const Time instant : {0.0, 1.0, 2.5}) {
      MissionPlan plan;
      plan.iterations = 2;
      plan.silences.push_back(MissionSilence{
          1, SilentWindow{ProcessorId{1}, instant, instant}});
      MissionPlan dropped = plan;
      dropped.silences.clear();
      const Verdict verdict =
          oracle.judge(plan, run_mission(sched, dropped));
      EXPECT_FALSE(verdict.ok()) << "window at " << instant;
      EXPECT_EQ(verdict.first_violation_iteration, 0);
      ASSERT_FALSE(verdict.violations.empty());
      EXPECT_NE(verdict.violations[0].find("harness"), std::string::npos)
          << verdict.violations[0];
      EXPECT_NE(verdict.violations[0].find("no positive length"),
                std::string::npos)
          << verdict.violations[0];
    }

    // Inverted windows (from > to) are equally length-free.
    MissionPlan inverted;
    inverted.iterations = 2;
    inverted.silences.push_back(
        MissionSilence{0, SilentWindow{ProcessorId{0}, 2.0, 1.0}});
    MissionPlan dropped = inverted;
    dropped.silences.clear();
    const Verdict verdict =
        oracle.judge(inverted, run_mission(sched, dropped));
    EXPECT_FALSE(verdict.ok());
    ASSERT_FALSE(verdict.violations.empty());
    EXPECT_NE(verdict.violations[0].find("no positive length"),
              std::string::npos)
        << verdict.violations[0];
  }
}

TEST(Oracle, LinkFaultsAreBudgetedSeparatelyFromTheProcessorContract) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule sched = schedule_solution1(ex.problem).value();
  ASSERT_GT(ex.problem.architecture->link_count(), 0u);

  MissionPlan plan;
  plan.iterations = 1;
  plan.dead_links_at_start.push_back(LinkId{0});
  const MissionResult result = run_mission(sched, plan);

  // Default link budget 0: any link fault voids the contract, so losing
  // outputs there is the expected observation, not a violation.
  OracleSpec blind;
  blind.check_response = false;
  const Verdict outside = Oracle(sched, blind).judge(plan, result);
  EXPECT_FALSE(outside.within_contract);
  EXPECT_TRUE(outside.ok());

  // With a claimed link tolerance the same mission is within contract and
  // must mask the fault — lost outputs become violations.
  OracleSpec tolerant;
  tolerant.check_response = false;
  tolerant.claimed_link_tolerance = 1;
  const Oracle oracle(sched, tolerant);
  EXPECT_EQ(oracle.claimed_link_tolerance(), 1);
  const Verdict inside = oracle.judge(plan, result);
  EXPECT_TRUE(inside.within_contract);
  EXPECT_EQ(inside.ok(), result.every_iteration_served());
}

TEST(Oracle, ChainVerdictNamesOnlyTheViolatedConstraints) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule sched = schedule_solution1(ex.problem).value();

  MissionPlan plan;
  plan.iterations = 1;
  const MissionResult result = run_mission(sched, plan);
  ASSERT_TRUE(result.every_iteration_served());

  // One generous chain and one impossibly tight one, judged together: the
  // verdict must name exactly the tight chain, keep the scalar flags
  // untouched, and the violation text must carry the chain's label.
  OracleSpec spec;
  spec.check_response = false;
  spec.latency_constraints.push_back(
      LatencyConstraint{"roomy", "A", "E", 100.0});
  spec.latency_constraints.push_back(
      LatencyConstraint{"tight", "A", "E", 0.01});
  const Oracle oracle(sched, spec);
  ASSERT_EQ(oracle.latency_constraints().size(), 2u);

  const Verdict verdict = oracle.judge(plan, result);
  EXPECT_TRUE(verdict.within_contract);
  EXPECT_TRUE(verdict.latency_exceeded);
  EXPECT_FALSE(verdict.response_exceeded);
  EXPECT_FALSE(verdict.outputs_lost);
  ASSERT_EQ(verdict.violated_constraints.size(), 1u);
  EXPECT_EQ(verdict.violated_constraints[0], "tight");
  ASSERT_FALSE(verdict.violations.empty());
  EXPECT_NE(verdict.violations[0].find("\"tight\""), std::string::npos)
      << verdict.violations[0];

  // Both chains generous: the same mission is clean and the verdict names
  // nothing — the multi-constraint oracle must not invent violations.
  OracleSpec roomy;
  roomy.check_response = false;
  roomy.latency_constraints.push_back(
      LatencyConstraint{"spine", "A", "E", 100.0});
  roomy.latency_constraints.push_back(
      LatencyConstraint{"mission", "I", "O", 100.0});
  const Verdict clean = Oracle(sched, roomy).judge(plan, result);
  EXPECT_TRUE(clean.ok());
  EXPECT_FALSE(clean.latency_exceeded);
  EXPECT_TRUE(clean.violated_constraints.empty());
}

TEST(Oracle, MalformedChainSpecsThrowAtConstruction) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule sched = schedule_solution1(ex.problem).value();

  const auto expect_throws = [&](const LatencyConstraint& c,
                                 const char* needle) {
    OracleSpec spec;
    spec.latency_constraints.push_back(c);
    try {
      const Oracle oracle(sched, spec);
      FAIL() << "constraint \"" << c.name << "\" should have thrown";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  };

  expect_throws(LatencyConstraint{"", "A", "E", 5.0}, "empty name");
  expect_throws(LatencyConstraint{"c", "Zeta", "E", 5.0},
                "\"Zeta\" is not in the graph");
  expect_throws(LatencyConstraint{"c", "A", "Zeta", 5.0},
                "\"Zeta\" is not in the graph");
  expect_throws(LatencyConstraint{"c", "A", "E", 0.0},
                "strictly positive bound");
  expect_throws(LatencyConstraint{"c", "A", "E", -3.0},
                "strictly positive bound");
  expect_throws(LatencyConstraint{"c", "A", "E", kInfinite},
                "strictly positive bound");

  // Duplicate names need two constraints in one spec.
  OracleSpec dup;
  dup.latency_constraints.push_back(LatencyConstraint{"c", "A", "E", 5.0});
  dup.latency_constraints.push_back(LatencyConstraint{"c", "I", "O", 9.0});
  EXPECT_THROW(Oracle(sched, dup), std::invalid_argument);

  // An endpoint present in the graph but never scheduled: a bare schedule
  // with no placements at all makes every operation replica-less.
  const Schedule empty(ex.problem, HeuristicKind::kBase);
  OracleSpec unplaced;
  unplaced.latency_constraints.push_back(
      LatencyConstraint{"c", "A", "E", 5.0});
  try {
    const Oracle oracle(empty, unplaced);
    FAIL() << "replica-less endpoint should have thrown";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("no scheduled replica"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace ftsched::campaign
