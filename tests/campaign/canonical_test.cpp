// Canonical mission-plan rewriting and fingerprinting: the dedup key the
// campaign runner's and the certifier's uniqueness counters stand on. A
// rewrite may only merge plans whose iteration summaries are provably
// identical (see canonical.hpp for the argument per rule).
#include <gtest/gtest.h>

#include "campaign/canonical.hpp"
#include "sched/heuristics.hpp"
#include "sim/mission.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::campaign {
namespace {

MissionPlan messy_plan() {
  MissionPlan plan;
  plan.iterations = 2;
  plan.dead_at_start = {ProcessorId{2}, ProcessorId{0}, ProcessorId{2}};
  plan.suspected_at_start = {ProcessorId{1}, ProcessorId{2}};  // 2 is dead
  plan.failures.push_back(
      MissionFailure{1, FailureEvent{ProcessorId{1}, 5.0}});
  plan.failures.push_back(
      MissionFailure{1, FailureEvent{ProcessorId{1}, 3.0}});  // earlier wins
  plan.failures.push_back(
      MissionFailure{0, FailureEvent{ProcessorId{0}, 1.0}});  // dead already
  plan.silences.push_back(
      MissionSilence{0, SilentWindow{ProcessorId{1}, 4.0, 4.0}});  // empty
  plan.silences.push_back(
      MissionSilence{0, SilentWindow{ProcessorId{1}, 2.0, 4.0}});
  plan.silences.push_back(
      MissionSilence{0, SilentWindow{ProcessorId{2}, 2.0, 4.0}});  // dead
  return plan;
}

TEST(CanonicalPlan, NormalizesToTheSettledForm) {
  const MissionPlan canonical = canonical_plan(messy_plan());
  EXPECT_EQ(canonical.dead_at_start,
            (std::vector<ProcessorId>{ProcessorId{0}, ProcessorId{2}}));
  EXPECT_EQ(canonical.suspected_at_start,
            std::vector<ProcessorId>{ProcessorId{1}});
  ASSERT_EQ(canonical.failures.size(), 1u);
  EXPECT_EQ(canonical.failures[0].event.processor, ProcessorId{1});
  EXPECT_DOUBLE_EQ(canonical.failures[0].event.time, 3.0);
  ASSERT_EQ(canonical.silences.size(), 1u);
  EXPECT_EQ(canonical.silences[0].window.processor, ProcessorId{1});
}

TEST(CanonicalPlan, FingerprintIgnoresPresentationOrder) {
  MissionPlan a = messy_plan();
  MissionPlan b = messy_plan();
  std::swap(b.dead_at_start[0], b.dead_at_start[1]);
  std::swap(b.failures[0], b.failures[1]);
  EXPECT_EQ(canonical_fingerprint(a), canonical_fingerprint(b));

  b.failures[0].event.time += 1.0;
  EXPECT_NE(canonical_fingerprint(a), canonical_fingerprint(b));
}

TEST(CanonicalPlan, DistinctPatternsKeepDistinctFingerprints) {
  MissionPlan a;
  a.iterations = 1;
  a.dead_at_start = {ProcessorId{0}};
  MissionPlan b;
  b.iterations = 1;
  b.dead_at_start = {ProcessorId{1}};
  EXPECT_NE(canonical_fingerprint(a), canonical_fingerprint(b));
  MissionPlan c;
  c.iterations = 1;
  c.failures.push_back(MissionFailure{0, FailureEvent{ProcessorId{0}, 0.0}});
  EXPECT_NE(canonical_fingerprint(a), canonical_fingerprint(c));
}

TEST(CanonicalPlan, SilenceAfterTheVictimsCrashIsInert) {
  // A window opening strictly after the victim's earliest crash in the
  // same iteration silences a corpse: the crash already stopped every
  // send, so the window is dropped. A window opening AT the crash
  // instant is kept — the event queue dispatches that instant's send
  // attempts before the crash, so the window still blocks them.
  const Time crash_at = 3.0;
  MissionPlan plan;
  plan.iterations = 2;
  plan.failures.push_back(
      MissionFailure{0, FailureEvent{ProcessorId{1}, crash_at}});
  plan.silences.push_back(
      MissionSilence{0, SilentWindow{ProcessorId{1}, crash_at + 1.0, 6.0}});

  const MissionPlan canonical = canonical_plan(plan);
  EXPECT_TRUE(canonical.silences.empty());
  EXPECT_EQ(canonical.failures.size(), 1u);

  // Same-instant window: kept.
  MissionPlan boundary = plan;
  boundary.silences[0].window.from = crash_at;
  EXPECT_EQ(canonical_plan(boundary).silences.size(), 1u);
  // Window before the crash: kept.
  MissionPlan before = plan;
  before.silences[0].window.from = crash_at - 1.0;
  EXPECT_EQ(canonical_plan(before).silences.size(), 1u);
  // A crash in a LATER iteration cannot reach back into this
  // iteration's window: the silence still blocks sends here.
  MissionPlan other_iteration = plan;
  other_iteration.failures[0].iteration = 1;
  EXPECT_EQ(canonical_plan(other_iteration).silences.size(), 1u);
  // And the fingerprints agree with the rewrite: the inert form hashes
  // like the crash alone.
  MissionPlan crash_only = plan;
  crash_only.silences.clear();
  EXPECT_EQ(canonical_fingerprint(plan), canonical_fingerprint(crash_only));
  EXPECT_NE(canonical_fingerprint(boundary),
            canonical_fingerprint(crash_only));
}

TEST(CanonicalPlan, InertSilenceRewritePreservesMissionSummaries) {
  // The soundness argument run for real: crashed-then-silenced plans
  // and their canonical forms simulate identically.
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Time makespan = schedule.makespan();
  MissionPlan plan;
  plan.iterations = 1;
  plan.failures.push_back(
      MissionFailure{0, FailureEvent{ProcessorId{0}, makespan / 4}});
  plan.silences.push_back(MissionSilence{
      0, SilentWindow{ProcessorId{0}, makespan / 2, makespan}});
  const MissionPlan canonical = canonical_plan(plan);
  ASSERT_TRUE(canonical.silences.empty());
  const MissionResult raw = run_mission(schedule, plan);
  const MissionResult canon = run_mission(schedule, canonical);
  ASSERT_EQ(raw.iterations.size(), canon.iterations.size());
  for (std::size_t i = 0; i < raw.iterations.size(); ++i) {
    EXPECT_EQ(raw.iterations[i].all_outputs_produced,
              canon.iterations[i].all_outputs_produced);
    EXPECT_EQ(raw.iterations[i].response_time,
              canon.iterations[i].response_time);
  }
}

TEST(CanonicalPlan, RewritePreservesMissionSummaries) {
  // The load-bearing claim behind unique-pattern counting: a plan and its
  // canonical form produce identical iteration summaries.
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const MissionPlan plan = messy_plan();
  const MissionResult raw = run_mission(schedule, plan);
  const MissionResult canon = run_mission(schedule, canonical_plan(plan));
  ASSERT_EQ(raw.iterations.size(), canon.iterations.size());
  for (std::size_t i = 0; i < raw.iterations.size(); ++i) {
    EXPECT_EQ(raw.iterations[i].all_outputs_produced,
              canon.iterations[i].all_outputs_produced);
    EXPECT_EQ(raw.iterations[i].response_time,
              canon.iterations[i].response_time);
    EXPECT_EQ(raw.iterations[i].timeouts, canon.iterations[i].timeouts);
    EXPECT_EQ(raw.iterations[i].elections, canon.iterations[i].elections);
    EXPECT_EQ(raw.iterations[i].transfers, canon.iterations[i].transfers);
    EXPECT_EQ(raw.iterations[i].known_failed,
              canon.iterations[i].known_failed);
    EXPECT_EQ(raw.iterations[i].suspected, canon.iterations[i].suspected);
  }
}

}  // namespace
}  // namespace ftsched::campaign
