// Counterexample-guided repair: a refuted schedule (the K=2 bus workload
// judged under K=1 + one link death) is repaired into a certified one by
// accepted constraint moves; the repair log and report are byte-identical
// for any thread count; the final certificate is exactly what a fresh
// certify() of the returned schedule proves; an already-certified schedule
// repairs in zero moves; an impossible claim reports exhaustion instead of
// looping, and a round with no move to try says so.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "campaign/certify.hpp"
#include "campaign/repair.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched::campaign {
namespace {

using workload::OwnedProblem;

// The data/certify_k2.ft workload: 10-op DAG, 4 bus-connected processors,
// K=2 replication. Its solution-2 schedule certifies the K=2 processor
// claim but is refuted under K=1 + one link death (the bus is a shared
// point of failure) — the committed refuted repair target.
OwnedProblem k2_bus_problem() {
  workload::RandomProblemParams params;
  params.dag.operations = 10;
  params.processors = 4;
  params.failures_to_tolerate = 2;
  params.seed = 11;
  return workload::random_problem(params);
}

RepairSpec k1_l1_spec() {
  RepairSpec spec;
  spec.certify.max_failures = 1;
  spec.certify.max_link_failures = 1;
  return spec;
}

TEST(Repair, RefutedBusWorkloadRepairsToCertified) {
  const OwnedProblem ex = k2_bus_problem();

  // Precondition: the claim really is refuted before repair.
  const Schedule before = schedule_solution2(ex.problem).value();
  CertifySpec cspec = k1_l1_spec().certify;
  ASSERT_FALSE(certify(before, cspec).certified);

  const RepairReport report =
      repair(ex.problem, HeuristicKind::kSolution2, k1_l1_spec());
  EXPECT_TRUE(report.certified) << report.failure;
  EXPECT_TRUE(report.failure.empty());
  EXPECT_FALSE(report.moves_exhausted);
  EXPECT_FALSE(report.rounds_exhausted);
  ASSERT_TRUE(report.schedule.has_value());
  ASSERT_TRUE(report.certificate.has_value());
  EXPECT_TRUE(report.certificate->certified);

  // At least one accepted move, recorded on the round it produced.
  ASSERT_GE(report.rounds.size(), 2u);
  EXPECT_FALSE(report.rounds.front().certified);
  EXPECT_FALSE(report.rounds.front().has_move);
  EXPECT_TRUE(report.rounds.back().certified);
  EXPECT_TRUE(report.rounds.back().has_move);
  EXPECT_FALSE(report.constraints.empty());

  // The constraints reproduce the repaired schedule through the ordinary
  // scheduler entry points, and it re-certifies from scratch.
  SchedulerOptions opts;
  opts.constraints = report.constraints;
  opts.active_comm_deps = report.active_comm_deps;
  const Expected<Schedule> replayed =
      schedule(ex.problem, report.kind, opts);
  ASSERT_TRUE(replayed.has_value()) << replayed.error().message;
  EXPECT_EQ(schedule_hash(replayed.value()),
            schedule_hash(report.schedule.value()));
  EXPECT_TRUE(certify(replayed.value(), cspec).certified);
}

TEST(Repair, FinalCertificateEqualsFreshCertify) {
  const OwnedProblem ex = k2_bus_problem();
  const RepairReport report =
      repair(ex.problem, HeuristicKind::kSolution2, k1_l1_spec());
  ASSERT_TRUE(report.certified);
  ASSERT_TRUE(report.schedule.has_value());
  ASSERT_TRUE(report.certificate.has_value());

  // The certificate the loop reports is exactly the one a from-scratch
  // sweep of the returned schedule proves, byte for byte.
  const ArchitectureGraph& arch = *ex.problem.architecture;
  EXPECT_EQ(report.certificate->to_json(arch),
            certify(report.schedule.value(), k1_l1_spec().certify)
                .to_json(arch));
  const auto certified = report.metrics.counters.find("repair.certified");
  ASSERT_NE(certified, report.metrics.counters.end());
  EXPECT_EQ(certified->second, 1u);
}

TEST(Repair, ReportByteIdenticalAcrossThreadCounts) {
  const OwnedProblem ex = k2_bus_problem();
  RepairSpec one = k1_l1_spec();
  one.certify.threads = 1;
  RepairSpec eight = k1_l1_spec();
  eight.certify.threads = 8;

  const RepairReport a =
      repair(ex.problem, HeuristicKind::kSolution2, one);
  const RepairReport b =
      repair(ex.problem, HeuristicKind::kSolution2, eight);
  const AlgorithmGraph& graph = *ex.problem.algorithm;
  const ArchitectureGraph& arch = *ex.problem.architecture;
  EXPECT_EQ(a.to_json(graph, arch), b.to_json(graph, arch));
  EXPECT_EQ(a.to_text(graph, arch), b.to_text(graph, arch));
  ASSERT_TRUE(a.schedule.has_value());
  ASSERT_TRUE(b.schedule.has_value());
  EXPECT_EQ(schedule_hash(a.schedule.value()),
            schedule_hash(b.schedule.value()));
}

TEST(Repair, AlreadyCertifiedClaimNeedsNoMoves) {
  const OwnedProblem ex = k2_bus_problem();
  RepairSpec spec;  // default budgets: the schedule's own K=2 claim
  const RepairReport report =
      repair(ex.problem, HeuristicKind::kSolution2, spec);
  EXPECT_TRUE(report.certified);
  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_TRUE(report.rounds[0].certified);
  EXPECT_FALSE(report.rounds[0].has_move);
  EXPECT_TRUE(report.constraints.empty());
}

TEST(Repair, ImpossibleClaimReportsExhaustionNotALoop) {
  // K=2 processor faults PLUS the bus: killing both chain-capable hosts
  // and the only link is within budget and unfixable — every output needs
  // a full local chain on a surviving processor, and no third processor
  // may host one (P2 cannot run `out`, P3 cannot run `in`).
  const OwnedProblem ex = k2_bus_problem();
  RepairSpec spec;
  spec.certify.max_failures = 2;
  spec.certify.max_link_failures = 1;
  spec.max_rounds = 4;
  const RepairReport report =
      repair(ex.problem, HeuristicKind::kSolution2, spec);
  EXPECT_FALSE(report.certified);
  EXPECT_TRUE(report.moves_exhausted || report.rounds_exhausted);
  EXPECT_FALSE(report.failure.empty());
  ASSERT_TRUE(report.schedule.has_value());
  ASSERT_FALSE(report.rounds.empty());
  EXPECT_FALSE(report.rounds.back().certified);
  // The final counterexample is carried in the last round.
  EXPECT_GT(report.rounds.back().counterexample.event_count(), 0u);
}

TEST(Repair, RoundWithNothingToTrySaysNoMoveApplies) {
  // Fig. 22's solution-2 schedule under one silent window and a response
  // bound of 10 (campaign_tool --example2 --solution2 --certify
  // --certify-silences 1 --response-bound 10 --repair): the shrunk
  // reproducer is late but loses no output, and a solution-2 schedule has
  // no passive comm to activate, so round 0 proposes no move at all. The
  // verdict says so instead of blaming candidates it never tried.
  const OwnedProblem ex = workload::paper_example2();
  RepairSpec spec;
  spec.certify.max_silences = 1;
  spec.certify.response_bound = 10;
  const RepairReport report =
      repair(ex.problem, HeuristicKind::kSolution2, spec);
  EXPECT_FALSE(report.certified);
  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_TRUE(report.moves_exhausted);
  EXPECT_EQ(report.metrics.counters.at("repair.moves_tried"), 0u);
  EXPECT_EQ(report.failure, "no move applies to the banked reproducer");
}

TEST(Repair, PreferredCandidatePicksLowestMakespanEarliestTie) {
  // Move ordering: among surviving candidates the repaired schedule with
  // the lowest makespan wins; equal makespans keep the earliest proposal
  // so the choice stays deterministic across proposal enumeration.
  EXPECT_EQ(preferred_candidate({5.0, 3.0, 3.0, 4.0}), 1u);
  EXPECT_EQ(preferred_candidate({7.5}), 0u);
  EXPECT_EQ(preferred_candidate({2.0, 2.0, 2.0}), 0u);
  EXPECT_EQ(preferred_candidate({9.0, 1.0}), 1u);
  EXPECT_THROW((void)preferred_candidate({}), std::invalid_argument);
}

TEST(Repair, RoundsRecordSurvivorsAndMakespan) {
  const OwnedProblem ex = k2_bus_problem();
  const RepairReport report =
      repair(ex.problem, HeuristicKind::kSolution2, k1_l1_spec());
  ASSERT_TRUE(report.certified);
  ASSERT_GE(report.rounds.size(), 2u);
  for (const RepairRound& round : report.rounds) {
    EXPECT_GT(round.makespan, 0.0);
    if (round.has_move) {
      // An accepted move implies at least one surviving candidate.
      EXPECT_GE(round.candidates_surviving, 1u);
    }
  }
}

TEST(Repair, PaperExample1Solution1CertifiesInRoundZero) {
  const OwnedProblem ex = workload::paper_example1();
  const RepairReport report =
      repair(ex.problem, HeuristicKind::kSolution1, RepairSpec{});
  EXPECT_TRUE(report.certified);
  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_FALSE(report.rounds[0].has_move);
}

}  // namespace
}  // namespace ftsched::campaign
