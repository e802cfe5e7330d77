// Behavioural tests of the heuristics beyond the paper-example anchors:
// feasibility errors, K = 0 degeneration, determinism, deadlines, liveness
// sends, and the intra-processor communication rules.
#include <gtest/gtest.h>

#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "sched/validate.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

TEST(Heuristics, InsufficientProcessorsReported) {
  OwnedProblem ex = workload::paper_example1();
  ex.problem.failures_to_tolerate = 3;  // only 3 processors exist
  const auto result = schedule_solution1(ex.problem);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, Error::Code::kInsufficientRedundancy);
}

TEST(Heuristics, RestrictedOperationReported) {
  // I and O run on P1/P2 only: K = 2 is infeasible even with 3 processors.
  OwnedProblem ex = workload::paper_example1();
  ex.problem.failures_to_tolerate = 2;
  const auto result = schedule_solution1(ex.problem);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, Error::Code::kInsufficientRedundancy);
  EXPECT_NE(result.error().message.find("I"), std::string::npos);
}

TEST(Heuristics, DisconnectedArchitectureReportsNoRoute) {
  // Two processors and no link: no route joins them. Every entry point
  // reports it instead of throwing from the routing table.
  const Expected<OwnedProblem> owned = io::read_problem(
      "algorithm\n  operation I extio-in\n  operation O extio-out\n"
      "  dependency I O\narchitecture\n  processor P1\n  processor P2\n"
      "exec\n  I * 1\n  O * 1\nproblem\n  tolerate 1\n");
  ASSERT_TRUE(owned.has_value()) << owned.error().message;
  const Problem& problem = owned.value().problem;
  std::vector<Expected<Schedule>> results;
  results.push_back(schedule_base(problem));
  results.push_back(schedule_solution1(problem));
  results.push_back(schedule_solution2(problem));
  results.push_back(schedule_hybrid_with_policy(problem, {}));
  results.push_back(schedule(problem, HeuristicKind::kSolution2));
  for (const Expected<Schedule>& result : results) {
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error().code, Error::Code::kNoRoute);
    EXPECT_NE(result.error().message.find("not connected"),
              std::string::npos)
        << result.error().message;
  }
}

TEST(Heuristics, DeadlineViolationReported) {
  OwnedProblem ex = workload::paper_example1();
  ex.problem.deadline = 5.0;  // solution 1 needs 9.4
  const auto result = schedule_solution1(ex.problem);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, Error::Code::kDeadlineMissed);

  ex.problem.deadline = 9.4 + 1e-6;
  EXPECT_TRUE(schedule_solution1(ex.problem).has_value());
}

TEST(Heuristics, SolutionsDegenerateToBaselineAtKZero) {
  OwnedProblem ex = workload::paper_example1();
  ex.problem.failures_to_tolerate = 0;
  const Schedule base = schedule_base(ex.problem).value();
  const Schedule s1 = schedule_solution1(ex.problem).value();
  const Schedule s2 = schedule_solution2(ex.problem).value();
  EXPECT_DOUBLE_EQ(s1.makespan(), base.makespan());
  EXPECT_DOUBLE_EQ(s2.makespan(), base.makespan());
  // Identical placements, operation by operation.
  for (const Operation& op : ex.problem.algorithm->operations()) {
    EXPECT_EQ(s1.main(op.id)->processor, base.main(op.id)->processor);
    EXPECT_EQ(s2.main(op.id)->processor, base.main(op.id)->processor);
  }
}

TEST(Heuristics, BaseIgnoresK) {
  OwnedProblem ex = workload::paper_example1();
  ex.problem.failures_to_tolerate = 1;
  const Schedule schedule = schedule_base(ex.problem).value();
  for (const Operation& op : ex.problem.algorithm->operations()) {
    EXPECT_EQ(schedule.replicas(op.id).size(), 1u);
  }
}

TEST(Heuristics, Deterministic) {
  const OwnedProblem ex1 = workload::paper_example1();
  const OwnedProblem ex2 = workload::paper_example1();
  const Schedule a = schedule_solution1(ex1.problem).value();
  const Schedule b = schedule_solution1(ex2.problem).value();
  ASSERT_EQ(a.operations().size(), b.operations().size());
  for (std::size_t i = 0; i < a.operations().size(); ++i) {
    EXPECT_EQ(a.operations()[i].processor, b.operations()[i].processor);
    EXPECT_DOUBLE_EQ(a.operations()[i].start, b.operations()[i].start);
  }
}

TEST(Heuristics, Solution1OnlyMainSendsActively) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  for (const ScheduledComm& comm : schedule.comms()) {
    if (comm.active) {
      EXPECT_EQ(comm.sender_rank, 0);
    } else {
      EXPECT_GT(comm.sender_rank, 0);
    }
  }
}

TEST(Heuristics, Solution1MinimalMessagesOnBus) {
  // §6.4: each dependency leads to at most K+1 inter-processor comms; on a
  // bus with broadcast, at most ONE active transfer per dependency.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  for (const Dependency& dep : ex.problem.algorithm->dependencies()) {
    EXPECT_LE(schedule.comms_of(dep.id).size(), 1u) << dep.name;
  }
}

TEST(Heuristics, Solution1LivenessOnlyOffBus) {
  // On the bus example every backup observes the consumer broadcast, so no
  // liveness transfers exist; on the point-to-point example they must.
  const OwnedProblem bus = workload::paper_example1();
  const Schedule on_bus = schedule_solution1(bus.problem).value();
  for (const ScheduledComm& comm : on_bus.comms()) {
    EXPECT_FALSE(comm.liveness);
  }
  const OwnedProblem p2p = workload::paper_example2();
  const Schedule on_p2p = schedule_solution1(p2p.problem).value();
  bool any_liveness = false;
  for (const ScheduledComm& comm : on_p2p.comms()) {
    any_liveness |= comm.liveness;
  }
  EXPECT_TRUE(any_liveness);
  EXPECT_TRUE(validate(on_p2p).empty());
}

TEST(Heuristics, Solution2IntraProcessorRule) {
  // §7.1: if a replica of the producer lives on the consumer's processor,
  // NO inter-processor transfer targets that consumer.
  const OwnedProblem ex = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex.problem).value();
  for (const ScheduledComm& comm : schedule.comms()) {
    const Dependency& dep = ex.problem.algorithm->dependency(comm.dep);
    EXPECT_EQ(schedule.replica_on(dep.src, comm.to), nullptr)
        << dep.name << " sent to a processor holding a producer replica";
  }
}

TEST(Heuristics, Solution2EveryReplicaSends) {
  const OwnedProblem ex = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex.problem).value();
  bool backup_sent = false;
  for (const ScheduledComm& comm : schedule.comms()) {
    backup_sent |= comm.sender_rank > 0;
  }
  EXPECT_TRUE(backup_sent);
}

TEST(Heuristics, DispatchMatchesDirectCalls) {
  const OwnedProblem ex = workload::paper_example1();
  EXPECT_DOUBLE_EQ(schedule(ex.problem, HeuristicKind::kBase)->makespan(),
                   schedule_base(ex.problem)->makespan());
  EXPECT_DOUBLE_EQ(
      schedule(ex.problem, HeuristicKind::kSolution1)->makespan(),
      schedule_solution1(ex.problem)->makespan());
  EXPECT_DOUBLE_EQ(
      schedule(ex.problem, HeuristicKind::kSolution2)->makespan(),
      schedule_solution2(ex.problem)->makespan());
}

TEST(Heuristics, SuccessorPenaltyAblation) {
  // Disabling the successor-placement penalty lets the baseline strand the
  // last computation on P3 where the output cannot run (makespan 9.6
  // instead of 8.8) — the ablation DESIGN.md documents.
  const OwnedProblem ex = workload::paper_example1();
  SchedulerOptions no_penalty;
  no_penalty.successor_placement_penalty = false;
  const Schedule with = schedule_base(ex.problem).value();
  const Schedule without = schedule_base(ex.problem, no_penalty).value();
  EXPECT_DOUBLE_EQ(with.makespan(), 8.8);
  EXPECT_DOUBLE_EQ(without.makespan(), 9.6);
}

TEST(Heuristics, MemInputsAreDeliveredToAllReplicas) {
  // A control loop with a mem: its input dependency is non-precedence but
  // must still reach every mem replica (validated by the validator).
  workload::RandomProblemParams params;
  params.dag.operations = 6;
  params.processors = 3;
  params.failures_to_tolerate = 1;
  params.arch_kind = workload::ArchKind::kBus;
  OwnedProblem ex = workload::random_problem(params);

  // Splice a mem feedback loop into the algorithm graph.
  auto algorithm = std::make_unique<AlgorithmGraph>();
  const OperationId in = algorithm->add_operation("in",
                                                  OperationKind::kExtioIn);
  const OperationId state =
      algorithm->add_operation("state", OperationKind::kMem);
  const OperationId law = algorithm->add_operation("law");
  const OperationId out =
      algorithm->add_operation("out", OperationKind::kExtioOut);
  algorithm->add_dependency(in, law);
  algorithm->add_dependency(state, law);
  algorithm->add_dependency(law, state);
  algorithm->add_dependency(law, out);

  auto arch = std::make_unique<ArchitectureGraph>(
      workload::make_architecture(workload::ArchKind::kBus, 3));
  auto exec = std::make_unique<ExecTable>(*algorithm, *arch);
  auto comm = std::make_unique<CommTable>(*algorithm, *arch);
  for (const Operation& op : algorithm->operations()) {
    exec->set_uniform(op.id, 1.0);
  }
  for (const Dependency& dep : algorithm->dependencies()) {
    comm->set_uniform(dep.id, 0.5);
  }
  OwnedProblem owned = workload::assemble(
      std::move(algorithm), std::move(arch), std::move(exec),
      std::move(comm), 1);

  for (const HeuristicKind kind :
       {HeuristicKind::kSolution1, HeuristicKind::kSolution2}) {
    const auto result = ftsched::schedule(owned.problem, kind);
    ASSERT_TRUE(result.has_value()) << result.error().message;
    EXPECT_TRUE(validate(result.value()).empty()) << to_string(kind);
  }
}

}  // namespace
}  // namespace ftsched
