// Hard scheduling constraints (SchedulingConstraints): pins force a
// placement, forbids exclude one, link bans re-route a dependency's
// transfers, the empty set is byte-identical to the unconstrained engine,
// and infeasible constraint sets are rejected as Errors, never silently
// dropped — the contract the counterexample-guided repair engine builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/explain.hpp"
#include "sched/heuristics.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

OwnedProblem bus_problem() {
  workload::RandomProblemParams params;
  params.dag.operations = 10;
  params.processors = 4;
  params.failures_to_tolerate = 2;
  params.seed = 11;
  return workload::random_problem(params);
}

OwnedProblem ring_problem() {
  workload::RandomProblemParams params;
  params.dag.operations = 10;
  params.arch_kind = workload::ArchKind::kRing;
  params.processors = 4;
  params.failures_to_tolerate = 1;
  params.seed = 7;
  return workload::random_problem(params);
}

TEST(Constraints, EmptySetIsByteIdenticalToUnconstrained) {
  const OwnedProblem ex = bus_problem();
  const Schedule base = schedule_solution2(ex.problem).value();
  SchedulerOptions options;
  options.constraints = SchedulingConstraints{};
  const Schedule constrained =
      schedule_solution2(ex.problem, options).value();
  EXPECT_EQ(schedule_hash(base), schedule_hash(constrained));
}

TEST(Constraints, PinForcesAReplicaOntoTheProcessor) {
  const OwnedProblem ex = bus_problem();
  const Schedule base = schedule_solution2(ex.problem).value();

  // Pin an operation onto an allowed processor the unconstrained schedule
  // did NOT pick, so the pin is observable.
  const AlgorithmGraph& graph = *ex.problem.algorithm;
  OperationId victim;
  ProcessorId target;
  for (const Operation& op : graph.operations()) {
    for (const Processor& proc : ex.problem.architecture->processors()) {
      if (ex.problem.exec->allowed(op.id, proc.id) &&
          base.replica_on(op.id, proc.id) == nullptr) {
        victim = op.id;
        target = proc.id;
        break;
      }
    }
    if (victim.valid()) break;
  }
  ASSERT_TRUE(victim.valid());

  SchedulerOptions options;
  options.constraints.pinned.push_back(
      SchedulingConstraints::Pin{victim, target});
  ExplainLog log;
  options.explain = &log;
  const Schedule pinned = schedule_solution2(ex.problem, options).value();
  EXPECT_NE(pinned.replica_on(victim, target), nullptr);
  EXPECT_EQ(pinned.replicas(victim).size(), base.replicas(victim).size());

  // The explain log marks the pinned selection kept: exactly the
  // processors the victim's replicas were placed on.
  std::vector<ProcessorId> kept;
  for (const ExplainStep& step : log.steps) {
    if (step.chosen != victim) continue;
    for (const ExplainCandidate& candidate : step.candidates) {
      if (candidate.op == victim && candidate.kept) {
        kept.push_back(candidate.proc);
      }
    }
  }
  std::vector<ProcessorId> placed;
  for (const ScheduledOperation* replica : pinned.replicas(victim)) {
    placed.push_back(replica->processor);
  }
  std::sort(kept.begin(), kept.end());
  std::sort(placed.begin(), placed.end());
  EXPECT_EQ(kept, placed);
}

TEST(Constraints, ForbidExcludesTheProcessor) {
  const OwnedProblem ex = bus_problem();
  const Schedule base = schedule_solution2(ex.problem).value();

  // Forbid a placement the unconstrained schedule DID pick, for an op that
  // keeps at least K+1 other allowed processors.
  const AlgorithmGraph& graph = *ex.problem.algorithm;
  const std::size_t replicas =
      static_cast<std::size_t>(ex.problem.replication_factor());
  OperationId victim;
  ProcessorId banned;
  for (const Operation& op : graph.operations()) {
    std::size_t allowed = 0;
    for (const Processor& proc : ex.problem.architecture->processors()) {
      if (ex.problem.exec->allowed(op.id, proc.id)) ++allowed;
    }
    if (allowed <= replicas) continue;
    for (const Processor& proc : ex.problem.architecture->processors()) {
      if (base.replica_on(op.id, proc.id) != nullptr) {
        victim = op.id;
        banned = proc.id;
        break;
      }
    }
    if (victim.valid()) break;
  }
  ASSERT_TRUE(victim.valid());

  SchedulerOptions options;
  options.constraints.forbidden.push_back(
      SchedulingConstraints::Forbid{victim, banned});
  const Schedule forbidden = schedule_solution2(ex.problem, options).value();
  EXPECT_EQ(forbidden.replica_on(victim, banned), nullptr);
  EXPECT_EQ(forbidden.replicas(victim).size(), replicas);
}

TEST(Constraints, ForbidLinkReroutesTheDependency) {
  const OwnedProblem ex = ring_problem();
  const Schedule base = schedule_solution1(ex.problem).value();

  // Find a dependency with a scheduled transfer crossing some link whose
  // endpoints stay connected without it (always true on a ring).
  DependencyId dep;
  LinkId banned;
  for (const Dependency& d : ex.problem.algorithm->dependencies()) {
    for (const ScheduledComm* comm : base.comms_of(d.id)) {
      if (!comm->segments.empty()) {
        dep = d.id;
        banned = comm->segments.front().link;
        break;
      }
    }
    if (dep.valid()) break;
  }
  ASSERT_TRUE(dep.valid());

  SchedulerOptions options;
  options.constraints.forbidden_links.push_back(
      SchedulingConstraints::ForbidLink{dep, banned});
  const Schedule rerouted = schedule_solution1(ex.problem, options).value();
  for (const ScheduledComm* comm : rerouted.comms_of(dep)) {
    for (const CommSegment& segment : comm->segments) {
      EXPECT_NE(segment.link, banned);
    }
  }
}

TEST(Constraints, InfeasiblePinIsAnErrorNotSilentlyDropped) {
  const OwnedProblem ex = bus_problem();

  // Pin onto a disallowed processor: the random workload pins extio ops to
  // K+1 processors, so at least one (op, proc) pair is disallowed.
  OperationId victim;
  ProcessorId disallowed;
  for (const Operation& op : ex.problem.algorithm->operations()) {
    for (const Processor& proc : ex.problem.architecture->processors()) {
      if (!ex.problem.exec->allowed(op.id, proc.id)) {
        victim = op.id;
        disallowed = proc.id;
        break;
      }
    }
    if (victim.valid()) break;
  }
  ASSERT_TRUE(victim.valid());

  SchedulerOptions options;
  options.constraints.pinned.push_back(
      SchedulingConstraints::Pin{victim, disallowed});
  const Expected<Schedule> result =
      schedule_solution2(ex.problem, options);
  EXPECT_FALSE(result.has_value());

  // More pins than replica slots is equally infeasible.
  SchedulerOptions overfull;
  const OperationId op = ex.problem.algorithm->operations().front().id;
  for (const Processor& proc : ex.problem.architecture->processors()) {
    overfull.constraints.pinned.push_back(
        SchedulingConstraints::Pin{op, proc.id});
  }
  EXPECT_FALSE(schedule_solution2(ex.problem, overfull).has_value());
}

}  // namespace
}  // namespace ftsched
