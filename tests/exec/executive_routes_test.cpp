// The executive ships what is certified: each hop of an active transfer is
// sent from the processor the schedule routed it through
// (Schedule::comm_hops), the route the simulator and the certifier follow,
// and not from the routing table's shortest route. Disjoint routing and
// ForbidLink constraints both schedule transfers off the shortest route.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/routing.hpp"
#include "exec/codegen.hpp"
#include "sched/heuristics.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

/// A 10-operation random DAG on a 5-processor ring, K = 1.
OwnedProblem ring_problem(std::uint64_t seed) {
  workload::RandomProblemParams params;
  params.dag.operations = 10;
  params.arch_kind = workload::ArchKind::kRing;
  params.processors = 5;
  params.failures_to_tolerate = 1;
  params.seed = seed;
  return workload::random_problem(params);
}

/// Active transfers whose scheduled route is not the shortest one.
std::size_t transfers_off_shortest_route(const Schedule& schedule) {
  const RoutingTable routing(*schedule.problem().architecture);
  std::size_t off = 0;
  for (const ScheduledComm& comm : schedule.comms()) {
    if (!comm.active) continue;
    off += schedule.comm_hops(comm) != routing.route(comm.from, comm.to).hops
               ? 1
               : 0;
  }
  return off;
}

/// The executive generates, and each active transfer hop has its kSend on
/// the unit that hop's sender (comm_hops) runs for the hop's link, at the
/// hop's dates; no other kSend exists.
void expect_sends_on_scheduled_hops(const Schedule& schedule) {
  Executive executive;
  ASSERT_NO_THROW(executive = generate_executive(schedule));

  std::size_t segments = 0;
  for (const ScheduledComm& comm : schedule.comms()) {
    if (!comm.active) continue;
    const std::vector<ProcessorId> hops = schedule.comm_hops(comm);
    for (std::size_t i = 0; i < comm.segments.size(); ++i) {
      const CommSegment& segment = comm.segments[i];
      ++segments;
      bool found = false;
      for (const auto& [link, unit] : executive.of(hops[i]).comm_units) {
        if (link != segment.link) continue;
        for (const Instruction& instr : unit.instructions) {
          found |= instr.kind == Instruction::Kind::kSend &&
                   instr.dep == comm.dep && instr.peer == comm.to &&
                   time_eq(instr.planned_start, segment.start) &&
                   time_eq(instr.planned_end, segment.end);
        }
      }
      EXPECT_TRUE(found) << "hop " << i << " of "
                         << schedule.problem()
                                .algorithm->dependency(comm.dep)
                                .name;
    }
  }

  std::size_t sends = 0;
  for (const ProcessorPrograms& programs : executive.processors) {
    for (const auto& [link, unit] : programs.comm_units) {
      for (const Instruction& instr : unit.instructions) {
        sends += instr.kind == Instruction::Kind::kSend ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(sends, segments);
}

TEST(ExecutiveRoutes, DisjointRingRoutesSendFromTheScheduledHops) {
  SchedulerOptions options;
  options.disjoint_comm_routes = true;
  std::size_t off_route = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const OwnedProblem ex = ring_problem(seed);
    const Schedule schedule = schedule_solution2(ex.problem, options).value();
    off_route += transfers_off_shortest_route(schedule);
    expect_sends_on_scheduled_hops(schedule);
  }
  // The seeds exercise what the test is for.
  EXPECT_GT(off_route, 0u);
}

TEST(ExecutiveRoutes, ForbidLinkDetourSendsFromTheScheduledHops) {
  // Seed 6: banning the first active transfer's first link reroutes a
  // transfer of that dependency the long way round the ring.
  const OwnedProblem ex = ring_problem(6);
  const Schedule base = schedule_solution2(ex.problem).value();
  const ScheduledComm* first = nullptr;
  for (const ScheduledComm& comm : base.comms()) {
    if (comm.active && !comm.segments.empty()) {
      first = &comm;
      break;
    }
  }
  ASSERT_NE(first, nullptr);

  SchedulerOptions options;
  options.constraints.forbidden_links.push_back(
      SchedulingConstraints::ForbidLink{first->dep,
                                        first->segments.front().link});
  const Schedule rerouted = schedule_solution2(ex.problem, options).value();
  ASSERT_GT(transfers_off_shortest_route(rerouted), 0u);
  expect_sends_on_scheduled_hops(rerouted);
}

}  // namespace
}  // namespace ftsched
