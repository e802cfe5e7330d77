// Public entry points of the three scheduling heuristics.
//
// All three are greedy list schedulers driven by the schedule-pressure cost
// function (paper §6.2/§7.2); they differ in the replication factor and in
// how inter-processor communications are materialized. All are deterministic:
// the paper breaks pressure ties randomly, we break them by ascending
// operation/processor id so results are reproducible run to run.
//
// Failure modes (returned as Error, never thrown):
//  * kInsufficientRedundancy — some operation allows fewer than K+1
//    processors, or the architecture has fewer than K+1 processors;
//  * kInvalidInput — malformed graphs/tables (missing durations, cycles);
//  * kNoRoute — the architecture is not connected;
//  * kDeadlineMissed — a schedule exists but violates problem.deadline.
#pragma once

#include "arch/characteristics.hpp"
#include "core/error.hpp"
#include "sched/options.hpp"
#include "sched/schedule.hpp"

namespace ftsched {

/// Non-fault-tolerant SynDEx baseline (§4.4): one copy of each operation,
/// communications from the (sole) producer. `problem.failures_to_tolerate`
/// is ignored (treated as 0).
[[nodiscard]] Expected<Schedule> schedule_base(const Problem& problem,
                                               SchedulerOptions options = {});

/// Solution 1 (§6): K+1 active replicas per operation; only the main replica
/// (earliest completion) sends, backups are passive and take over by
/// statically computed timeouts. Best suited to bus architectures.
[[nodiscard]] Expected<Schedule> schedule_solution1(
    const Problem& problem, SchedulerOptions options = {});

/// Solution 2 (§7): K+1 active replicas per operation AND per communication;
/// receivers consume the first arrival. Best suited to point-to-point
/// architectures; no timeouts anywhere.
[[nodiscard]] Expected<Schedule> schedule_solution2(
    const Problem& problem, SchedulerOptions options = {});

/// Hybrid (§5.3's redundancy trade-off): solution 1's operation replication
/// with `options.active_comm_deps` selecting which dependencies use
/// solution 2's actively replicated transfers instead of timeout chains.
/// With an all-false policy this is exactly solution 1; with all-true,
/// solution-2 communications on solution-1 election machinery disabled.
/// The automatic policy search lives in tuning/hybrid.hpp.
[[nodiscard]] Expected<Schedule> schedule_hybrid_with_policy(
    const Problem& problem, SchedulerOptions options);

/// Dispatch by kind (used by sweeps and the trade-off explorer example).
[[nodiscard]] Expected<Schedule> schedule(const Problem& problem,
                                          HeuristicKind kind,
                                          SchedulerOptions options = {});

}  // namespace ftsched
