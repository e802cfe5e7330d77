#include "tuning/hybrid.hpp"

#include <algorithm>

#include "arch/routing.hpp"
#include "sched/timeouts.hpp"

namespace ftsched {

namespace {

/// Cap on accepted flips (each candidate runs the scheduler plus a full
/// transient analysis).
constexpr int kMaxFlips = 8;
/// The search stops once the worst transient stretch falls to this.
constexpr double kTargetStretch = 1.0;

/// The passive dependency whose watch machinery is the likeliest transient
/// bottleneck: prefer dependencies whose main producer replica sits on the
/// worst victim (their chains actually run when it dies), scored by the
/// latest deadline any receiver would wait out.
DependencyId pick_flip(const Schedule& schedule,
                       const TransientReport& transient,
                       const std::vector<bool>& barred) {
  const AlgorithmGraph& graph = *schedule.problem().algorithm;
  const RoutingTable routing(*schedule.problem().architecture);
  const TimeoutTable timeouts(schedule, routing);

  DependencyId best;
  Time best_score = -kInfinite;
  bool best_on_victim = false;
  for (const Dependency& dep : graph.dependencies()) {
    if (schedule.uses_active_comms(dep.id)) continue;
    if (barred[dep.id.index()]) continue;
    Time score = -kInfinite;
    for (const TimeoutChain& chain : timeouts.chains()) {
      if (chain.dep != dep.id || chain.entries.empty()) continue;
      score = std::max(score, chain.entries.back().deadline);
    }
    if (is_infinite(-score)) continue;  // no chains: nothing to gain
    const ScheduledOperation* main = schedule.main(dep.src);
    const bool on_victim = main != nullptr && transient.worst_victim.valid() &&
                           main->processor == transient.worst_victim;
    // Victim-relevant dependencies dominate; ties by score.
    if (std::make_pair(on_victim, score) >
        std::make_pair(best_on_victim, best_score)) {
      best = dep.id;
      best_score = score;
      best_on_victim = on_victim;
    }
  }
  return best;
}

}  // namespace

Expected<HybridResult> schedule_hybrid(const Problem& problem,
                                       HybridOptions options) {
  FTSCHED_REQUIRE(options.max_overhead_factor >= 1.0,
                  "max_overhead_factor must be >= 1");
  SchedulerOptions scheduler;
  scheduler.active_comm_deps.assign(problem.algorithm->dependency_count(),
                                    false);

  Expected<Schedule> seed = schedule_hybrid_with_policy(problem, scheduler);
  if (!seed.has_value()) return seed.error();
  const Time budget = seed->makespan() * options.max_overhead_factor;

  HybridResult best{std::move(seed).value(), {}, {}};
  best.transient = analyze_transient(best.schedule);

  std::vector<bool> barred(problem.algorithm->dependency_count(), false);
  std::vector<DependencyId> flipped;
  // Rejected candidates (over budget / no improvement) are barred and do
  // not consume the flip budget; the attempt bound keeps the search linear
  // in the dependency count either way.
  const int max_attempts =
      static_cast<int>(problem.algorithm->dependency_count()) + kMaxFlips;
  for (int attempt = 0; attempt < max_attempts &&
                        static_cast<int>(flipped.size()) < kMaxFlips;
       ++attempt) {
    if (best.transient.worst_stretch() <= kTargetStretch) break;
    const DependencyId candidate =
        pick_flip(best.schedule, best.transient, barred);
    if (!candidate.valid()) break;

    scheduler.active_comm_deps[candidate.index()] = true;
    Expected<Schedule> next = schedule_hybrid_with_policy(problem, scheduler);
    if (!next.has_value() || time_gt(next->makespan(), budget)) {
      // Over budget or infeasible: revert and never try this one again.
      scheduler.active_comm_deps[candidate.index()] = false;
      barred[candidate.index()] = true;
      continue;
    }
    const TransientReport report = analyze_transient(next.value());
    if (time_ge(report.worst_response, best.transient.worst_response)) {
      // No transient improvement: not worth the active transfers.
      scheduler.active_comm_deps[candidate.index()] = false;
      barred[candidate.index()] = true;
      continue;
    }
    flipped.push_back(candidate);
    best.schedule = std::move(next).value();
    best.transient = report;
  }
  best.flipped = std::move(flipped);
  return best;
}

}  // namespace ftsched
