#include "campaign/oracle.hpp"

#include <algorithm>
#include <utility>

#include "arch/routing.hpp"
#include "core/error.hpp"
#include "graph/algorithm_graph.hpp"
#include "sched/timeouts.hpp"

namespace ftsched::campaign {

namespace {

// Fault sets are a handful of entries, so counting distinct values with a
// quadratic scan over a logical concatenation of the two source vectors
// beats materializing, sorting, and uniquing a heap-allocated copy — this
// runs once per scenario on the campaign hot path.
template <typename Value>
std::size_t distinct_count(Value value_at, std::size_t n) {
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j) {
      seen = value_at(j) == value_at(i);
    }
    if (!seen) ++distinct;
  }
  return distinct;
}

}  // namespace

std::size_t plan_processor_faults(const MissionPlan& plan) {
  const std::size_t starts = plan.dead_at_start.size();
  return distinct_count(
      [&](std::size_t i) {
        return i < starts ? plan.dead_at_start[i].value()
                          : plan.failures[i - starts].event.processor.value();
      },
      starts + plan.failures.size());
}

std::size_t plan_link_faults(const MissionPlan& plan) {
  const std::size_t starts = plan.dead_links_at_start.size();
  return distinct_count(
      [&](std::size_t i) {
        return i < starts ? plan.dead_links_at_start[i].value()
                          : plan.link_failures[i - starts].event.link.value();
      },
      starts + plan.link_failures.size());
}

Time static_response_bound(const Schedule& schedule) {
  const Problem& problem = schedule.problem();
  const RoutingTable routing(*problem.architecture);
  const TimeoutTable timeouts(schedule, routing);

  Time last_trigger = schedule.makespan();
  for (const TimeoutChain& chain : timeouts.chains()) {
    for (const TimeoutEntry& entry : chain.entries) {
      if (!is_infinite(entry.deadline)) {
        last_trigger = std::max(last_trigger, entry.deadline);
      }
    }
  }

  Time tail = 0;
  for (const Operation& op : problem.algorithm->operations()) {
    Time worst = 0;
    for (const Processor& proc : problem.architecture->processors()) {
      const Time wcet = problem.exec->duration(op.id, proc.id);
      if (!is_infinite(wcet)) worst = std::max(worst, wcet);
    }
    tail += worst;
  }
  for (const Dependency& dep : problem.algorithm->dependencies()) {
    for (const Link& link : problem.architecture->links()) {
      const Time cost = problem.comm->duration(dep.id, link.id);
      if (!is_infinite(cost)) tail += cost;
    }
  }
  return last_trigger + tail;
}

std::vector<LatencyProbe> resolve_latency_constraints(
    const Schedule& schedule,
    const std::vector<LatencyConstraint>& constraints) {
  const AlgorithmGraph& graph = *schedule.problem().algorithm;
  std::vector<LatencyProbe> probes;
  probes.reserve(constraints.size());
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const LatencyConstraint& c = constraints[i];
    FTSCHED_REQUIRE(!c.name.empty(),
                    "latency constraint #" + std::to_string(i) +
                        " has an empty name");
    for (std::size_t j = 0; j < i; ++j) {
      FTSCHED_REQUIRE(constraints[j].name != c.name,
                      "duplicate latency constraint name \"" + c.name +
                          "\"");
    }
    FTSCHED_REQUIRE(!is_infinite(c.bound) && time_gt(c.bound, 0),
                    "latency constraint \"" + c.name +
                        "\" needs a finite, strictly positive bound");
    auto resolve = [&](const char* role, const std::string& op_name) {
      const OperationId op = graph.find_operation(op_name);
      FTSCHED_REQUIRE(op.valid(), "latency constraint \"" + c.name +
                                      "\": " + std::string(role) +
                                      " operation \"" + op_name +
                                      "\" is not in the graph");
      FTSCHED_REQUIRE(!schedule.replicas(op).empty(),
                      "latency constraint \"" + c.name + "\": " +
                          std::string(role) + " operation \"" + op_name +
                          "\" has no scheduled replica");
      return static_cast<std::uint32_t>(op.index());
    };
    LatencyProbe probe;
    probe.source = resolve("source", c.source_op);
    probe.sink = resolve("sink", c.sink_op);
    probes.push_back(probe);
  }
  return probes;
}

Time chain_latency(const std::vector<Time>& op_completions,
                   const LatencyProbe& probe) {
  const Time sink = probe.sink < op_completions.size()
                        ? op_completions[probe.sink]
                        : kInfinite;
  if (is_infinite(sink)) return kInfinite;
  const Time source = probe.source < op_completions.size()
                          ? op_completions[probe.source]
                          : kInfinite;
  // A chain whose source never ran is anchored at mission start: the sink
  // was served without the source, so the whole elapsed time counts.
  return is_infinite(source) ? sink : sink - source;
}

Oracle::Oracle(const Schedule& schedule, OracleSpec spec)
    : schedule_(&schedule), spec_(std::move(spec)) {
  claimed_ = spec_.claimed_tolerance >= 0 ? spec_.claimed_tolerance
                                          : schedule.failures_tolerated();
  claimed_links_ = std::max(spec_.claimed_link_tolerance, 0);
  bound_ = is_infinite(spec_.response_bound)
               ? static_response_bound(schedule)
               : spec_.response_bound;
  probes_ = resolve_latency_constraints(schedule, spec_.latency_constraints);
}

Verdict Oracle::judge(const MissionPlan& plan,
                      const MissionResult& result) const {
  Verdict verdict;
  const std::size_t proc_faults = plan_processor_faults(plan);
  const std::size_t link_faults = plan_link_faults(plan);
  verdict.within_contract =
      proc_faults <= static_cast<std::size_t>(claimed_) &&
      link_faults <= static_cast<std::size_t>(claimed_links_);

  auto violation = [&](int iteration, std::string message) {
    if (verdict.first_violation_iteration < 0) {
      verdict.first_violation_iteration = iteration;
    }
    verdict.violations.push_back(std::move(message));
  };

  if (result.iterations.size() !=
      static_cast<std::size_t>(plan.iterations)) {
    violation(0, "harness: mission produced " +
                     std::to_string(result.iterations.size()) +
                     " iteration records for a " +
                     std::to_string(plan.iterations) + "-iteration plan");
    return verdict;
  }

  // A silence aimed at an iteration the mission never runs is a malformed
  // plan, not a benign no-op: silently dropping it would judge the plan as
  // if the window had been injected. Flag it like the harness mismatch
  // above (and like over-budget plans, carry no masking promise past it).
  for (const MissionSilence& silence : plan.silences) {
    if (silence.iteration < 0 || silence.iteration >= plan.iterations) {
      violation(0, "harness: silence on a plan with " +
                       std::to_string(plan.iterations) +
                       " iteration(s) targets iteration " +
                       std::to_string(silence.iteration));
      return verdict;
    }
    // A zero-length (or inverted) window blocks nothing — the simulator
    // rejects it outright — so a plan carrying one is malformed the same
    // way: flag it instead of judging the plan as if a window had been
    // injected. time_le makes sub-epsilon windows malformed too; the
    // shrinker's bisection never commits one.
    if (time_le(silence.window.to, silence.window.from)) {
      violation(0, "harness: silence window [" +
                       time_to_string(silence.window.from) + ", " +
                       time_to_string(silence.window.to) +
                       ") on iteration " + std::to_string(silence.iteration) +
                       " has no positive length");
      return verdict;
    }
  }

  for (const MissionIteration& iteration : result.iterations) {
    if (!iteration.all_outputs_produced) verdict.outputs_lost = true;
  }
  if (!verdict.within_contract) {
    // Over-budget (or link-faulted) missions carry no masking promise;
    // losing outputs there is the expected observation, not a violation.
    return verdict;
  }

  // A fail-silent window defers blocked sends to its closing edge: a send
  // blocked at instant b resumes at `to`, so the worst stretch a window
  // actually forced is `to - b` for the earliest attempt it blocked — the
  // simulator reports that as the iteration's silence_deferral (§6.1 item 3
  // masks the window, it does not hide the delay). This is the tight
  // per-window bound: at most the window's length (the historical uniform
  // allowance, granted even to windows that blocked nothing), and 0 for a
  // window no send ever ran into, so every verdict is at least as strict
  // as under the length rule.
  for (const MissionIteration& iteration : result.iterations) {
    if (!iteration.all_outputs_produced) {
      violation(iteration.index,
                "iteration " + std::to_string(iteration.index) +
                    ": outputs lost under " + std::to_string(proc_faults) +
                    " faults (<= claimed K=" + std::to_string(claimed_) +
                    ")");
      continue;
    }
    const Time allowed = bound_ + iteration.silence_deferral;
    if (spec_.check_response && time_gt(iteration.response_time, allowed)) {
      verdict.response_exceeded = true;
      violation(iteration.index,
                "iteration " + std::to_string(iteration.index) +
                    ": response " + time_to_string(iteration.response_time) +
                    " exceeds response bound " + time_to_string(allowed));
    }
    if (probes_.empty()) continue;
    // Chain constraints need the per-op completion table; a mission result
    // without one came from an out-of-date harness, which is a malformed
    // input like the iteration-count mismatch above, not a latency verdict.
    if (iteration.op_completions.empty()) {
      violation(iteration.index,
                "harness: iteration " + std::to_string(iteration.index) +
                    " carries no operation completions for the latency "
                    "constraints");
      continue;
    }
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      const LatencyConstraint& c = spec_.latency_constraints[i];
      const Time latency = chain_latency(iteration.op_completions, probes_[i]);
      const Time chain_allowed = c.bound + iteration.silence_deferral;
      if (!time_gt(latency, chain_allowed)) continue;
      verdict.latency_exceeded = true;
      if (std::find(verdict.violated_constraints.begin(),
                    verdict.violated_constraints.end(),
                    c.name) == verdict.violated_constraints.end()) {
        verdict.violated_constraints.push_back(c.name);
      }
      violation(iteration.index,
                "iteration " + std::to_string(iteration.index) + ": chain \"" +
                    c.name + "\" (" + c.source_op + " -> " + c.sink_op +
                    ") latency " + time_to_string(latency) +
                    " exceeds bound " + time_to_string(chain_allowed));
    }
  }
  return verdict;
}

}  // namespace ftsched::campaign
