#include "campaign/shrink.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace ftsched::campaign {

namespace {

/// One injected event, flattened so ddmin can treat every fault class
/// uniformly.
struct PlanEvent {
  enum class Kind {
    kDeadAtStart,
    kCrash,
    kSilence,
    kLinkDeadAtStart,
    kLinkCrash,
    kSuspect,
  };
  Kind kind = Kind::kCrash;
  ProcessorId proc;
  LinkId link;
  int iteration = 0;
  Time time = 0;
  SilentWindow window;
};

std::vector<PlanEvent> flatten(const MissionPlan& plan) {
  std::vector<PlanEvent> events;
  for (const ProcessorId proc : plan.dead_at_start) {
    PlanEvent event;
    event.kind = PlanEvent::Kind::kDeadAtStart;
    event.proc = proc;
    events.push_back(event);
  }
  for (const MissionFailure& failure : plan.failures) {
    PlanEvent event;
    event.kind = PlanEvent::Kind::kCrash;
    event.proc = failure.event.processor;
    event.iteration = failure.iteration;
    event.time = failure.event.time;
    events.push_back(event);
  }
  for (const MissionSilence& silence : plan.silences) {
    PlanEvent event;
    event.kind = PlanEvent::Kind::kSilence;
    event.iteration = silence.iteration;
    event.window = silence.window;
    events.push_back(event);
  }
  for (const LinkId link : plan.dead_links_at_start) {
    PlanEvent event;
    event.kind = PlanEvent::Kind::kLinkDeadAtStart;
    event.link = link;
    events.push_back(event);
  }
  for (const MissionLinkFailure& failure : plan.link_failures) {
    PlanEvent event;
    event.kind = PlanEvent::Kind::kLinkCrash;
    event.link = failure.event.link;
    event.iteration = failure.iteration;
    event.time = failure.event.time;
    events.push_back(event);
  }
  for (const ProcessorId proc : plan.suspected_at_start) {
    PlanEvent event;
    event.kind = PlanEvent::Kind::kSuspect;
    event.proc = proc;
    events.push_back(event);
  }
  return events;
}

MissionPlan rebuild(int iterations, const std::vector<PlanEvent>& events) {
  MissionPlan plan;
  plan.iterations = iterations;
  for (const PlanEvent& event : events) {
    switch (event.kind) {
      case PlanEvent::Kind::kDeadAtStart:
        plan.dead_at_start.push_back(event.proc);
        break;
      case PlanEvent::Kind::kCrash:
        plan.failures.push_back(MissionFailure{
            event.iteration, FailureEvent{event.proc, event.time}});
        break;
      case PlanEvent::Kind::kSilence:
        plan.silences.push_back(MissionSilence{event.iteration, event.window});
        break;
      case PlanEvent::Kind::kLinkDeadAtStart:
        plan.dead_links_at_start.push_back(event.link);
        break;
      case PlanEvent::Kind::kLinkCrash:
        plan.link_failures.push_back(MissionLinkFailure{
            event.iteration, LinkFailureEvent{event.link, event.time}});
        break;
      case PlanEvent::Kind::kSuspect:
        plan.suspected_at_start.push_back(event.proc);
        break;
    }
  }
  return plan;
}

class Shrinker {
 public:
  Shrinker(const Simulator& simulator, const Oracle& oracle,
           const ShrinkOptions& options)
      : simulator_(&simulator), oracle_(&oracle), options_(options) {}

  ShrinkResult run(MissionPlan plan) {
    ShrinkResult result;
    result.initial_events = plan.event_count();
    iterations_ = plan.iterations;
    events_ = flatten(plan);

    FTSCHED_REQUIRE(!judge(rebuild(iterations_, events_)).ok(),
                    "shrink needs a violating plan to minimize");

    ddmin();
    truncate_iterations();
    simplify_crashes();
    snap_crash_instants();
    narrow_silences();
    // Rewrites can subsume other events; re-establish 1-minimality.
    while (drop_singles()) {
    }

    result.plan = rebuild(iterations_, events_);
    Verdict verdict = judge(result.plan);
    result.violations = std::move(verdict.violations);
    result.violated_constraints = std::move(verdict.violated_constraints);
    result.final_events = events_.size();
    result.simulations = simulations_;
    result.budget_exhausted = exhausted_;
    return result;
  }

 private:
  Verdict judge(const MissionPlan& plan) {
    ++simulations_;
    return oracle_->judge(plan, run_mission(*simulator_, plan));
  }

  [[nodiscard]] bool budget_left() const {
    return options_.max_simulations == 0 ||
           simulations_ < options_.max_simulations;
  }

  /// Probes one variant against the budget: out of budget, the variant is
  /// conservatively reported as passing, so every pass keeps the current
  /// (verified-failing) event list and winds down without further
  /// simulations.
  bool fails(const std::vector<PlanEvent>& events, int iterations) {
    if (!budget_left()) {
      exhausted_ = true;
      return false;
    }
    return !judge(rebuild(iterations, events)).ok();
  }

  /// Zeller/Hildebrandt ddmin, complement tests: carve the event list into
  /// n chunks and keep any complement that still fails, refining
  /// granularity until single events.
  void ddmin() {
    std::size_t n = 2;
    while (events_.size() >= 2) {
      const std::size_t size = events_.size();
      n = std::min(n, size);
      bool reduced = false;
      for (std::size_t c = 0; c < n; ++c) {
        const std::size_t begin = c * size / n;
        const std::size_t end = (c + 1) * size / n;
        if (begin == end) continue;
        std::vector<PlanEvent> complement;
        complement.reserve(size - (end - begin));
        for (std::size_t i = 0; i < size; ++i) {
          if (i < begin || i >= end) complement.push_back(events_[i]);
        }
        if (fails(complement, iterations_)) {
          events_ = std::move(complement);
          n = std::max<std::size_t>(n - 1, 2);
          reduced = true;
          break;
        }
      }
      if (!reduced) {
        if (n >= size) break;
        n = std::min(n * 2, size);
      }
    }
  }

  /// One sweep trying to drop each single event; true if anything dropped.
  bool drop_singles() {
    bool dropped = false;
    for (std::size_t i = 0; i < events_.size();) {
      std::vector<PlanEvent> without = events_;
      without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(without, iterations_)) {
        events_ = std::move(without);
        dropped = true;
      } else {
        ++i;
      }
    }
    return dropped;
  }

  /// Cut the mission right after the first violating iteration, dropping
  /// the events of the amputated tail.
  void truncate_iterations() {
    if (!budget_left()) {
      exhausted_ = true;
      return;
    }
    const Verdict verdict = judge(rebuild(iterations_, events_));
    const int cut = verdict.first_violation_iteration + 1;
    if (verdict.first_violation_iteration < 0 || cut >= iterations_) return;
    std::vector<PlanEvent> kept;
    for (const PlanEvent& event : events_) {
      if (event.iteration < cut) kept.push_back(event);
    }
    if (fails(kept, cut)) {
      iterations_ = cut;
      events_ = std::move(kept);
    }
  }

  /// A settled dead-from-start processor is a simpler reproducer than a
  /// mid-run crash; convert where the violation survives.
  void simplify_crashes() {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].kind != PlanEvent::Kind::kCrash) continue;
      std::vector<PlanEvent> variant = events_;
      variant[i].kind = PlanEvent::Kind::kDeadAtStart;
      variant[i].iteration = 0;
      variant[i].time = 0;
      if (fails(variant, iterations_)) events_ = std::move(variant);
    }
  }

  /// Snap each remaining crash instant to a Gantt boundary of the crashed
  /// processor (replica start/finish dates), earliest failing first — the
  /// boundaries are exactly where the simulator's behaviour can change.
  void snap_crash_instants() {
    const Schedule& schedule = simulator_->schedule();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].kind != PlanEvent::Kind::kCrash) continue;
      std::vector<Time> candidates{0};
      for (const ScheduledOperation* placement :
           schedule.operations_on(events_[i].proc)) {
        candidates.push_back(placement->start);
        candidates.push_back(placement->end);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end(),
                                   [](Time a, Time b) {
                                     return time_eq(a, b);
                                   }),
                       candidates.end());
      for (const Time candidate : candidates) {
        if (time_ge(candidate, events_[i].time)) break;
        std::vector<PlanEvent> variant = events_;
        variant[i].time = candidate;
        if (fails(variant, iterations_)) {
          events_ = std::move(variant);
          break;
        }
      }
    }
  }

  /// Bisect each silent window's edges inward while the violation holds.
  void narrow_silences() {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].kind != PlanEvent::Kind::kSilence) continue;
      for (int round = 0; round < 16; ++round) {
        const SilentWindow window = events_[i].window;
        const Time mid = (window.from + window.to) / 2;
        // Stop before a half becomes epsilon-zero: the oracle flags
        // no-positive-length windows as malformed plans, so the bisection
        // must never probe (let alone commit) one.
        if (time_le(window.to - mid, 0) || time_le(mid - window.from, 0)) {
          break;
        }
        std::vector<PlanEvent> variant = events_;
        variant[i].window.from = mid;
        if (fails(variant, iterations_)) {
          events_ = std::move(variant);
          continue;
        }
        variant = events_;
        variant[i].window.to = mid;
        if (fails(variant, iterations_)) {
          events_ = std::move(variant);
          continue;
        }
        break;
      }
    }
  }

  const Simulator* simulator_;
  const Oracle* oracle_;
  ShrinkOptions options_;
  int iterations_ = 1;
  std::vector<PlanEvent> events_;
  std::size_t simulations_ = 0;
  bool exhausted_ = false;
};

}  // namespace

ShrinkResult shrink(const Simulator& simulator, const Oracle& oracle,
                    MissionPlan plan, const ShrinkOptions& options) {
  return Shrinker(simulator, oracle, options).run(std::move(plan));
}

ShrinkResult shrink(const Simulator& simulator, const Oracle& oracle,
                    MissionPlan plan) {
  return shrink(simulator, oracle, std::move(plan), ShrinkOptions{});
}

}  // namespace ftsched::campaign
