#include "campaign/certify.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "arch/architecture_graph.hpp"
#include "campaign/work_pool.hpp"
#include "core/error.hpp"
#include "core/time.hpp"
#include "obs/json_util.hpp"
#include "obs/span.hpp"
#include "sched/timeouts.hpp"
#include "sim/simulator.hpp"
#include "tuning/transient_analysis.hpp"

namespace ftsched::campaign {

namespace {

/// Static watch-chain deadlines: instants a continuously shifting arrival
/// can cross, flipping a receiver's timeout decision. Only the
/// timeout-driven schedules have any.
std::vector<Time> static_deadlines(const Schedule& schedule) {
  if (schedule.kind() != HeuristicKind::kSolution1 &&
      schedule.kind() != HeuristicKind::kHybrid) {
    return {};
  }
  const RoutingTable routing(*schedule.problem().architecture);
  const TimeoutTable timeouts(schedule, routing);
  std::vector<Time> out;
  for (const TimeoutChain& chain : timeouts.chains()) {
    for (const TimeoutEntry& entry : chain.entries) {
      out.push_back(entry.deadline);
    }
  }
  return out;
}

/// Fault classes, in canonical same-instant order.
enum : int { kClsCrash = 0, kClsLinkDeath = 1, kClsSilence = 2 };

/// A typed mid-run fault victim. The canonical same-instant order is the
/// key's lexicographic order — crashes, then link deaths, then silence
/// openings, each by ascending id — so every unordered same-instant fault
/// set is explored exactly once (same-instant injections commute: each
/// only queues its own victim's event / window before the instant's batch
/// is dispatched).
struct FaultKey {
  int cls = -1;
  int id = -1;

  [[nodiscard]] bool valid() const { return cls >= 0; }
  friend bool operator==(const FaultKey&, const FaultKey&) = default;
  friend bool operator<=(const FaultKey& a, const FaultKey& b) {
    return a.cls < b.cls || (a.cls == b.cls && a.id <= b.id);
  }
};

/// Remaining per-class fault budgets of a subtree.
struct Budgets {
  int crashes = 0;
  int links = 0;
  int silences = 0;

  [[nodiscard]] bool exhausted() const {
    return crashes <= 0 && links <= 0 && silences <= 0;
  }
};

/// Depth-first exploration of one task's subtree; every instant the parent
/// prefix is forked, never replayed.
class Explorer {
 public:
  Explorer(const Simulator& simulator, const CertifySpec& spec,
           const std::vector<Time>& deadlines, std::size_t procs,
           std::size_t links, const std::vector<LatencyProbe>& probes,
           CertifyTaskPartial& out)
      : sim_(simulator),
        spec_(spec),
        deadlines_(deadlines),
        procs_(procs),
        links_(links),
        beyond_tail_(simulator.schedule().makespan() + 1),
        probes_(probes),
        out_(out) {
    out_.worst_chain_latency.assign(probes_.size(), 0);
  }

  /// Runs one task: the dead-at-start subsets' own leaf when `first` is
  /// invalid, otherwise the subtree of fault sequences starting with a
  /// fault of `first`'s class on `first`'s victim.
  void run(const std::vector<ProcessorId>& dead,
           const std::vector<LinkId>& dead_links, FaultKey first,
           Budgets budgets) {
    FTSCHED_SPAN("certify.task");
    dead_ = dead;
    dead_links_ = dead_links;
    crashes_.clear();
    link_crashes_.clear();
    silences_.clear();
    FailureScenario scenario;
    scenario.failed_at_start = dead;
    scenario.failed_links_at_start = dead_links;
    Simulator::Branch root = sim_.begin(scenario);
    ++out_.forks;
    const IterationResult root_leaf = sim_.finish(root.fork());
    if (!first.valid()) {
      certify_leaf(root_leaf);
      return;
    }
    explore_children(root, root_leaf, budgets, 0, FaultKey{}, first);
  }

 private:
  [[nodiscard]] bool proc_alive(ProcessorId p) const {
    if (std::find(dead_.begin(), dead_.end(), p) != dead_.end()) {
      return false;
    }
    return std::none_of(crashes_.begin(), crashes_.end(),
                        [&](const FailureEvent& crash) {
                          return crash.processor == p;
                        });
  }

  [[nodiscard]] bool link_alive(LinkId l) const {
    if (std::find(dead_links_.begin(), dead_links_.end(), l) !=
        dead_links_.end()) {
      return false;
    }
    return std::none_of(link_crashes_.begin(), link_crashes_.end(),
                        [&](const LinkFailureEvent& death) {
                          return death.link == l;
                        });
  }

  /// Records one leaf run's verdict against the current fault pattern. The
  /// response envelope widens by the run's measured silence_deferral — the
  /// tight allowance its windows earned (0 when no window deferred a send);
  /// the same per-window bound the campaign oracle applies, always <= the
  /// historical longest-window allowance, so every verdict is at least as
  /// strict. Chain constraints are judged from the run's per-op completion
  /// table.
  void certify_leaf(const IterationResult& leaf) {
    out_.events_simulated += leaf.events_executed;
    ++out_.branches;
    const bool lost = !leaf.all_outputs_produced;
    const Time response = leaf.response_time;
    const Time deferral = leaf.silence_deferral;
    const bool late =
        !is_infinite(spec_.response_bound) && !lost &&
        time_gt(response, spec_.response_bound + deferral);
    // Chain constraints are judged per dimension, like the scalar
    // envelope: a branch that lost outputs is already the worst verdict
    // (and its completion table describes a truncated run), so chains are
    // only consulted on output-complete leaves. A never-completed sink
    // reads as kInfinite latency — always a violation.
    chain_violated_.clear();
    if (!lost) {
      for (std::size_t i = 0; i < probes_.size(); ++i) {
        const Time latency = chain_latency(leaf.op_completions, probes_[i]);
        if (time_gt(latency,
                    spec_.latency_constraints[i].bound + deferral)) {
          chain_violated_.push_back(spec_.latency_constraints[i].name);
        } else {
          out_.worst_chain_latency[i] =
              std::max(out_.worst_chain_latency[i], latency);
        }
      }
    }
    const bool chain_late = !chain_violated_.empty();
    // Late branches are counterexamples, not the certified envelope, so
    // they stay out of worst_response.
    if (!lost && !late) {
      out_.worst_response = std::max(out_.worst_response, response);
    }
    CertifyBranch branch;
    branch.dead_at_start = dead_;
    branch.dead_links_at_start = dead_links_;
    branch.crashes = crashes_;
    branch.link_crashes = link_crashes_;
    branch.silences = silences_;
    branch.outputs_lost = lost;
    branch.response_time = response;
    branch.violated_constraints = chain_violated_;
    if (lost || late || chain_late) {
      ++out_.total_counterexamples;
      if (out_.counterexamples.size() < spec_.max_counterexamples) {
        out_.counterexamples.push_back(branch);
      }
    }
    if (spec_.collect_branches) out_.collected.push_back(std::move(branch));
  }

  /// Externally visible action dates of one victim, plus the in-flight
  /// windows whose interior keeps a candidate (the fault instant there IS
  /// the link-release / frame-loss instant).
  struct VictimActs {
    std::vector<Time> acts;
    std::vector<Interval> windows;
  };

  /// A processor's acts: replica completions and the start/end of every
  /// hop it feeds; windows are the in-flight spans of those hops.
  [[nodiscard]] VictimActs proc_acts(const Trace& leaf,
                                     ProcessorId victim) const {
    VictimActs out;
    std::vector<std::pair<LinkId, Time>> open;
    for (const TraceEvent& event : leaf.events()) {
      if (event.proc != victim) continue;
      switch (event.kind) {
        case TraceEvent::Kind::kOpEnd:
          out.acts.push_back(event.time);
          break;
        case TraceEvent::Kind::kTransferStart:
          out.acts.push_back(event.time);
          open.emplace_back(event.link, event.time);
          break;
        // A drop ends the hop as surely as a completion: the frame is gone
        // and the link idle. Leaving the window open would let stale
        // history (a send killed by an earlier fault) keep candidate
        // instants forever.
        case TraceEvent::Kind::kTransferEnd:
        case TraceEvent::Kind::kDrop: {
          out.acts.push_back(event.time);
          const auto it = std::find_if(
              open.rbegin(), open.rend(),
              [&](const auto& o) { return o.first == event.link; });
          if (it != open.rend()) {
            out.windows.push_back(Interval{it->second, event.time});
            open.erase(std::next(it).base());
          }
          break;
        }
        default:
          break;
      }
    }
    for (const auto& [link, start] : open) {
      out.windows.push_back(Interval{start, kInfinite});
    }
    std::sort(out.acts.begin(), out.acts.end());
    return out;
  }

  /// A link's acts: every transfer start/end it carried. The in-flight
  /// windows are kept too, conservatively: a link dead mid-frame loses
  /// the frame at any interior instant, but keeping the interior samples
  /// costs little and never merges two behaviours unsoundly.
  [[nodiscard]] VictimActs link_acts(const Trace& leaf, LinkId victim) const {
    VictimActs out;
    Time open = kInfinite;
    for (const TraceEvent& event : leaf.events()) {
      if (event.link != victim) continue;
      if (event.kind == TraceEvent::Kind::kTransferStart) {
        out.acts.push_back(event.time);
        open = event.time;
      } else if (event.kind == TraceEvent::Kind::kTransferEnd ||
                 event.kind == TraceEvent::Kind::kDrop) {
        out.acts.push_back(event.time);
        if (!is_infinite(open)) {
          out.windows.push_back(Interval{open, event.time});
          open = kInfinite;
        }
      }
    }
    if (!is_infinite(open)) {
      out.windows.push_back(Interval{open, kInfinite});
    }
    std::sort(out.acts.begin(), out.acts.end());
    return out;
  }

  /// Sorted dates the victim starts feeding a hop — the only instants a
  /// silent window's edges can distinguish (is_silent is consulted at
  /// send start; a window opening inside an in-flight hop blocks nothing
  /// of it).
  [[nodiscard]] std::vector<Time> send_starts(const Trace& leaf,
                                              ProcessorId victim) const {
    std::vector<Time> sends;
    for (const TraceEvent& event : leaf.events()) {
      if (event.proc == victim &&
          event.kind == TraceEvent::Kind::kTransferStart) {
        sends.push_back(event.time);
      }
    }
    std::sort(sends.begin(), sends.end());
    return sends;
  }

  /// Candidate instants kept for a crash-like fault (processor crash or
  /// link death), after the canonical same-instant filter and (when
  /// enabled) the exact-equivalence merge described in the header.
  [[nodiscard]] std::vector<Time> kept_crash_instants(
      const VictimActs& victim, const std::vector<Time>& candidates, Time t0,
      FaultKey last, FaultKey self) {
    std::vector<Time> kept;
    for (const Time c : candidates) {
      // Canonical ordering: equal-instant fault pairs are explored once,
      // in ascending (class, id) order.
      if (last.valid() && time_eq(c, t0) && self <= last) continue;
      if (!spec_.dedup || kept.empty()) {
        kept.push_back(c);
        continue;
      }
      const Time k0 = kept.back();
      const auto lo = std::upper_bound(victim.acts.begin(),
                                       victim.acts.end(), k0 + kTimeEpsilon);
      const bool acted = lo != victim.acts.end() && time_le(*lo, c);
      const bool mid_transfer =
          !acted && std::any_of(victim.windows.begin(), victim.windows.end(),
                                [&](const Interval& w) {
                                  return time_lt(w.start, c) &&
                                         time_lt(c, w.end);
                                });
      if (acted || mid_transfer) {
        kept.push_back(c);
      } else {
        ++out_.instants_merged;
      }
    }
    out_.instants_kept += kept.size();
    return kept;
  }

  /// Opening-edge candidates kept for a silent window on one victim.
  /// Windows [k0, t) and [c, t) block the same sends iff the victim starts
  /// no send in [k0, c) — the opening edge is inclusive, so the half-open
  /// check differs from the crash merge's (k0, c]. Kept/merged pairs are
  /// accounted per (from, to) combination in silence_tos().
  [[nodiscard]] std::vector<Time> kept_silence_froms(
      const std::vector<Time>& sends, const std::vector<Time>& candidates,
      Time t0, FaultKey last, FaultKey self) {
    std::vector<Time> kept;
    for (const Time c : candidates) {
      if (last.valid() && time_eq(c, t0) && self <= last) continue;
      if (!spec_.dedup || kept.empty()) {
        kept.push_back(c);
        continue;
      }
      const Time k0 = kept.back();
      const auto lo =
          std::lower_bound(sends.begin(), sends.end(), k0 - kTimeEpsilon);
      if (lo != sends.end() && time_lt(*lo, c)) {
        kept.push_back(c);
      } else {
        ++out_.instants_merged;
      }
    }
    return kept;
  }

  /// Closing-edge candidates for a window opening at `from`: every
  /// representative instant beyond it plus one past-the-end date (silent
  /// for the rest of the iteration). With dedup on, a window that blocks
  /// none of the victim's sends is pruned — it is exactly the parent
  /// leaf. Every surviving `to` is kept: the closing edge is where
  /// blocked sends resume, so it shifts downstream behaviour continuously
  /// (the continuum caveat in the header).
  [[nodiscard]] std::vector<Time> silence_tos(
      const std::vector<Time>& sends, const std::vector<Time>& candidates,
      Time from, Time beyond) {
    const auto first_blocked =
        std::lower_bound(sends.begin(), sends.end(), from - kTimeEpsilon);
    std::vector<Time> kept;
    auto consider = [&](Time to) {
      const bool blocks =
          first_blocked != sends.end() && time_lt(*first_blocked, to);
      if (spec_.dedup && !blocks) {
        ++out_.instants_merged;
        return;
      }
      kept.push_back(to);
    };
    for (const Time to : candidates) {
      if (time_gt(to, from)) consider(to);
    }
    consider(beyond);
    out_.instants_kept += kept.size();
    return kept;
  }

  /// Executes one child subtree: fork, inject, leaf, recursion. The caller
  /// has already pushed the child's fault onto its stack; `inject` applies
  /// it to a forked branch.
  template <typename Inject>
  void explore_child(const Simulator::Branch& cursor, const Inject& inject,
                     Budgets rest, Time c, FaultKey key) {
    Simulator::Branch child = cursor.fork();
    ++out_.forks;
    inject(child);
    ++out_.forks;
    const IterationResult child_leaf = sim_.finish(child.fork());
    certify_leaf(child_leaf);
    explore_children(child, child_leaf, rest, c, key, FaultKey{});
  }

  void explore_children(const Simulator::Branch& node,
                        const IterationResult& leaf, Budgets budgets,
                        Time t0, FaultKey last, FaultKey only) {
    if (budgets.exhausted()) return;
    const std::vector<Time> candidates =
        representative_instants(leaf.trace, t0, deadlines_);
    if (candidates.empty()) return;
    const Time beyond = candidates.back() + beyond_tail_;

    struct VictimPlan {
      FaultKey key;
      std::vector<Time> instants;
      std::vector<Time> sends;  // silence victims only
    };
    std::vector<VictimPlan> victims;
    auto consider = [&](FaultKey key) {
      if (only.valid() && !(key == only)) return;
      VictimPlan plan;
      plan.key = key;
      if (key.cls == kClsCrash) {
        const ProcessorId victim{
            static_cast<ProcessorId::underlying_type>(key.id)};
        plan.instants = kept_crash_instants(proc_acts(leaf.trace, victim),
                                            candidates, t0, last, key);
      } else if (key.cls == kClsLinkDeath) {
        const LinkId victim{static_cast<LinkId::underlying_type>(key.id)};
        plan.instants = kept_crash_instants(link_acts(leaf.trace, victim),
                                            candidates, t0, last, key);
      } else {
        const ProcessorId victim{
            static_cast<ProcessorId::underlying_type>(key.id)};
        plan.sends = send_starts(leaf.trace, victim);
        plan.instants =
            kept_silence_froms(plan.sends, candidates, t0, last, key);
      }
      if (!plan.instants.empty()) victims.push_back(std::move(plan));
    };
    if (budgets.crashes > 0) {
      for (std::size_t p = 0; p < procs_; ++p) {
        const ProcessorId victim{
            static_cast<ProcessorId::underlying_type>(p)};
        if (!proc_alive(victim)) continue;
        consider(FaultKey{kClsCrash, static_cast<int>(p)});
      }
    }
    if (budgets.links > 0) {
      for (std::size_t l = 0; l < links_; ++l) {
        const LinkId victim{static_cast<LinkId::underlying_type>(l)};
        if (!link_alive(victim)) continue;
        consider(FaultKey{kClsLinkDeath, static_cast<int>(l)});
      }
    }
    if (budgets.silences > 0) {
      for (std::size_t p = 0; p < procs_; ++p) {
        const ProcessorId victim{
            static_cast<ProcessorId::underlying_type>(p)};
        if (!proc_alive(victim)) continue;
        consider(FaultKey{kClsSilence, static_cast<int>(p)});
      }
    }
    if (victims.empty()) return;

    // One cursor per node: the shared prefix is executed once per instant,
    // each (victim, instant) branch forks it.
    Simulator::Branch cursor = node.fork();
    ++out_.forks;
    std::vector<std::size_t> next(victims.size(), 0);
    for (;;) {
      // Earliest un-dispatched instant across the victims.
      Time c = kInfinite;
      for (std::size_t v = 0; v < victims.size(); ++v) {
        if (next[v] < victims[v].instants.size()) {
          c = std::min(c, victims[v].instants[next[v]]);
        }
      }
      if (is_infinite(c)) break;
      sim_.advance_until(cursor, c);
      for (std::size_t v = 0; v < victims.size(); ++v) {
        if (next[v] >= victims[v].instants.size() ||
            victims[v].instants[next[v]] != c) {
          continue;
        }
        ++next[v];
        const FaultKey key = victims[v].key;
        if (key.cls == kClsCrash) {
          const ProcessorId victim{
              static_cast<ProcessorId::underlying_type>(key.id)};
          crashes_.push_back(FailureEvent{victim, c});
          Budgets rest = budgets;
          --rest.crashes;
          explore_child(
              cursor,
              [&](Simulator::Branch& child) {
                sim_.inject(child, FailureEvent{victim, c});
              },
              rest, c, key);
          crashes_.pop_back();
        } else if (key.cls == kClsLinkDeath) {
          const LinkId victim{static_cast<LinkId::underlying_type>(key.id)};
          link_crashes_.push_back(LinkFailureEvent{victim, c});
          Budgets rest = budgets;
          --rest.links;
          explore_child(
              cursor,
              [&](Simulator::Branch& child) {
                sim_.inject(child, LinkFailureEvent{victim, c});
              },
              rest, c, key);
          link_crashes_.pop_back();
        } else {
          const ProcessorId victim{
              static_cast<ProcessorId::underlying_type>(key.id)};
          Budgets rest = budgets;
          --rest.silences;
          for (const Time to :
               silence_tos(victims[v].sends, candidates, c, beyond)) {
            silences_.push_back(SilentWindow{victim, c, to});
            explore_child(
                cursor,
                [&](Simulator::Branch& child) {
                  sim_.inject(child, SilentWindow{victim, c, to});
                },
                rest, c, key);
            silences_.pop_back();
          }
        }
      }
    }
  }

  const Simulator& sim_;
  const CertifySpec& spec_;
  const std::vector<Time>& deadlines_;
  const std::size_t procs_;
  const std::size_t links_;
  const Time beyond_tail_;
  /// Resolved chain probes, spec order (empty = scalar-only sweep).
  const std::vector<LatencyProbe>& probes_;
  /// Scratch: names the current leaf violates (certify_leaf only).
  std::vector<std::string> chain_violated_;
  CertifyTaskPartial& out_;
  std::vector<ProcessorId> dead_;
  std::vector<LinkId> dead_links_;
  std::vector<FailureEvent> crashes_;
  std::vector<LinkFailureEvent> link_crashes_;
  std::vector<SilentWindow> silences_;
};

/// Subsets of {0..count-1} with size 0..max, sizes ascending,
/// lexicographic within a size — the canonical task order.
std::vector<std::vector<int>> id_subsets(std::size_t count, int max) {
  std::vector<std::vector<int>> out;
  for (int size = 0; size <= max; ++size) {
    std::vector<int> combo;
    auto gen = [&](auto&& self, std::size_t from, int left) -> void {
      if (left == 0) {
        out.push_back(combo);
        return;
      }
      for (std::size_t p = from; p + static_cast<std::size_t>(left) <= count;
           ++p) {
        combo.push_back(static_cast<int>(p));
        self(self, p + 1, left - 1);
        combo.pop_back();
      }
    };
    gen(gen, 0, size);
  }
  return out;
}

std::vector<ProcessorId> to_proc_ids(const std::vector<int>& ids) {
  std::vector<ProcessorId> out;
  out.reserve(ids.size());
  for (const int id : ids) {
    out.push_back(ProcessorId{static_cast<ProcessorId::underlying_type>(id)});
  }
  return out;
}

std::vector<LinkId> to_link_ids(const std::vector<int>& ids) {
  std::vector<LinkId> out;
  out.reserve(ids.size());
  for (const int id : ids) {
    out.push_back(LinkId{static_cast<LinkId::underlying_type>(id)});
  }
  return out;
}

}  // namespace

MissionPlan counterexample_plan(const CertifyBranch& branch) {
  MissionPlan plan;
  plan.iterations = 1;
  plan.dead_at_start = branch.dead_at_start;
  plan.dead_links_at_start = branch.dead_links_at_start;
  for (const FailureEvent& crash : branch.crashes) {
    plan.failures.push_back(MissionFailure{0, crash});
  }
  for (const LinkFailureEvent& death : branch.link_crashes) {
    plan.link_failures.push_back(MissionLinkFailure{0, death});
  }
  for (const SilentWindow& window : branch.silences) {
    plan.silences.push_back(MissionSilence{0, window});
  }
  return plan;
}

namespace {

/// The fully resolved sweep: budgets clamped, subsets materialized, tasks
/// enumerated in the canonical global order every shard agrees on. A pure
/// function of (schedule, spec).
struct SweepPlan {
  int max_failures = 0;
  int max_links = 0;
  int max_silences = 0;
  std::vector<std::vector<ProcessorId>> subsets;
  std::vector<std::vector<LinkId>> link_subsets;
  struct Task {
    const std::vector<ProcessorId>* dead;
    const std::vector<LinkId>* dead_links;
    FaultKey first;  // invalid = leaf-only
    Budgets budgets;
  };
  std::vector<Task> tasks;
};

SweepPlan build_sweep_plan(const Schedule& schedule, const CertifySpec& spec) {
  const std::size_t procs =
      schedule.problem().architecture->processor_count();
  const std::size_t links = schedule.problem().architecture->link_count();
  SweepPlan plan;
  int max_failures = spec.max_failures < 0 ? schedule.failures_tolerated()
                                           : spec.max_failures;
  plan.max_failures = std::clamp(max_failures, 0,
                                 static_cast<int>(procs) - 1);
  plan.max_links =
      std::clamp(spec.max_link_failures, 0, static_cast<int>(links));
  plan.max_silences = std::max(spec.max_silences, 0);

  for (const std::vector<int>& ids : id_subsets(procs, plan.max_failures)) {
    plan.subsets.push_back(to_proc_ids(ids));
  }
  for (const std::vector<int>& ids : id_subsets(links, plan.max_links)) {
    plan.link_subsets.push_back(to_link_ids(ids));
  }

  // Tasks: each (processor subset, link subset) pair's own leaf, plus —
  // when some mid-run budget remains — one subtree per first fault victim
  // in canonical class order, splitting the dominant small-subset
  // subtrees across workers.
  for (const std::vector<ProcessorId>& dead : plan.subsets) {
    for (const std::vector<LinkId>& dead_links : plan.link_subsets) {
      Budgets budgets;
      budgets.crashes = plan.max_failures - static_cast<int>(dead.size());
      budgets.links = plan.max_links - static_cast<int>(dead_links.size());
      budgets.silences = plan.max_silences;
      plan.tasks.push_back(
          SweepPlan::Task{&dead, &dead_links, FaultKey{}, budgets});
      if (budgets.exhausted()) continue;
      auto add_first = [&](int cls, int id) {
        plan.tasks.push_back(
            SweepPlan::Task{&dead, &dead_links, FaultKey{cls, id}, budgets});
      };
      if (budgets.crashes > 0) {
        for (std::size_t p = 0; p < procs; ++p) {
          const ProcessorId victim{
              static_cast<ProcessorId::underlying_type>(p)};
          if (std::find(dead.begin(), dead.end(), victim) != dead.end()) {
            continue;
          }
          add_first(kClsCrash, static_cast<int>(p));
        }
      }
      if (budgets.links > 0) {
        for (std::size_t l = 0; l < links; ++l) {
          const LinkId victim{static_cast<LinkId::underlying_type>(l)};
          if (std::find(dead_links.begin(), dead_links.end(), victim) !=
              dead_links.end()) {
            continue;
          }
          add_first(kClsLinkDeath, static_cast<int>(l));
        }
      }
      if (budgets.silences > 0) {
        for (std::size_t p = 0; p < procs; ++p) {
          const ProcessorId victim{
              static_cast<ProcessorId::underlying_type>(p)};
          if (std::find(dead.begin(), dead.end(), victim) != dead.end()) {
            continue;
          }
          add_first(kClsSilence, static_cast<int>(p));
        }
      }
    }
  }
  return plan;
}

CertifySweep sweep_of(const SweepPlan& plan, const CertifySpec& spec) {
  CertifySweep sweep;
  sweep.max_failures = plan.max_failures;
  sweep.max_link_failures = plan.max_links;
  sweep.max_silences = plan.max_silences;
  sweep.response_bound = spec.response_bound;
  sweep.subsets = plan.subsets.size();
  sweep.link_subsets = plan.link_subsets.size();
  sweep.tasks = plan.tasks.size();
  return sweep;
}

}  // namespace

CertifySweep certify_sweep(const Schedule& schedule,
                           const CertifySpec& spec) {
  return sweep_of(build_sweep_plan(schedule, spec), spec);
}

CertifyMerger::CertifyMerger(const CertifySweep& sweep,
                             const CertifySpec& spec)
    : max_counterexamples_(spec.max_counterexamples),
      collect_branches_(spec.collect_branches) {
  report_.latency_constraints = spec.latency_constraints;
  report_.worst_chain_latency.assign(spec.latency_constraints.size(), 0);
  report_.max_failures = sweep.max_failures;
  report_.max_link_failures = sweep.max_link_failures;
  report_.max_silences = sweep.max_silences;
  report_.response_bound = sweep.response_bound;
  report_.subsets = sweep.subsets;
  report_.link_subsets = sweep.link_subsets;
}

void CertifyMerger::add(CertifyTaskPartial&& partial) {
  FTSCHED_REQUIRE(!any_added_ || partial.task_index > last_index_,
                  "CertifyMerger::add requires ascending task indices");
  any_added_ = true;
  last_index_ = partial.task_index;
  report_.branches += partial.branches;
  report_.forks += partial.forks;
  report_.events_simulated += partial.events_simulated;
  report_.instants_kept += partial.instants_kept;
  report_.instants_merged += partial.instants_merged;
  report_.total_counterexamples += partial.total_counterexamples;
  report_.worst_response =
      std::max(report_.worst_response, partial.worst_response);
  for (std::size_t i = 0; i < report_.worst_chain_latency.size() &&
                          i < partial.worst_chain_latency.size();
       ++i) {
    report_.worst_chain_latency[i] = std::max(
        report_.worst_chain_latency[i], partial.worst_chain_latency[i]);
  }
  for (CertifyBranch& cex : partial.counterexamples) {
    if (report_.counterexamples.size() < max_counterexamples_) {
      report_.counterexamples.push_back(std::move(cex));
    }
  }
  if (collect_branches_) {
    for (CertifyBranch& branch : partial.collected) {
      report_.branches_list.push_back(std::move(branch));
    }
  }
}

CertifyReport CertifyMerger::finish() {
  report_.certified = report_.total_counterexamples == 0;
  report_.metrics.add_counter("certify.subsets", report_.subsets);
  report_.metrics.add_counter("certify.link_subsets", report_.link_subsets);
  report_.metrics.add_counter("certify.branches", report_.branches);
  report_.metrics.add_counter("certify.forks", report_.forks);
  report_.metrics.add_counter("certify.events_simulated",
                              report_.events_simulated);
  report_.metrics.add_counter("certify.instants_kept",
                              report_.instants_kept);
  report_.metrics.add_counter("certify.instants_merged",
                              report_.instants_merged);
  report_.metrics.add_counter("certify.counterexamples",
                              report_.total_counterexamples);
  if (!report_.latency_constraints.empty()) {
    // Scalar sweeps keep their historical metric set byte for byte; the
    // counter exists only when the spec carries chain constraints.
    report_.metrics.add_counter("certify.latency_constraints",
                                report_.latency_constraints.size());
  }
  return std::move(report_);
}

bool certify_shard(const Schedule& schedule, const CertifySpec& spec,
                   const CertifyShardSpec& shard,
                   const std::function<void(CertifyTaskPartial&&)>& emit,
                   const std::function<bool()>& cancelled) {
  FTSCHED_SPAN("certify.shard");
  FTSCHED_REQUIRE(shard.shard_count >= 1 &&
                      shard.shard_index < shard.shard_count,
                  "certify_shard: shard_index must be < shard_count");
  const SweepPlan plan = build_sweep_plan(schedule, spec);
  const std::size_t procs =
      schedule.problem().architecture->processor_count();
  const std::size_t links = schedule.problem().architecture->link_count();
  const Simulator simulator(schedule);
  const std::vector<Time> deadlines = static_deadlines(schedule);
  // Validates the spec's chain constraints (throws std::invalid_argument
  // on a malformed one) and resolves them to op-index probes once for the
  // whole shard.
  const std::vector<LatencyProbe> probes =
      resolve_latency_constraints(schedule, spec.latency_constraints);

  std::vector<std::size_t> owned;
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
    if (shard.owns(t)) owned.push_back(t);
  }

  auto run_task = [&](std::size_t t) {
    CertifyTaskPartial partial;
    partial.task_index = t;
    Explorer explorer(simulator, spec, deadlines, procs, links, probes,
                      partial);
    explorer.run(*plan.tasks[t].dead, *plan.tasks[t].dead_links,
                 plan.tasks[t].first, plan.tasks[t].budgets);
    return partial;
  };

  const unsigned threads = resolve_threads(spec.threads);
  if (threads == 1 || owned.size() <= 1) {
    for (const std::size_t t : owned) {
      if (cancelled && cancelled()) return false;
      emit(run_task(t));
    }
    return true;
  }

  // Parallel path: workers finish out of order; completed partials park in
  // a cursor-ordered buffer and are flushed to `emit` in ascending task
  // order, so the consumer sees exactly the single-threaded stream. The
  // buffer is bounded by the out-of-order window (at most the number of
  // in-flight tasks), not the task count.
  std::mutex emit_mutex;
  std::unordered_map<std::size_t, CertifyTaskPartial> ready;
  std::size_t next_pos = 0;
  bool was_cancelled = false;
  WorkPool pool(threads);
  for (std::size_t pos = 0; pos < owned.size(); ++pos) {
    pool.submit([&, pos] {
      {
        const std::lock_guard<std::mutex> lock(emit_mutex);
        if (was_cancelled) return;
        if (cancelled && cancelled()) {
          was_cancelled = true;
          return;
        }
      }
      CertifyTaskPartial partial = run_task(owned[pos]);
      const std::lock_guard<std::mutex> lock(emit_mutex);
      ready.emplace(pos, std::move(partial));
      while (true) {
        const auto it = ready.find(next_pos);
        if (it == ready.end()) break;
        emit(std::move(it->second));
        ready.erase(it);
        ++next_pos;
      }
    });
  }
  pool.wait();
  return !was_cancelled;
}

CertifyReport certify(const Schedule& schedule, const CertifySpec& spec) {
  FTSCHED_SPAN("certify.run");
  const auto wall_start = std::chrono::steady_clock::now();

  CertifyMerger merger(certify_sweep(schedule, spec), spec);
  certify_shard(schedule, spec, CertifyShardSpec{},
                [&](CertifyTaskPartial&& partial) {
                  merger.add(std::move(partial));
                });
  CertifyReport report = merger.finish();
  report.threads_used = resolve_threads(spec.threads);
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

namespace {

std::string branch_text(const CertifyBranch& branch,
                        const ArchitectureGraph& arch) {
  std::string out;
  out += "dead at start: ";
  if (branch.dead_at_start.empty() && branch.dead_links_at_start.empty()) {
    out += "-";
  }
  for (std::size_t i = 0; i < branch.dead_at_start.size(); ++i) {
    if (i > 0) out += ",";
    out += arch.processor(branch.dead_at_start[i]).name;
  }
  for (std::size_t i = 0; i < branch.dead_links_at_start.size(); ++i) {
    if (i > 0 || !branch.dead_at_start.empty()) out += ",";
    out += arch.link(branch.dead_links_at_start[i]).name;
  }
  out += "; crashes: ";
  if (branch.crashes.empty() && branch.link_crashes.empty()) out += "-";
  for (std::size_t i = 0; i < branch.crashes.size(); ++i) {
    if (i > 0) out += ", ";
    out += arch.processor(branch.crashes[i].processor).name;
    out += "@";
    out += time_to_string(branch.crashes[i].time);
  }
  for (std::size_t i = 0; i < branch.link_crashes.size(); ++i) {
    if (i > 0 || !branch.crashes.empty()) out += ", ";
    out += arch.link(branch.link_crashes[i].link).name;
    out += "@";
    out += time_to_string(branch.link_crashes[i].time);
  }
  if (!branch.silences.empty()) {
    out += "; silent: ";
    for (std::size_t i = 0; i < branch.silences.size(); ++i) {
      if (i > 0) out += ", ";
      out += arch.processor(branch.silences[i].processor).name;
      out += "@[";
      out += time_to_string(branch.silences[i].from);
      out += ",";
      out += time_to_string(branch.silences[i].to);
      out += ")";
    }
  }
  out += branch.outputs_lost
             ? "; OUTPUTS LOST"
             : "; response " + time_to_string(branch.response_time);
  for (std::size_t i = 0; i < branch.violated_constraints.size(); ++i) {
    out += i == 0 ? "; violates chain " : ", ";
    out += "\"" + branch.violated_constraints[i] + "\"";
  }
  return out;
}

std::string branch_json(const CertifyBranch& branch,
                        const ArchitectureGraph& arch) {
  std::string out = "{\"dead_at_start\": [";
  for (std::size_t i = 0; i < branch.dead_at_start.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json_string(arch.processor(branch.dead_at_start[i]).name);
  }
  out += "], \"dead_links_at_start\": [";
  for (std::size_t i = 0; i < branch.dead_links_at_start.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json_string(arch.link(branch.dead_links_at_start[i]).name);
  }
  out += "], \"crashes\": [";
  for (std::size_t i = 0; i < branch.crashes.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"processor\": " +
           obs::json_string(arch.processor(branch.crashes[i].processor).name) +
           ", \"time\": " + obs::json_number(branch.crashes[i].time) + "}";
  }
  out += "], \"link_crashes\": [";
  for (std::size_t i = 0; i < branch.link_crashes.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"link\": " +
           obs::json_string(arch.link(branch.link_crashes[i].link).name) +
           ", \"time\": " + obs::json_number(branch.link_crashes[i].time) +
           "}";
  }
  out += "], \"silences\": [";
  for (std::size_t i = 0; i < branch.silences.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"processor\": " +
           obs::json_string(arch.processor(branch.silences[i].processor).name) +
           ", \"from\": " + obs::json_number(branch.silences[i].from) +
           ", \"to\": " + obs::json_number(branch.silences[i].to) + "}";
  }
  out += "], \"outputs_lost\": ";
  out += branch.outputs_lost ? "true" : "false";
  out += ", \"response\": " + obs::json_number(branch.response_time);
  // Emitted only when non-empty: scalar certificates stay byte-identical.
  if (!branch.violated_constraints.empty()) {
    out += ", \"violated_constraints\": [";
    for (std::size_t i = 0; i < branch.violated_constraints.size(); ++i) {
      if (i > 0) out += ", ";
      out += obs::json_string(branch.violated_constraints[i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace

std::string certify_branch_json(const CertifyBranch& branch,
                                const ArchitectureGraph& arch) {
  return branch_json(branch, arch);
}

std::string CertifyReport::to_text(const ArchitectureGraph& arch) const {
  std::string out;
  out += "certify:  K=" + std::to_string(max_failures) + " over " +
         std::to_string(arch.processor_count()) + " processors, " +
         std::to_string(subsets) + " dead-at-start subsets";
  if (max_link_failures > 0) {
    out += "; L=" + std::to_string(max_link_failures) + " over " +
           std::to_string(arch.link_count()) + " links, " +
           std::to_string(link_subsets) + " link subsets";
  }
  if (max_silences > 0) {
    out += "; S=" + std::to_string(max_silences) + " silent windows";
  }
  out += "\n";
  out += "branches: " + std::to_string(branches) + " certified branches, " +
         std::to_string(forks) + " forks, " +
         std::to_string(instants_kept) + " instants kept / " +
         std::to_string(instants_merged) + " merged as equivalent\n";
  out += "verdict:  ";
  out += certified
             ? "CERTIFIED — every branch served all outputs"
             : std::to_string(total_counterexamples) + " COUNTEREXAMPLES";
  out += "\n";
  out += "response: worst " + time_to_string(worst_response);
  if (!is_infinite(response_bound)) {
    out += " (bound " + time_to_string(response_bound) + ")";
  }
  out += "\n";
  for (std::size_t i = 0; i < latency_constraints.size(); ++i) {
    const LatencyConstraint& c = latency_constraints[i];
    out += "chain:    \"" + c.name + "\" (" + c.source_op + " -> " +
           c.sink_op + ") worst " +
           time_to_string(i < worst_chain_latency.size()
                              ? worst_chain_latency[i]
                              : 0) +
           " (bound " + time_to_string(c.bound) + ")\n";
  }
  char rate[64];
  std::snprintf(rate, sizeof rate, "%.0f branches/s on %u thread%s\n",
                branches_per_second(), threads_used,
                threads_used == 1 ? "" : "s");
  out += "rate:     ";
  out += rate;
  for (const CertifyBranch& cex : counterexamples) {
    out += "  counterexample: " + branch_text(cex, arch) + "\n";
  }
  return out;
}

std::string CertifyReport::to_json(const ArchitectureGraph& arch) const {
  // Deliberately excludes wall-clock and thread-count fields: the
  // certificate is a pure function of (schedule, spec) and diffable.
  std::string out = "{\n";
  out += "  \"certified\": ";
  out += certified ? "true" : "false";
  // A sweep whose resolved budgets allow no fault at all certifies only
  // the fault-free run; the marker keeps such a certificate from passing
  // as an exhaustive one downstream.
  out += ",\n  \"sweep\": ";
  out += (max_failures == 0 && max_link_failures == 0 && max_silences == 0)
             ? "\"empty\""
             : "\"exhaustive\"";
  out += ",\n  \"max_failures\": " +
         obs::json_number(static_cast<std::int64_t>(max_failures));
  out += ",\n  \"max_link_failures\": " +
         obs::json_number(static_cast<std::int64_t>(max_link_failures));
  out += ",\n  \"max_silences\": " +
         obs::json_number(static_cast<std::int64_t>(max_silences));
  out += ",\n  \"processors\": " + obs::json_number(static_cast<std::uint64_t>(
                                       arch.processor_count()));
  out += ",\n  \"links\": " +
         obs::json_number(static_cast<std::uint64_t>(arch.link_count()));
  out += ",\n  \"subsets\": " +
         obs::json_number(static_cast<std::uint64_t>(subsets));
  out += ",\n  \"link_subsets\": " +
         obs::json_number(static_cast<std::uint64_t>(link_subsets));
  out += ",\n  \"branches\": " +
         obs::json_number(static_cast<std::uint64_t>(branches));
  out += ",\n  \"forks\": " +
         obs::json_number(static_cast<std::uint64_t>(forks));
  out += ",\n  \"instants_kept\": " +
         obs::json_number(static_cast<std::uint64_t>(instants_kept));
  out += ",\n  \"instants_merged\": " +
         obs::json_number(static_cast<std::uint64_t>(instants_merged));
  out += ",\n  \"worst_response\": " + obs::json_number(worst_response);
  out += ",\n  \"response_bound\": " + obs::json_number(response_bound);
  // Scalar certificates must stay byte-identical, so the chain block only
  // exists when the spec carried constraints.
  if (!latency_constraints.empty()) {
    out += ",\n  \"latency_constraints\": [";
    for (std::size_t i = 0; i < latency_constraints.size(); ++i) {
      const LatencyConstraint& c = latency_constraints[i];
      out += i > 0 ? ",\n    " : "\n    ";
      out += "{\"name\": " + obs::json_string(c.name) +
             ", \"source\": " + obs::json_string(c.source_op) +
             ", \"sink\": " + obs::json_string(c.sink_op) +
             ", \"bound\": " + obs::json_number(c.bound) +
             ", \"worst\": " +
             obs::json_number(i < worst_chain_latency.size()
                                  ? worst_chain_latency[i]
                                  : 0) +
             "}";
    }
    out += "\n  ]";
  }
  out += ",\n  \"total_counterexamples\": " +
         obs::json_number(static_cast<std::uint64_t>(total_counterexamples));
  out += ",\n  \"counterexamples\": [";
  for (std::size_t i = 0; i < counterexamples.size(); ++i) {
    out += i > 0 ? ",\n    " : "\n    ";
    out += branch_json(counterexamples[i], arch);
  }
  out += counterexamples.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace ftsched::campaign
