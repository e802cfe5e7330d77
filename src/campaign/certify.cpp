#include "campaign/certify.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>

#include "arch/architecture_graph.hpp"
#include "campaign/work_pool.hpp"
#include "core/error.hpp"
#include "core/time.hpp"
#include "obs/json_util.hpp"
#include "obs/span.hpp"
#include "sched/timeouts.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ftsched::campaign {

namespace {

/// Static watch-chain deadlines: instants a continuously shifting arrival
/// can cross, flipping a receiver's timeout decision. Only the
/// timeout-driven schedules have any.
std::vector<Time> static_deadlines(const Schedule& schedule) {
  if (!has_watch_chains(schedule.kind())) return {};
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
  [[nodiscard]] ProcessorId proc() const {
    return ProcessorId{static_cast<ProcessorId::underlying_type>(id)};
  }
  [[nodiscard]] LinkId link() const {
    return LinkId{static_cast<LinkId::underlying_type>(id)};
  }
  friend bool operator==(const FaultKey&, const FaultKey&) = default;
  friend bool operator<=(const FaultKey& a, const FaultKey& b) {
    return a.cls < b.cls || (a.cls == b.cls && a.id <= b.id);
  }
};

/// Remaining fault budgets of a subtree, indexed by fault class.
struct Budgets {
  std::array<int, 3> left{};

  /// Faults left to inject: the depth of the subtree below.
  [[nodiscard]] int total() const { return left[0] + left[1] + left[2]; }
  [[nodiscard]] bool exhausted() const { return total() == 0; }

  /// The budgets left below one more fault of class `cls`.
  [[nodiscard]] Budgets after(int cls) const {
    Budgets rest = *this;
    --rest.left[static_cast<std::size_t>(cls)];
    return rest;
  }
};

/// Calls fn(key) for every victim `faults` leaves alive that `budgets`
/// allows one more fault on, in the canonical class order: crashes, link
/// deaths, silence openings, each by ascending id. The sweep plan lists
/// its first victims and the explorer every later one through here.
template <typename Fn>
void for_each_victim(const FailureScenario& faults, std::size_t procs,
                     std::size_t links, const Budgets& budgets, const Fn& fn) {
  const auto proc_alive = [&](ProcessorId p) {
    return std::find(faults.failed_at_start.begin(),
                     faults.failed_at_start.end(),
                     p) == faults.failed_at_start.end() &&
           std::none_of(
               faults.events.begin(), faults.events.end(),
               [&](const FailureEvent& e) { return e.processor == p; });
  };
  const auto link_alive = [&](LinkId l) {
    return std::find(faults.failed_links_at_start.begin(),
                     faults.failed_links_at_start.end(),
                     l) == faults.failed_links_at_start.end() &&
           std::none_of(
               faults.link_events.begin(), faults.link_events.end(),
               [&](const LinkFailureEvent& e) { return e.link == l; });
  };
  for (const int cls : {kClsCrash, kClsLinkDeath, kClsSilence}) {
    if (budgets.left[static_cast<std::size_t>(cls)] == 0) continue;
    const std::size_t count = cls == kClsLinkDeath ? links : procs;
    for (std::size_t i = 0; i < count; ++i) {
      const FaultKey key{cls, static_cast<int>(i)};
      if (cls == kClsLinkDeath ? link_alive(key.link())
                               : proc_alive(key.proc())) {
        fn(key);
      }
    }
  }
}

/// One child of a node: a fault of `key`'s class on its victim at `at`; a
/// silent window closes at `to` (`to` is `at` for a crash or link death).
struct Child {
  FaultKey key;
  Time at = 0;
  Time to = 0;
};

/// What a divided root does once and each of its child tasks repeats
/// uncounted: its begin and cursor forks and its depth-0 instant counts.
/// Its first child carries them, so every count is the undivided tree's.
struct RootCharge {
  std::size_t forks = 0;
  std::size_t instants_kept = 0;
  std::size_t instants_merged = 0;
};

/// The fully resolved sweep: budgets clamped, subsets materialized, tasks
/// enumerated in the canonical global order every shard agrees on. A pure
/// function of (schedule, spec).
struct SweepPlan {
  CertifyBudgets budgets;
  std::vector<std::vector<ProcessorId>> subsets;
  std::vector<std::vector<LinkId>> link_subsets;
  struct Task {
    const std::vector<ProcessorId>* dead;
    const std::vector<LinkId>* dead_links;
    FaultKey first;  // invalid = leaf-only
    Budgets budgets;
    /// The one child of first's root a divided root's task explores; an
    /// invalid key means the task is first's whole subtree.
    Child child = {};
    RootCharge charge = {};
  };
  std::vector<Task> tasks;
};

/// What every task of one sweep reads, built once per sweep.
struct SweepEngine {
  explicit SweepEngine(const Schedule& schedule)
      : simulator(schedule), deadlines(static_deadlines(schedule)) {}

  const Simulator simulator;
  const std::vector<Time> deadlines;
};

/// Depth-first exploration of a task's subtree; every instant the parent
/// prefix is forked, never replayed. The forks copy into branch states the
/// explorer owns, one set per tree depth. Each ordered_for participant
/// runs all its tasks on one explorer, so the states are allocated once
/// per participant and every later fork reuses their storage. Only what
/// derives candidates keeps a trace: a leaf whose budgets are spent is
/// copied without its trace prefix and finished in summary mode.
class Explorer {
 public:
  Explorer(const SweepEngine& engine, const CertifySpec& spec,
           const std::vector<LatencyProbe>& probes)
      : sim_(engine.simulator),
        spec_(spec),
        deadlines_(engine.deadlines),
        procs_(sim_.schedule().problem().architecture->processor_count()),
        links_(sim_.schedule().problem().architecture->link_count()),
        beyond_tail_(sim_.schedule().makespan() + 1),
        probes_(probes) {}

  /// Runs one task into `out`: the dead-at-start subsets' own leaf when
  /// task.first is invalid, one child of a divided root when task.child
  /// is set, otherwise the subtree of fault sequences starting with a
  /// fault of `first`'s class on `first`'s victim.
  void run(const SweepPlan::Task& task, CertifyTaskPartial& out) {
    FTSCHED_SPAN("certify.task");
    out_ = &out;
    out.worst_chain_latency.assign(probes_.size(), 0);
    out.forks += task.charge.forks;
    out.instants_kept += task.charge.instants_kept;
    out.instants_merged += task.charge.instants_merged;
    if (task.child.key.valid()) {
      // The root's begin and cursor copy repeat here uncounted; the
      // cursor goes straight to the child's instant.
      begin_root(task);
      Level& root = levels_[0];
      root.node.copy_to(root.cursor, /*trace=*/task.budgets.total() > 1);
      sim_.advance_until(root.cursor, task.child.at);
      explore_child(0, task.child, task.budgets.after(task.child.key.cls));
      return;
    }
    start_root(task);
    if (!task.first.valid()) {
      certify_leaf(summary_);
      return;
    }
    explore_children(0, task.budgets, 0, FaultKey{}, task.first);
  }

  /// The children of `task`'s root in the order run() walks them, valid
  /// until the explorer's next use; `out` counts the root's begin fork
  /// and its depth-0 instants.
  const std::vector<Child>& root_children(const SweepPlan::Task& task,
                                          CertifyTaskPartial& out) {
    out_ = &out;
    start_root(task);
    list_children(0, task.budgets, 0, FaultKey{}, task.first);
    return levels_[0].children;
  }

 private:
  /// The reused states of one tree depth: the node (the paused branch with
  /// its faults injected), the leaf (the node's copy run to completion),
  /// the cursor (the node's copy advanced instant by instant, forked into
  /// the next depth's nodes) and the node's children.
  struct Level {
    Simulator::Branch node;
    Simulator::Branch leaf;
    Simulator::Branch cursor;
    std::vector<Child> children;
  };

  /// Sets faults_ to the task's dead-at-start subsets, grows levels_ to
  /// the task's depth and begins the root node, uncounted.
  void begin_root(const SweepPlan::Task& task) {
    faults_.failed_at_start = *task.dead;
    faults_.failed_links_at_start = *task.dead_links;
    // Depth d holds the nodes d faults deep; the root is depth 0's node.
    const auto depths = static_cast<std::size_t>(task.budgets.total()) + 1;
    if (levels_.size() < depths) levels_.resize(depths);
    levels_[0].node = sim_.begin(faults_);
  }

  /// Begins the root (one fork) and finishes its leaf into summary_,
  /// traced when the task derives candidates from it.
  void start_root(const SweepPlan::Task& task) {
    begin_root(task);
    ++out_->forks;
    Level& root = levels_[0];
    root.node.copy_to(root.leaf, /*trace=*/task.first.valid());
    sim_.finish(root.leaf, summary_);
  }

  /// Records one leaf run's verdict against the current fault pattern. The
  /// response envelope widens by the run's measured silence_deferral — the
  /// tight allowance its windows earned (0 when no window deferred a send);
  /// the same per-window bound the campaign oracle applies, always <= the
  /// historical longest-window allowance, so every verdict is at least as
  /// strict. Chain constraints are judged from the run's per-op completion
  /// table. The fault pattern is copied into a CertifyBranch only when the
  /// report keeps it: a stored counterexample or a collected branch.
  void certify_leaf(const IterationSummary& leaf) {
    CertifyTaskPartial& out = *out_;
    out.events_simulated += leaf.events_executed;
    ++out.branches;
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
          out.worst_chain_latency[i] =
              std::max(out.worst_chain_latency[i], latency);
        }
      }
    }
    const bool chain_late = !chain_violated_.empty();
    // Late branches are counterexamples, not the certified envelope, so
    // they stay out of worst_response.
    if (!lost && !late) {
      out.worst_response = std::max(out.worst_response, response);
    }
    const bool counterexample = lost || late || chain_late;
    if (counterexample) ++out.total_counterexamples;
    const bool kept = counterexample && out.counterexamples.size() <
                                           spec_.max_counterexamples;
    if (!kept && !spec_.collect_branches) return;
    CertifyBranch branch{faults_, lost, response, chain_violated_};
    if (kept) out.counterexamples.push_back(branch);
    if (spec_.collect_branches) out.collected.push_back(std::move(branch));
  }

  /// Externally visible action dates of one victim, plus the in-flight
  /// windows whose interior keeps a candidate (the fault instant there IS
  /// the link-release / frame-loss instant).
  struct VictimActs {
    std::vector<Time> acts;
    std::vector<Interval> windows;
  };

  /// The acts of a crash-like victim. A processor acts when a replica
  /// completes on it and when a hop it feeds starts or ends; a link when a
  /// hop it carries starts or ends. Windows are the in-flight spans of
  /// those hops. A link carries one frame at a time, so its windows are
  /// exactly its consecutive start/end pairs. They are kept conservatively:
  /// a link dead mid-frame loses the frame at any interior instant, but
  /// keeping the interior samples costs little and never merges two
  /// behaviours unsoundly.
  [[nodiscard]] VictimActs victim_acts(const Trace& leaf, FaultKey key) const {
    const bool link = key.cls == kClsLinkDeath;
    VictimActs out;
    std::vector<std::pair<LinkId, Time>> open;
    for (const TraceEvent& event : leaf.events()) {
      if (link ? event.link != key.link() : event.proc != key.proc()) {
        continue;
      }
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
    for (const auto& hop : open) {
      out.windows.push_back(Interval{hop.second, kInfinite});
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
        ++out_->instants_merged;
      }
    }
    out_->instants_kept += kept.size();
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
        ++out_->instants_merged;
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
        ++out_->instants_merged;
        return;
      }
      kept.push_back(to);
    };
    for (const Time to : candidates) {
      if (time_gt(to, from)) consider(to);
    }
    consider(beyond);
    out_->instants_kept += kept.size();
    return kept;
  }

  /// Executes one child subtree of a depth-`depth` node: fork its cursor
  /// into the next depth's node, push the child's fault onto faults_ and
  /// inject it, leaf, recursion, pop. A child whose budgets are spent
  /// derives no candidates, so it and its leaf are copied without a trace.
  void explore_child(std::size_t depth, const Child& child, Budgets rest) {
    Level& below = levels_[depth + 1];
    const bool traced = !rest.exhausted();
    levels_[depth].cursor.copy_to(below.node, traced);
    ++out_->forks;
    const FaultKey key = child.key;
    if (key.cls == kClsCrash) {
      sim_.inject(below.node, faults_.events.emplace_back(
                                  FailureEvent{key.proc(), child.at}));
    } else if (key.cls == kClsLinkDeath) {
      sim_.inject(below.node, faults_.link_events.emplace_back(
                                  LinkFailureEvent{key.link(), child.at}));
    } else {
      sim_.inject(below.node,
                  faults_.silent_windows.emplace_back(
                      SilentWindow{key.proc(), child.at, child.to}));
    }
    ++out_->forks;
    below.node.copy_to(below.leaf, traced);
    sim_.finish(below.leaf, summary_);
    certify_leaf(summary_);
    explore_children(depth + 1, rest, child.at, key, FaultKey{});
    if (key.cls == kClsCrash) {
      faults_.events.pop_back();
    } else if (key.cls == kClsLinkDeath) {
      faults_.link_events.pop_back();
    } else {
      faults_.silent_windows.pop_back();
    }
  }

  /// Explores the children of the depth-`depth` node: lists them, then
  /// walks the list.
  void explore_children(std::size_t depth, Budgets budgets, Time t0,
                        FaultKey last, FaultKey only) {
    if (list_children(depth, budgets, t0, last, only)) {
      walk_children(depth, budgets);
    }
  }

  /// Lists the children of the depth-`depth` node, whose finished leaf
  /// (traced) is in levels_[depth].leaf, into levels_[depth].children in
  /// walk order: by instant, then victim, then closing edge. `only`, when
  /// valid, restricts them to that victim (a task's first fault). Every
  /// candidate kept or merged is counted here. True when some victim kept
  /// an instant: the walk then forks a cursor, even if every window of a
  /// silence victim was pruned.
  bool list_children(std::size_t depth, Budgets budgets, Time t0,
                     FaultKey last, FaultKey only) {
    Level& level = levels_[depth];
    level.children.clear();
    if (budgets.exhausted()) return false;
    const Trace& leaf = level.leaf.trace();
    const std::vector<Time> candidates =
        representative_instants(leaf, t0, deadlines_);
    if (candidates.empty()) return false;
    const Time beyond = candidates.back() + beyond_tail_;

    struct VictimPlan {
      FaultKey key;
      std::vector<Time> instants;
      std::vector<Time> sends;  // silence victims only
    };
    std::vector<VictimPlan> victims;
    for_each_victim(faults_, procs_, links_, budgets, [&](FaultKey key) {
      if (only.valid() && !(key == only)) return;
      VictimPlan plan;
      plan.key = key;
      if (key.cls == kClsSilence) {
        plan.sends = send_starts(leaf, key.proc());
        plan.instants =
            kept_silence_froms(plan.sends, candidates, t0, last, key);
      } else {
        plan.instants = kept_crash_instants(victim_acts(leaf, key),
                                            candidates, t0, last, key);
      }
      if (!plan.instants.empty()) victims.push_back(std::move(plan));
    });
    if (victims.empty()) return false;

    std::vector<std::size_t> next(victims.size(), 0);
    for (;;) {
      // Earliest unlisted instant across the victims.
      Time c = kInfinite;
      for (std::size_t v = 0; v < victims.size(); ++v) {
        if (next[v] < victims[v].instants.size()) {
          c = std::min(c, victims[v].instants[next[v]]);
        }
      }
      if (is_infinite(c)) break;
      for (std::size_t v = 0; v < victims.size(); ++v) {
        if (next[v] >= victims[v].instants.size() ||
            victims[v].instants[next[v]] != c) {
          continue;
        }
        ++next[v];
        const FaultKey key = victims[v].key;
        if (key.cls != kClsSilence) {
          level.children.push_back(Child{key, c, c});
          continue;
        }
        for (const Time to :
             silence_tos(victims[v].sends, candidates, c, beyond)) {
          level.children.push_back(Child{key, c, to});
        }
      }
    }
    return true;
  }

  /// Walks the listed children of the depth-`depth` node. One cursor per
  /// node: the shared prefix is executed once per instant, each child
  /// forks it. It keeps the trace only for children that will derive
  /// candidates of their own.
  void walk_children(std::size_t depth, Budgets budgets) {
    Level& level = levels_[depth];
    level.node.copy_to(level.cursor, /*trace=*/budgets.total() > 1);
    ++out_->forks;
    for (std::size_t i = 0; i < level.children.size(); ++i) {
      const Child& child = level.children[i];
      if (i == 0 || child.at != level.children[i - 1].at) {
        sim_.advance_until(level.cursor, child.at);
      }
      explore_child(depth, child, budgets.after(child.key.cls));
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
  /// The branch states of each depth, grown to the deepest task run so
  /// far (begin_root): the recursion holds references into them.
  std::vector<Level> levels_;
  /// Scratch: the digest of the leaf just finished.
  IterationSummary summary_;
  /// The running task's partial.
  CertifyTaskPartial* out_ = nullptr;
  /// The current node's fault pattern: the task's dead-at-start subsets,
  /// then one mid-run fault per depth, pushed and popped by explore_child.
  FailureScenario faults_;
};

/// Whether a task is cut per child of its root: its first fault leaves at
/// least two more to place. The children of a shallower task are
/// single-fault subtrees of a few hundred branches at most, so it stays
/// one task per first victim.
bool divided(const SweepPlan::Task& task) {
  return task.first.valid() && task.budgets.total() >= 3;
}

/// Replaces every divided task by one task per child of its root, in walk
/// order: the root runs once here (begin, traced leaf, the explorer's own
/// listing). A root with no child stays one task.
void divide_tasks(SweepPlan& plan, const SweepEngine& engine,
                  const CertifySpec& spec) {
  const std::vector<LatencyProbe> no_probes;  // a root pass judges no leaf
  Explorer explorer(engine, spec, no_probes);
  std::vector<SweepPlan::Task> tasks;
  for (const SweepPlan::Task& task : plan.tasks) {
    if (!divided(task)) {
      tasks.push_back(task);
      continue;
    }
    CertifyTaskPartial root;
    const std::vector<Child>& children = explorer.root_children(task, root);
    if (children.empty()) {
      tasks.push_back(task);
      continue;
    }
    const std::size_t first_child = tasks.size();
    for (const Child& child : children) {
      tasks.push_back(task);
      tasks.back().child = child;
    }
    // The begin root_children counted, plus the cursor copy of its walk.
    tasks[first_child].charge = RootCharge{
        root.forks + 1, root.instants_kept, root.instants_merged};
  }
  plan.tasks = std::move(tasks);
}

}  // namespace

MissionPlan counterexample_plan(const CertifyBranch& branch) {
  const FailureScenario& faults = branch.faults;
  MissionPlan plan;
  plan.iterations = 1;
  plan.dead_at_start = faults.failed_at_start;
  plan.dead_links_at_start = faults.failed_links_at_start;
  for (const FailureEvent& crash : faults.events) {
    plan.failures.push_back(MissionFailure{0, crash});
  }
  for (const LinkFailureEvent& death : faults.link_events) {
    plan.link_failures.push_back(MissionLinkFailure{0, death});
  }
  for (const SilentWindow& window : faults.silent_windows) {
    plan.silences.push_back(MissionSilence{0, window});
  }
  return plan;
}

FailureScenario counterexample_faults(const MissionPlan& plan) {
  FTSCHED_REQUIRE(plan.iterations == 1,
                  "counterexample_faults needs a single-iteration plan");
  FailureScenario faults;
  faults.failed_at_start = plan.dead_at_start;
  faults.failed_links_at_start = plan.dead_links_at_start;
  faults.suspected_at_start = plan.suspected_at_start;
  for (const MissionFailure& crash : plan.failures) {
    faults.events.push_back(crash.event);
  }
  for (const MissionLinkFailure& death : plan.link_failures) {
    faults.link_events.push_back(death.event);
  }
  for (const MissionSilence& silence : plan.silences) {
    faults.silent_windows.push_back(silence.window);
  }
  return faults;
}

OracleSpec oracle_spec(const CertifyReport& report) {
  OracleSpec spec;
  spec.claimed_tolerance = report.max_failures;
  spec.claimed_link_tolerance = report.max_link_failures;
  spec.response_bound = report.response_bound;
  spec.check_response = !is_infinite(report.response_bound);
  spec.latency_constraints = report.latency_constraints;
  return spec;
}

CertifyBudgets certify_budgets(const Schedule& schedule,
                               const CertifySpec& spec) {
  const ArchitectureGraph& arch = *schedule.problem().architecture;
  const int max_failures = spec.max_failures < 0
                               ? schedule.failures_tolerated()
                               : spec.max_failures;
  return CertifyBudgets{
      std::clamp(max_failures, 0,
                 static_cast<int>(arch.processor_count()) - 1),
      std::clamp(spec.max_link_failures, 0,
                 static_cast<int>(arch.link_count())),
      std::max(spec.max_silences, 0)};
}

namespace {

/// Builds the plan of one sweep. `engine` runs the roots of its divided
/// tasks; a sweep with a divided task and no engine builds its own, and a
/// sweep without one simulates nothing.
SweepPlan build_sweep_plan(const Schedule& schedule, const CertifySpec& spec,
                           const SweepEngine* engine) {
  const std::size_t procs =
      schedule.problem().architecture->processor_count();
  const std::size_t links = schedule.problem().architecture->link_count();
  SweepPlan plan;
  plan.budgets = certify_budgets(schedule, spec);
  const CertifyBudgets& b = plan.budgets;
  plan.subsets = id_subsets<ProcessorId>(
      procs, 0, static_cast<std::size_t>(b.max_failures));
  plan.link_subsets = id_subsets<LinkId>(
      links, 0, static_cast<std::size_t>(b.max_link_failures));

  // Tasks: each (processor subset, link subset) pair's own leaf, plus —
  // when some mid-run budget remains — one subtree per first fault victim
  // in canonical class order, splitting the dominant small-subset
  // subtrees across workers. divide_tasks then cuts the deep ones finer.
  FailureScenario root;
  for (const std::vector<ProcessorId>& dead : plan.subsets) {
    for (const std::vector<LinkId>& dead_links : plan.link_subsets) {
      const Budgets budgets{
          {b.max_failures - static_cast<int>(dead.size()),
           b.max_link_failures - static_cast<int>(dead_links.size()),
           b.max_silences}};
      plan.tasks.push_back(
          SweepPlan::Task{&dead, &dead_links, FaultKey{}, budgets});
      root.failed_at_start = dead;
      root.failed_links_at_start = dead_links;
      for_each_victim(root, procs, links, budgets, [&](FaultKey first) {
        plan.tasks.push_back(
            SweepPlan::Task{&dead, &dead_links, first, budgets});
      });
    }
  }
  if (std::none_of(plan.tasks.begin(), plan.tasks.end(), divided)) {
    return plan;
  }
  std::optional<SweepEngine> own;
  divide_tasks(plan, engine != nullptr ? *engine : own.emplace(schedule),
               spec);
  return plan;
}

CertifySweep sweep_of(const SweepPlan& plan, const CertifySpec& spec) {
  return CertifySweep{plan.budgets, spec.response_bound, plan.subsets.size(),
                      plan.link_subsets.size(), plan.tasks.size()};
}

}  // namespace

CertifySweep certify_sweep(const Schedule& schedule,
                           const CertifySpec& spec) {
  return sweep_of(build_sweep_plan(schedule, spec, nullptr), spec);
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

namespace {

/// Runs the shard's slice of a plan built on `engine`; certify() and
/// certify_shard() both sweep through here.
bool run_sweep(const Schedule& schedule, const CertifySpec& spec,
               const SweepEngine& engine, const SweepPlan& plan,
               const CertifyShardSpec& shard,
               const std::function<void(CertifyTaskPartial&&)>& emit,
               const std::function<bool()>& cancelled) {
  FTSCHED_SPAN("certify.shard");
  // Validates the spec's chain constraints (throws std::invalid_argument
  // on a malformed one) and resolves them to op-index probes once for the
  // whole shard.
  const std::vector<LatencyProbe> probes =
      resolve_latency_constraints(schedule, spec.latency_constraints);

  std::vector<std::size_t> owned;
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
    if (shard.owns(t)) owned.push_back(t);
  }

  // One explorer per ordered_for participant, indexed by its slot.
  const std::size_t participants =
      std::min<std::size_t>(resolve_threads(spec.threads), owned.size());
  std::vector<Explorer> explorers;
  explorers.reserve(participants);
  for (std::size_t slot = 0; slot < participants; ++slot) {
    explorers.emplace_back(engine, spec, probes);
  }
  auto run_task = [&](unsigned slot, std::size_t pos) {
    CertifyTaskPartial partial;
    partial.task_index = owned[pos];
    explorers[slot].run(plan.tasks[owned[pos]], partial);
    return partial;
  };
  return ordered_for(spec.threads, owned.size(), run_task, emit, cancelled);
}

}  // namespace

bool certify_shard(const Schedule& schedule, const CertifySpec& spec,
                   const CertifyShardSpec& shard,
                   const std::function<void(CertifyTaskPartial&&)>& emit,
                   const std::function<bool()>& cancelled) {
  FTSCHED_REQUIRE(shard.shard_count >= 1 &&
                      shard.shard_index < shard.shard_count,
                  "certify_shard: shard_index must be < shard_count");
  const SweepEngine engine(schedule);
  return run_sweep(schedule, spec, engine,
                   build_sweep_plan(schedule, spec, &engine), shard, emit,
                   cancelled);
}

CertifyReport certify(const Schedule& schedule, const CertifySpec& spec) {
  FTSCHED_SPAN("certify.run");
  const auto wall_start = std::chrono::steady_clock::now();

  const SweepEngine engine(schedule);
  const SweepPlan plan = build_sweep_plan(schedule, spec, &engine);
  CertifyMerger merger(sweep_of(plan, spec), spec);
  run_sweep(schedule, spec, engine, plan, CertifyShardSpec{},
            [&](CertifyTaskPartial&& partial) {
              merger.add(std::move(partial));
            },
            {});
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
  const FailureScenario& faults = branch.faults;
  std::string out;
  out += "dead at start: ";
  if (faults.failed_at_start.empty() &&
      faults.failed_links_at_start.empty()) {
    out += "-";
  }
  for (std::size_t i = 0; i < faults.failed_at_start.size(); ++i) {
    if (i > 0) out += ",";
    out += arch.processor(faults.failed_at_start[i]).name;
  }
  for (std::size_t i = 0; i < faults.failed_links_at_start.size(); ++i) {
    if (i > 0 || !faults.failed_at_start.empty()) out += ",";
    out += arch.link(faults.failed_links_at_start[i]).name;
  }
  out += "; crashes: ";
  if (faults.events.empty() && faults.link_events.empty()) out += "-";
  for (std::size_t i = 0; i < faults.events.size(); ++i) {
    if (i > 0) out += ", ";
    out += arch.processor(faults.events[i].processor).name;
    out += "@";
    out += time_to_string(faults.events[i].time);
  }
  for (std::size_t i = 0; i < faults.link_events.size(); ++i) {
    if (i > 0 || !faults.events.empty()) out += ", ";
    out += arch.link(faults.link_events[i].link).name;
    out += "@";
    out += time_to_string(faults.link_events[i].time);
  }
  if (!faults.silent_windows.empty()) {
    out += "; silent: ";
    for (std::size_t i = 0; i < faults.silent_windows.size(); ++i) {
      const SilentWindow& window = faults.silent_windows[i];
      if (i > 0) out += ", ";
      out += arch.processor(window.processor).name;
      out += "@[";
      out += time_to_string(window.from);
      out += ",";
      out += time_to_string(window.to);
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

}  // namespace

std::string certify_branch_json(const CertifyBranch& branch,
                                const ArchitectureGraph& arch) {
  const FailureScenario& faults = branch.faults;
  std::string out = "{\"dead_at_start\": [";
  for (std::size_t i = 0; i < faults.failed_at_start.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json_string(arch.processor(faults.failed_at_start[i]).name);
  }
  out += "], \"dead_links_at_start\": [";
  for (std::size_t i = 0; i < faults.failed_links_at_start.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json_string(arch.link(faults.failed_links_at_start[i]).name);
  }
  out += "], \"crashes\": [";
  for (std::size_t i = 0; i < faults.events.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"processor\": " +
           obs::json_string(arch.processor(faults.events[i].processor).name) +
           ", \"time\": " + obs::json_number(faults.events[i].time) + "}";
  }
  out += "], \"link_crashes\": [";
  for (std::size_t i = 0; i < faults.link_events.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"link\": " +
           obs::json_string(arch.link(faults.link_events[i].link).name) +
           ", \"time\": " + obs::json_number(faults.link_events[i].time) +
           "}";
  }
  out += "], \"silences\": [";
  for (std::size_t i = 0; i < faults.silent_windows.size(); ++i) {
    const SilentWindow& window = faults.silent_windows[i];
    if (i > 0) out += ", ";
    out += "{\"processor\": " +
           obs::json_string(arch.processor(window.processor).name) +
           ", \"from\": " + obs::json_number(window.from) +
           ", \"to\": " + obs::json_number(window.to) + "}";
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
    out += certify_branch_json(counterexamples[i], arch);
  }
  out += counterexamples.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace ftsched::campaign
