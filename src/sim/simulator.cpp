#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "core/error.hpp"
#include "graph/algorithm_graph.hpp"
#include "obs/span.hpp"

namespace ftsched {

namespace sim_detail {

/// "No entity": an empty link, the end of a chain, a deadline never queued.
inline constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// One operation of a processor's static program, flattened from the
/// ScheduledOperation it was built from: everything the hot loop reads
/// (duration, input/output dependency lists) sits in the plan's contiguous
/// arrays instead of behind graph lookups.
struct OpRecord {
  OperationId op;
  int rank = 0;
  Time duration = 0;
  std::uint32_t in_begin = 0, in_end = 0;    // SimPlan::op_in (dep indices)
  std::uint32_t out_begin = 0, out_end = 0;  // SimPlan::op_out
};

/// One hop of a static transfer: the feeding processor, the link crossed,
/// the scheduled slot (static transfers are time-triggered, §4.4) and the
/// precomputed transfer duration on that link.
struct HopRecord {
  ProcessorId feed;
  LinkId link;
  Time slot = 0;
  Time duration = 0;
};

/// Scenario-independent description of one statically scheduled transfer;
/// hops live in SimPlan::hops[hop_begin, hop_end).
struct StaticTransfer {
  DependencyId dep;
  ProcessorId to;
  std::uint32_t hop_begin = 0, hop_end = 0;
  /// Observing this transfer certifies the sender finished distributing
  /// the value (liveness sends and the final static consumer delivery).
  bool certifies = false;
};

/// A transfer created at runtime (solution-1 elected-backup send). Rare
/// enough to keep its route by value; run state lives in the same
/// SimState::tr array as the static transfers, at indices past them.
struct DynTransfer {
  DependencyId dep;
  ProcessorId to;
  /// hops[i] feeds links[i]. Points into the RoutingTable (owned by the
  /// Simulator, which outlives every SimState including Branch forks), so
  /// creating or copying a dynamic transfer never copies the route.
  const Route* route = nullptr;
  /// Liveness notification to a later backup (cancelled once the
  /// destination has certified the dependency's distribution).
  bool liveness = false;
  /// Next runtime transfer to the same destination (ProcRun::sends_to).
  std::uint32_t next_to = kNone;
};

/// A watch chain (Figure 10/12), flattened: entries live in
/// SimPlan::wentries[e_begin, e_end).
struct WatcherRec {
  DependencyId dep;
  ProcessorId receiver;
  /// Rank of the local backup replica of the producer; -1 for a pure
  /// consumer watcher.
  int backup_rank = -1;
  std::uint32_t e_begin = 0, e_end = 0;
};

struct WatchEntry {
  ProcessorId sender;
  Time deadline = 0;
  int rank = 0;
};

/// A (static transfer, hop) pair: what the value index wakes.
struct TransferHop {
  std::uint32_t transfer = 0;
  std::uint32_t hop = 0;  // counted from the transfer's first hop
};

/// Everything about a run that does not depend on the failure scenario,
/// derived from the schedule exactly once per Simulator and flattened into
/// contiguous arrays (CSR layout for per-processor programs, per-transfer
/// hops, per-link endpoints, per-watcher chains and the wake index) so the
/// inner loops walk cache lines, not pointer graphs. A campaign runs tens
/// of thousands of scenarios against one schedule from several threads;
/// runs point at the plan, which is never written after build_plan, and
/// keep only flat POD state.
struct SimPlan {
  std::uint32_t procs = 0;
  std::uint32_t links = 0;
  std::uint32_t deps = 0;
  std::uint32_t op_count = 0;  // graph operation count (op_end table size)

  std::vector<std::uint32_t> op_begin;  // [procs + 1] into ops
  std::vector<OpRecord> ops;
  std::vector<std::uint32_t> op_in;   // input dep indices
  std::vector<std::uint32_t> op_out;  // output dep indices

  std::vector<StaticTransfer> transfers;
  std::vector<HopRecord> hops;

  std::vector<std::uint32_t> link_ep_begin;  // [links + 1] into link_ep
  std::vector<std::uint32_t> link_ep;        // endpoint processor indices

  std::vector<WatcherRec> watchers;
  std::vector<WatchEntry> wentries;

  // The wake index: for each state change an event can make, the entities
  // whose blocking guard it can flip. (processor, dependency) rows are
  // keyed dep * procs + p, like SimState::has_value.
  std::vector<std::uint32_t> proc_link_begin;  // [procs + 1]
  std::vector<std::uint32_t> proc_link;  // links a processor is attached to
  std::vector<std::uint32_t> value_hop_begin;  // [deps * procs + 1]
  std::vector<TransferHop> value_hop;  // hops (p, dep) feeds: wait for value
  std::vector<std::uint32_t> value_watch_begin;  // [deps * procs + 1]
  std::vector<std::uint32_t> value_watch;  // watchers of dep at receiver p
  std::vector<std::uint32_t> idle_sends;  // [procs] first hops p feeds

  std::vector<OperationId> extio_out;  // response-defining outputs

  Time horizon = 0;                 // schedule makespan (bucket sizing)
  std::size_t expected_events = 0;  // bucket count sizing
};

inline constexpr char kIdle = 0;
inline constexpr char kInFlight = 1;
inline constexpr char kDone = 2;
inline constexpr char kCancelled = 3;

struct ProcRun {
  std::uint32_t next = 0;  // position in the processor's static program
  /// Idle transfers whose current hop this processor feeds: a silent
  /// window on it defers a send attempt exactly while this is non-zero.
  std::uint32_t idle_sends = 0;
  /// Runtime transfers to this processor, chained through
  /// DynTransfer::next_to; terminal ones are unlinked as they are met.
  std::uint32_t sends_to = kNone;
  char alive = 1;
  char busy = 0;
  char queued = 0;  // in SimState::proc_woken
};

struct LinkRun {
  std::uint32_t frame = kNone;    // the one transfer in flight on the link
  std::uint32_t waiters = kNone;  // transfers blocked on it, chained
  char alive = 1;
};

struct TransferRun {
  std::uint32_t hop = 0;
  std::uint32_t slot_hop = kNone;     // hop whose slot deadline is queued
  std::uint32_t next_waiter = kNone;  // LinkRun::waiters chain
  char status = kIdle;
  char queued = 0;   // in SimState::tr_woken
  char waiting = 0;  // on its current link's waiter chain
};

struct WatcherRun {
  std::uint32_t pos = 0;
  std::uint32_t sched = kNone;  // entry whose deadline event is queued
  std::uint32_t flag_next = kNone;  // SimState::flag_waiters chain
  char elected = 0;
  char sent = 0;
  char retired = 0;
  char queued = 0;  // in SimState::w_woken or w_deferred
};

/// An entity blocked until a known instant (a slot, a watch deadline, a
/// silent window's closing edge).
struct TimeGuard {
  Time at = 0;
  std::uint32_t entity = 0;
};

/// The per-run state of one simulated iteration minus its trace, separated
/// from the engine so a paused run can be snapshotted (Simulator::Branch)
/// and copied per failure branch, and so a worker can reuse one state as an
/// arena across a whole chunk of scenarios (Simulator::run_summary — init()
/// resets every table without releasing storage). Per-entity state sits
/// in one flat record array per kind, indexed like the plan; copying is a
/// handful of flat vector copies, never a re-simulation and never a
/// per-transfer route copy, and copy-assignment into a state of the same
/// plan reuses its storage. The wake lists are empty between batches, so
/// a copy copies none of them.
struct SimCore {
  bool prologue_done = false;
  /// Summary mode: record() skips the Trace and feeds the digest
  /// accumulators only (run_summary, trace-free Branch copies); trace mode
  /// keeps both in sync.
  bool summary = false;
  /// Events dispatched by THIS state since it was begun or forked (fork
  /// resets the copy's counter): the marginal simulation work of a branch,
  /// excluding the shared prefix it inherited.
  std::size_t events_dispatched = 0;
  /// Entities the event core examined, counted like events_dispatched
  /// (IterationSummary::entity_visits).
  std::size_t entity_visits = 0;
  /// Instant of the last fully executed event batch; injected faults must
  /// lie strictly after it.
  Time executed_until = -kInfinite;
  std::uint32_t seq = 0;
  EventQueue queue;

  std::vector<ProcRun> proc;
  std::vector<char> flags;  // [p * procs + q]: p believes q failed
  std::vector<LinkRun> link;
  /// Plan transfers [0, plan.transfers.size()) followed by dynamic
  /// transfers in creation order; templates of the latter live in
  /// `dynamic`.
  std::vector<TransferRun> tr;
  std::vector<DynTransfer> dynamic;
  std::vector<WatcherRun> watch;

  std::vector<SilentWindow> silent_windows;
  /// Parallel to silent_windows: the earliest instant window i actually
  /// blocked a send attempt, kInfinite while it never deferred anything.
  /// Drives the tight per-window response allowance (window.to - first
  /// blocked instant, instead of the window's full length) — see
  /// IterationSummary::silence_deferral.
  std::vector<Time> silent_first_blocked;
  // [dep * procs + proc], dependency-major: a bus delivery's endpoints
  // share a cache line.
  std::vector<char> has_value;
  std::vector<char> certified;
  /// [receiver * procs + sender]: the watchers blocked on a deadline of
  /// that sender, chained through WatcherRun::flag_next. A timeout that
  /// flags the sender empties the chain; a watcher joins one chain per
  /// entry it blocks at.
  std::vector<std::uint32_t> flag_waiters;

  // Wake lists, filled by dispatch and drained by the fixpoint in index
  // order. w_woken is a min-heap while the watcher pass runs.
  std::vector<std::uint32_t> proc_woken;
  std::vector<std::uint32_t> tr_woken;
  std::vector<std::uint32_t> w_woken;
  std::vector<std::uint32_t> w_deferred;  // for the fixpoint's next round
  std::vector<std::uint32_t> drops;       // on_failure's frames, sorted
  /// Pending time guards, min-heaps on TimeGuard::at (GuardAfter).
  std::vector<TimeGuard> tr_guards;
  std::vector<TimeGuard> w_guards;

  // Digest accumulators, maintained in both modes (finish() derives the
  // response from op_end instead of re-scanning the trace).
  std::size_t n_timeouts = 0;
  std::size_t n_elections = 0;
  std::size_t n_transfer_starts = 0;
  std::vector<Time> op_end;  // [op] earliest kOpEnd instant, kInfinite if none
};

/// A run's whole state: the core plus the trace recorded so far (empty in
/// summary mode). The trace prefix is the largest part of a traced copy;
/// a trace-free copy (Branch::copy_to) assigns the core alone.
struct SimState : SimCore {
  Trace trace;
};

namespace {

/// Fills CSR rows: row r holds the values of `pairs` keyed r, in order.
template <typename T>
void fill_rows(std::size_t rows,
               const std::vector<std::pair<std::uint32_t, T>>& pairs,
               std::vector<std::uint32_t>& begin, std::vector<T>& values) {
  begin.assign(rows + 1, 0);
  for (const auto& pair : pairs) ++begin[pair.first + 1];
  for (std::size_t r = 0; r < rows; ++r) begin[r + 1] += begin[r];
  values.resize(pairs.size());
  std::vector<std::uint32_t> at(begin.begin(), begin.end() - 1);
  for (const auto& [row, value] : pairs) values[at[row]++] = value;
}

}  // namespace

std::unique_ptr<const SimPlan> build_plan(const Schedule& schedule,
                                          const TimeoutTable& timeouts) {
  const AlgorithmGraph& graph = *schedule.problem().algorithm;
  const ArchitectureGraph& arch = *schedule.problem().architecture;
  auto plan = std::make_unique<SimPlan>();

  plan->procs = static_cast<std::uint32_t>(arch.processor_count());
  plan->links = static_cast<std::uint32_t>(arch.link_count());
  plan->deps = static_cast<std::uint32_t>(graph.dependency_count());
  plan->op_count = static_cast<std::uint32_t>(graph.operation_count());

  // Per-processor static programs, flattened with their dependency lists.
  plan->op_begin.reserve(plan->procs + 1);
  plan->op_begin.push_back(0);
  for (std::uint32_t p = 0; p < plan->procs; ++p) {
    for (const ScheduledOperation* so : schedule.operations_on(
             ProcessorId{static_cast<ProcessorId::underlying_type>(p)})) {
      OpRecord record;
      record.op = so->op;
      record.rank = so->rank;
      record.duration = so->end - so->start;
      record.in_begin = static_cast<std::uint32_t>(plan->op_in.size());
      for (DependencyId dep : graph.precedence_in_ref(so->op)) {
        plan->op_in.push_back(static_cast<std::uint32_t>(dep.index()));
      }
      record.in_end = static_cast<std::uint32_t>(plan->op_in.size());
      record.out_begin = static_cast<std::uint32_t>(plan->op_out.size());
      for (DependencyId dep : graph.out_dependencies(so->op)) {
        plan->op_out.push_back(static_cast<std::uint32_t>(dep.index()));
      }
      record.out_end = static_cast<std::uint32_t>(plan->op_out.size());
      plan->ops.push_back(record);
    }
    plan->op_begin.push_back(static_cast<std::uint32_t>(plan->ops.size()));
  }

  // Static transfers, in schedule order (their creation order). The
  // latest-ending consumer delivery of each dependency certifies the
  // main's end of distribution (see ScheduledComm::liveness).
  std::vector<Time> final_end(graph.dependency_count(), 0);
  for (const ScheduledComm& comm : schedule.comms()) {
    if (!comm.active || comm.liveness || comm.segments.empty()) continue;
    final_end[comm.dep.index()] =
        std::max(final_end[comm.dep.index()], comm.segments.back().end);
  }
  const CommTable& comm_costs = *schedule.problem().comm;
  for (const ScheduledComm& comm : schedule.comms()) {
    if (!comm.active) continue;
    StaticTransfer transfer;
    transfer.dep = comm.dep;
    transfer.to = comm.to;
    transfer.certifies =
        comm.liveness ||
        (!comm.segments.empty() &&
         time_ge(comm.segments.back().end, final_end[comm.dep.index()]));
    const std::vector<ProcessorId> route_hops = schedule.comm_hops(comm);
    transfer.hop_begin = static_cast<std::uint32_t>(plan->hops.size());
    for (std::size_t i = 0; i < comm.segments.size(); ++i) {
      const CommSegment& segment = comm.segments[i];
      HopRecord hop;
      hop.feed = route_hops[i];
      hop.link = segment.link;
      hop.slot = segment.start;
      hop.duration = comm_costs.duration(comm.dep, segment.link);
      plan->hops.push_back(hop);
    }
    transfer.hop_end = static_cast<std::uint32_t>(plan->hops.size());
    plan->transfers.push_back(transfer);
  }

  // Per-link endpoint lists (broadcast delivery walks these per hop).
  plan->link_ep_begin.reserve(plan->links + 1);
  plan->link_ep_begin.push_back(0);
  for (std::uint32_t l = 0; l < plan->links; ++l) {
    for (ProcessorId endpoint :
         arch.link(LinkId{static_cast<LinkId::underlying_type>(l)})
             .endpoints) {
      plan->link_ep.push_back(static_cast<std::uint32_t>(endpoint.index()));
    }
    plan->link_ep_begin.push_back(
        static_cast<std::uint32_t>(plan->link_ep.size()));
  }

  // Watch chains (solution 1 and the hybrid's passive dependencies; the
  // TimeoutTable already excludes actively replicated ones).
  if (schedule.kind() == HeuristicKind::kSolution1 ||
      schedule.kind() == HeuristicKind::kHybrid) {
    for (const TimeoutChain& chain : timeouts.chains()) {
      WatcherRec watcher;
      watcher.dep = chain.dep;
      watcher.receiver = chain.receiver;
      const Dependency& dep = graph.dependency(chain.dep);
      if (const ScheduledOperation* local =
              schedule.replica_on(dep.src, chain.receiver)) {
        watcher.backup_rank = local->rank;
      }
      watcher.e_begin = static_cast<std::uint32_t>(plan->wentries.size());
      for (const TimeoutEntry& entry : chain.entries) {
        plan->wentries.push_back(
            WatchEntry{entry.sender, entry.deadline, entry.rank});
      }
      watcher.e_end = static_cast<std::uint32_t>(plan->wentries.size());
      plan->watchers.push_back(watcher);
    }
  }

  // The wake index.
  const std::uint32_t procs = plan->procs;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> keyed;
  for (std::uint32_t l = 0; l < plan->links; ++l) {
    for (std::uint32_t i = plan->link_ep_begin[l];
         i < plan->link_ep_begin[l + 1]; ++i) {
      keyed.emplace_back(plan->link_ep[i], l);
    }
  }
  fill_rows(procs, keyed, plan->proc_link_begin, plan->proc_link);
  std::vector<std::pair<std::uint32_t, TransferHop>> hop_keys;
  plan->idle_sends.assign(procs, 0);
  for (std::uint32_t t = 0; t < plan->transfers.size(); ++t) {
    const StaticTransfer& transfer = plan->transfers[t];
    ++plan->idle_sends[plan->hops[transfer.hop_begin].feed.index()];
    for (std::uint32_t h = transfer.hop_begin; h < transfer.hop_end; ++h) {
      const std::uint32_t feed =
          static_cast<std::uint32_t>(plan->hops[h].feed.index());
      hop_keys.emplace_back(
          static_cast<std::uint32_t>(transfer.dep.index()) * procs + feed,
          TransferHop{t, h - transfer.hop_begin});
    }
  }
  const std::size_t value_rows = std::size_t{plan->deps} * procs;
  fill_rows(value_rows, hop_keys, plan->value_hop_begin, plan->value_hop);
  keyed.clear();
  for (std::uint32_t w = 0; w < plan->watchers.size(); ++w) {
    const WatcherRec& watcher = plan->watchers[w];
    keyed.emplace_back(
        static_cast<std::uint32_t>(watcher.dep.index()) * procs +
            static_cast<std::uint32_t>(watcher.receiver.index()),
        w);
  }
  fill_rows(value_rows, keyed, plan->value_watch_begin, plan->value_watch);

  for (const Operation& op : graph.operations()) {
    if (op.kind == OperationKind::kExtioOut) plan->extio_out.push_back(op.id);
  }

  plan->horizon = schedule.makespan();
  plan->expected_events =
      plan->ops.size() + plan->hops.size() * 2 + plan->wentries.size() + 8;
  return plan;
}

}  // namespace sim_detail

namespace {

using sim_detail::DynTransfer;
using sim_detail::Event;
using sim_detail::EventKind;
using sim_detail::HopRecord;
using sim_detail::kCancelled;
using sim_detail::kDone;
using sim_detail::kIdle;
using sim_detail::kInFlight;
using sim_detail::kNone;
using sim_detail::LinkRun;
using sim_detail::OpRecord;
using sim_detail::ProcRun;
using sim_detail::SimPlan;
using sim_detail::SimState;
using sim_detail::StaticTransfer;
using sim_detail::TimeGuard;
using sim_detail::TransferHop;
using sim_detail::TransferRun;
using sim_detail::WatcherRec;
using sim_detail::WatcherRun;
using sim_detail::WatchEntry;

/// std heap helper order for a min-heap of time guards.
struct GuardAfter {
  bool operator()(const TimeGuard& a, const TimeGuard& b) const noexcept {
    return a.at > b.at;
  }
};

/// Where a transfer stands: its dependency and destination, and the
/// feeding processor and link of its current hop.
struct HopView {
  DependencyId dep;
  ProcessorId to;
  ProcessorId feed;
  LinkId link;
};

/// Executes one iteration over an externally owned SimState. The engine
/// itself is stateless between calls — Simulator::run drives a fresh state
/// to completion, the Branch API drives a state in stop-and-go slices with
/// faults injected between slices, and both orders produce bit-identical
/// results (event order is a pure function of (time, kind, push order)).
///
/// Reference semantics: after every instant whose events changed
/// something, a rescan re-examines every live watcher (only when the
/// instant holds a delivery, a completion or a deadline), every processor
/// and every live transfer, in index order, until nothing more starts.
/// The engine produces exactly that rescan's traces, summaries and
/// certificates while visiting only what the instant woke. A blocked
/// entity waits on one guard, and every change that can flip that guard
/// wakes it: a value reaching (processor, dependency) wakes the hops it
/// feeds, the watchers of that dependency there and the runtime sends to
/// that processor (SimPlan's wake index); a freed link wakes its waiter
/// chain; a timeout wakes its receiver's watchers blocked on the sender it
/// flags; a completion wakes its processor; a passed slot, watch deadline
/// or silence end releases a time guard. The woken are visited in index order (statics,
/// then runtime transfers in creation order; watchers by index), and an
/// entity the rescan would examine to no effect may be skipped or woken
/// alike.
class Engine {
 public:
  Engine(const Schedule& schedule, const RoutingTable& routing,
         const SimPlan& plan, SimState& s)
      : schedule_(schedule),
        routing_(routing),
        plan_(plan),
        graph_(*schedule.problem().algorithm),
        s_(s) {}

  /// Applies `scenario` to a fresh (or recycled — every table is re-armed
  /// without releasing storage) state.
  void init(const FailureScenario& scenario) {
    const std::size_t procs = plan_.procs;
    s_.prologue_done = false;
    s_.events_dispatched = 0;
    s_.entity_visits = 0;
    s_.executed_until = -kInfinite;
    s_.seq = 0;
    s_.queue.configure(plan_.horizon, plan_.expected_events);
    s_.trace.clear();
    s_.proc.assign(procs, ProcRun{});
    for (std::size_t p = 0; p < procs; ++p) {
      s_.proc[p].idle_sends = plan_.idle_sends[p];
    }
    s_.flags.assign(procs * procs, 0);
    s_.link.assign(plan_.links, LinkRun{});
    s_.has_value.assign(procs * plan_.deps, 0);
    s_.certified.assign(procs * plan_.deps, 0);
    s_.flag_waiters.assign(procs * procs, kNone);
    s_.tr.assign(plan_.transfers.size(), TransferRun{});
    s_.dynamic.clear();
    s_.watch.assign(plan_.watchers.size(), WatcherRun{});
    s_.proc_woken.clear();
    s_.tr_woken.clear();
    s_.w_woken.clear();
    s_.w_deferred.clear();
    s_.drops.clear();
    s_.tr_guards.clear();
    s_.w_guards.clear();
    s_.n_timeouts = 0;
    s_.n_elections = 0;
    s_.n_transfer_starts = 0;
    s_.op_end.assign(plan_.op_count, kInfinite);

    // Failures known since a previous iteration: dead, and flagged by all.
    for (ProcessorId dead : scenario.failed_at_start) {
      s_.proc[dead.index()].alive = 0;
      for (std::size_t p = 0; p < procs; ++p) {
        s_.flags[p * procs + dead.index()] = 1;
      }
    }
    // Detection mistakes carried over: flagged by everyone, yet alive.
    for (ProcessorId suspect : scenario.suspected_at_start) {
      for (std::size_t p = 0; p < procs; ++p) {
        s_.flags[p * procs + suspect.index()] = 1;
      }
      s_.flags[suspect.index() * procs + suspect.index()] = 0;
    }
    // Mid-iteration crashes.
    for (const FailureEvent& failure : scenario.events) {
      push(failure.time, EventKind::kFailure, failure.processor.index());
    }
    // Link failures.
    for (LinkId link : scenario.failed_links_at_start) {
      s_.link[link.index()].alive = 0;
    }
    for (const LinkFailureEvent& failure : scenario.link_events) {
      push(failure.time, EventKind::kLinkFailure, failure.link.index());
    }
    // Fail-silent windows: blocked sends must be retried when each window
    // closes, so schedule a generic wake-up at every window end.
    s_.silent_windows.assign(scenario.silent_windows.begin(),
                             scenario.silent_windows.end());
    s_.silent_first_blocked.assign(s_.silent_windows.size(), kInfinite);
    for (const SilentWindow& window : s_.silent_windows) {
      push(window.to, EventKind::kDeadline, 0);
    }
  }

  void inject(const FailureEvent& failure) {
    FTSCHED_REQUIRE(failure.time > s_.executed_until,
                    "injected fault predates the executed prefix");
    push(failure.time, EventKind::kFailure, failure.processor.index());
  }

  void inject(const LinkFailureEvent& failure) {
    FTSCHED_REQUIRE(failure.time > s_.executed_until,
                    "injected fault predates the executed prefix");
    push(failure.time, EventKind::kLinkFailure, failure.link.index());
  }

  void inject(const SilentWindow& window) {
    FTSCHED_REQUIRE(window.from > s_.executed_until,
                    "injected fault predates the executed prefix");
    FTSCHED_REQUIRE(window.from < window.to,
                    "silent window must have positive length");
    // Mirrors init(): the window only influences is_silent() at instants in
    // [from, to), all after the executed prefix, and the wake at the closing
    // edge dispatches as a no-op kDeadline — so the injection is
    // fork-equivalent to starting with the window in the scenario.
    s_.silent_windows.push_back(window);
    s_.silent_first_blocked.push_back(kInfinite);
    push(window.to, EventKind::kDeadline, 0);
    // The prologue tried every idle send at instant 0, before any value
    // existed, so it started none and changed no idle count. Until the
    // first batch runs the state is still the prologue's, so a window
    // covering 0 injected in between is charged for that attempt now, as
    // it would have been with the window in the scenario. Only the new
    // window: the others hold what their own instants charged them, and a
    // later state (relay hops and runtime backups add idle sends) is not
    // the one instant 0 saw.
    if (s_.prologue_done && s_.executed_until < 0) {
      charge_silence(s_.silent_windows.size() - 1, 0);
    }
  }

  /// Executes every pending instant strictly (epsilon-strict) before `t`.
  void run_until(Time t) {
    ensure_prologue();
    while (!s_.queue.empty() && time_lt(s_.queue.top().time, t)) {
      step_batch();
    }
  }

  void run_all() {
    ensure_prologue();
    while (!s_.queue.empty()) step_batch();
  }

  /// The finished run's digest; `out` is overwritten, reusing its storage.
  void finish(IterationSummary& out) {
    out.events_executed = s_.events_dispatched;
    out.entity_visits = s_.entity_visits;
    out.timeouts = s_.n_timeouts;
    out.elections = s_.n_elections;
    out.transfer_starts = s_.n_transfer_starts;
    out.all_outputs_produced = true;
    Time response = 0;
    for (OperationId op : plan_.extio_out) {
      const Time earliest = s_.op_end[op.index()];
      if (is_infinite(earliest)) {
        out.all_outputs_produced = false;
      } else {
        response = std::max(response, earliest);
      }
    }
    out.response_time = out.all_outputs_produced ? response : kInfinite;
    out.silence_deferral = silence_deferral();
    out.op_completions.assign(s_.op_end.begin(), s_.op_end.end());
    out.detected_failures.clear();
    collect_detected(out.detected_failures);
  }

  /// The digest plus the trace, which moves out of the state.
  [[nodiscard]] IterationResult finish() {
    IterationResult result;
    finish(result);
    result.trace = std::move(s_.trace);
    return result;
  }

  /// Max over windows of (closing edge - first blocked attempt): the tight
  /// allowance the response bound is widened by. 0 when nothing was
  /// deferred; always <= the max window length.
  [[nodiscard]] Time silence_deferral() const {
    Time deferral = 0;
    for (std::size_t i = 0; i < s_.silent_windows.size(); ++i) {
      const Time first = s_.silent_first_blocked[i];
      if (!is_infinite(first)) {
        deferral = std::max(deferral, s_.silent_windows[i].to - first);
      }
    }
    return deferral;
  }

 private:
  /// Start everything startable at time 0 before the first event batch —
  /// deliberately queue-independent, so running it before or after faults
  /// are injected at t >= 0 cannot change the outcome. Nothing has been
  /// examined yet, so every entity is woken.
  void ensure_prologue() {
    if (s_.prologue_done) return;
    s_.prologue_done = true;
    for (std::uint32_t w = 0; w < s_.watch.size(); ++w) wake_watcher(w);
    for (std::uint32_t p = 0; p < plan_.procs; ++p) wake_proc(p);
    for (std::uint32_t t = 0; t < s_.tr.size(); ++t) wake_transfer(t);
    advance(0, /*deadlines=*/true);
  }

  void step_batch() {
    // Drain every event of this instant before re-evaluating the system,
    // so that e.g. an operation completing at t and the link freeing at t
    // are both visible when the arbiter picks the next transfer.
    const Time now = s_.queue.top().time;
    bool changed = false;
    bool deadlines = false;
    while (!s_.queue.empty() && s_.queue.top().time == now) {
      const Event event = s_.queue.top();
      s_.queue.pop();
      ++s_.events_dispatched;
      const bool effective = dispatch(event);
      changed |= effective;
      // A crash or a link death cannot satisfy or unblock a watch chain,
      // so on its own it does not re-examine the chains and does not pass
      // a watch deadline early; see release_guards.
      deadlines |= effective && event.kind != EventKind::kFailure &&
                   event.kind != EventKind::kLinkFailure;
    }
    if (changed) advance(now, deadlines);
    s_.executed_until = now;
  }

  /// True while `proc`'s communication units are omitting sends
  /// (intermittent fail-silent episode, §6.1 item 3); `until` is then the
  /// earliest closing edge among the windows covering `now`.
  bool is_silent(ProcessorId proc, Time now, Time& until) const {
    bool silent = false;
    for (const SilentWindow& window : s_.silent_windows) {
      if (window.processor == proc && time_le(window.from, now) &&
          time_lt(now, window.to)) {
        until = silent ? std::min(until, window.to) : window.to;
        silent = true;
      }
    }
    return silent;
  }

  /// Records on every window covering `now` the first instant it actually
  /// blocked a send attempt — the tight response allowance is window.to
  /// minus that instant, since the window demonstrably deferred nothing
  /// earlier. An attempt is every idle transfer whose live sender is
  /// silent, whatever else blocks it, at every instant that runs the
  /// fixpoint (the rescan tried every idle transfer there): conservative-
  /// early, it can only lengthen the reported deferral, never shorten it
  /// below the true one. Runs before each round's transfer pass, after
  /// the watchers may have created runtime sends.
  void account_silence(Time now) {
    for (std::size_t i = 0; i < s_.silent_windows.size(); ++i) {
      charge_silence(i, now);
    }
  }

  /// account_silence for window `i` alone.
  void charge_silence(std::size_t i, Time now) {
    const SilentWindow& window = s_.silent_windows[i];
    const ProcRun& sender = s_.proc[window.processor.index()];
    if (sender.alive && sender.idle_sends > 0 && time_le(window.from, now) &&
        time_lt(now, window.to) && now < s_.silent_first_blocked[i]) {
      s_.silent_first_blocked[i] = now;
    }
  }

  void push(Time time, EventKind kind, std::size_t index) {
    s_.queue.push(
        Event{time, s_.seq++, static_cast<std::uint32_t>(index), kind});
  }

  void record(const TraceEvent& event) {
    if (!s_.summary) s_.trace.record(event);
  }

  ProcessorId pid(std::size_t index) const {
    return ProcessorId{static_cast<ProcessorId::underlying_type>(index)};
  }

  /// Index of (processor, dependency) in the value tables and value rows.
  std::size_t value_slot(std::size_t p, std::size_t dep) const {
    return dep * plan_.procs + p;
  }

  void collect_detected(std::vector<ProcessorId>& out) const {
    const std::size_t procs = plan_.procs;
    for (std::size_t q = 0; q < procs; ++q) {
      for (std::size_t p = 0; p < procs; ++p) {
        if (s_.proc[p].alive && s_.flags[p * procs + q]) {
          out.push_back(pid(q));
          break;
        }
      }
    }
  }

  HopView hop_view(std::uint32_t t) const {
    const std::uint32_t hop = s_.tr[t].hop;
    const std::size_t nstatic = plan_.transfers.size();
    if (t < nstatic) {
      const StaticTransfer& transfer = plan_.transfers[t];
      const HopRecord& h = plan_.hops[transfer.hop_begin + hop];
      return {transfer.dep, transfer.to, h.feed, h.link};
    }
    const DynTransfer& transfer = s_.dynamic[t - nstatic];
    return {transfer.dep, transfer.to, transfer.route->hops[hop],
            transfer.route->links[hop]};
  }

  // --- Waking -------------------------------------------------------------

  void wake_proc(std::uint32_t p) {
    ProcRun& proc = s_.proc[p];
    if (!proc.alive || proc.queued) return;
    proc.queued = 1;
    s_.proc_woken.push_back(p);
  }

  void wake_transfer(std::uint32_t t) {
    TransferRun& run = s_.tr[t];
    if (run.status != kIdle || run.queued) return;
    run.queued = 1;
    s_.tr_woken.push_back(t);
  }

  void wake_watcher(std::uint32_t w) {
    WatcherRun& run = s_.watch[w];
    if (run.retired || run.queued) return;
    run.queued = 1;
    s_.w_woken.push_back(w);
  }

  /// Everything a blocked link kept waiting.
  void wake_waiters(LinkRun& link) {
    std::uint32_t t = link.waiters;
    link.waiters = kNone;
    while (t != kNone) {
      ++s_.entity_visits;
      TransferRun& run = s_.tr[t];
      const std::uint32_t next = run.next_waiter;
      run.waiting = 0;
      run.next_waiter = kNone;
      wake_transfer(t);
      t = next;
    }
  }

  /// Runtime sends to `p` carrying `dep`: cancel-at-start drops them once
  /// `p` has (or has certified) the value.
  void wake_sends_to(std::size_t p, std::size_t dep) {
    const std::uint32_t nstatic =
        static_cast<std::uint32_t>(plan_.transfers.size());
    std::uint32_t* link = &s_.proc[p].sends_to;
    while (*link != kNone) {
      ++s_.entity_visits;
      DynTransfer& transfer = s_.dynamic[*link];
      const char status = s_.tr[nstatic + *link].status;
      if (status == kDone || status == kCancelled) {
        *link = transfer.next_to;
        continue;
      }
      if (transfer.dep.index() == dep) wake_transfer(nstatic + *link);
      link = &transfer.next_to;
    }
  }

  /// `dep`'s value arrives on live processor `p`: its next operation may
  /// be ready, the hops it feeds may start, its watchers of `dep` may be
  /// satisfied or able to send, and runtime sends to it may be moot.
  void set_value(std::size_t p, std::size_t dep) {
    const std::size_t key = value_slot(p, dep);
    if (s_.has_value[key]) return;
    s_.has_value[key] = 1;
    wake_proc(static_cast<std::uint32_t>(p));
    for (std::uint32_t i = plan_.value_hop_begin[key];
         i < plan_.value_hop_begin[key + 1]; ++i) {
      const TransferHop& wait = plan_.value_hop[i];
      ++s_.entity_visits;
      if (s_.tr[wait.transfer].hop == wait.hop) wake_transfer(wait.transfer);
    }
    for (std::uint32_t i = plan_.value_watch_begin[key];
         i < plan_.value_watch_begin[key + 1]; ++i) {
      ++s_.entity_visits;
      wake_watcher(plan_.value_watch[i]);
    }
    wake_sends_to(p, dep);
  }

  static void guard(std::vector<TimeGuard>& heap, Time at,
                    std::uint32_t entity) {
    heap.push_back({at, entity});
    std::push_heap(heap.begin(), heap.end(), GuardAfter{});
  }

  /// Wakes every entity whose time guard `now` passes. Each release test
  /// is the exact negation of the test that blocked the entity, so an
  /// instant up to kTimeEpsilon before a slot, silence end or watch
  /// deadline passes it early whenever the rescan would re-examine the
  /// entity there: any changing instant for transfers, only `deadlines`
  /// instants for watchers (see step_batch). A stale guard (the entity
  /// moved on) wakes it to no effect.
  void release_guards(Time now, bool deadlines) {
    std::vector<TimeGuard>& tr = s_.tr_guards;
    while (!tr.empty() && !time_lt(now, tr.front().at)) {
      const std::uint32_t t = tr.front().entity;
      ++s_.entity_visits;
      std::pop_heap(tr.begin(), tr.end(), GuardAfter{});
      tr.pop_back();
      wake_transfer(t);
    }
    if (!deadlines) return;
    std::vector<TimeGuard>& w = s_.w_guards;
    while (!w.empty() && time_ge(now, w.front().at)) {
      const std::uint32_t watcher = w.front().entity;
      ++s_.entity_visits;
      std::pop_heap(w.begin(), w.end(), GuardAfter{});
      w.pop_back();
      wake_watcher(watcher);
    }
  }

  // --- Events -------------------------------------------------------------

  /// Applies one event; false when it was stale and changed nothing.
  [[nodiscard]] bool dispatch(const Event& event) {
    switch (event.kind) {
      case EventKind::kFailure:
        return on_failure(event.time, event.index);
      case EventKind::kOpDone:
        return on_op_done(event.time, event.index);
      case EventKind::kHopDone:
        return on_hop_done(event.time, event.index);
      case EventKind::kLinkFailure:
        return on_link_failure(event.time, event.index);
      case EventKind::kDeadline:
        // A slot, a watch deadline or a silent window's end: the guard
        // heaps name who waits on it (release_guards). Stale or not, it
        // counts as a change, so the instant runs the fixpoint.
        return true;
    }
    return false;
  }

  bool on_failure(Time now, std::size_t p) {
    ProcRun& proc = s_.proc[p];
    if (!proc.alive) return false;
    proc.alive = 0;
    record({TraceEvent::Kind::kFailure, now, pid(p), {}, {}, -1, {}, {}});
    // In-flight transfers fed by the dead processor are lost; the medium
    // frees (a partial frame is discarded by the receivers). A link
    // carries at most one frame, so they sit on the processor's own links;
    // the drops are recorded in transfer order.
    s_.drops.clear();
    for (std::uint32_t i = plan_.proc_link_begin[p];
         i < plan_.proc_link_begin[p + 1]; ++i) {
      const std::uint32_t t = s_.link[plan_.proc_link[i]].frame;
      ++s_.entity_visits;
      if (t != kNone && hop_view(t).feed.index() == p) s_.drops.push_back(t);
    }
    std::sort(s_.drops.begin(), s_.drops.end());
    for (const std::uint32_t t : s_.drops) {
      const HopView v = hop_view(t);
      s_.tr[t].status = kCancelled;
      LinkRun& link = s_.link[v.link.index()];
      link.frame = kNone;
      wake_waiters(link);
      record({TraceEvent::Kind::kDrop, now, pid(p), v.to, {}, -1, v.dep,
              v.link});
    }
    return true;
  }

  /// A communication link fails permanently: the frame in flight is lost
  /// and nothing crosses the medium again (the paper's §8 future work; a
  /// processor failure already silences that processor's units, this models
  /// the medium itself dying).
  bool on_link_failure(Time now, std::size_t l) {
    LinkRun& link = s_.link[l];
    if (!link.alive) return false;
    link.alive = 0;
    const LinkId link_id{static_cast<LinkId::underlying_type>(l)};
    record({TraceEvent::Kind::kFailure, now, {}, {}, {}, -1, {}, link_id});
    ++s_.entity_visits;
    if (const std::uint32_t t = link.frame; t != kNone) {
      link.frame = kNone;
      s_.tr[t].status = kCancelled;
      const HopView v = hop_view(t);
      record({TraceEvent::Kind::kDrop, now, v.feed, v.to, {}, -1, v.dep,
              link_id});
    }
    return true;
  }

  bool on_op_done(Time now, std::size_t p) {
    ProcRun& proc = s_.proc[p];
    if (!proc.alive) return false;  // the operation died with its processor
    const OpRecord& op = plan_.ops[plan_.op_begin[p] + proc.next];
    if (Time& end = s_.op_end[op.op.index()]; now < end) end = now;
    if (!s_.summary) {
      record({TraceEvent::Kind::kOpEnd, now, pid(p), {}, op.op, op.rank,
              {}, {}});
    }
    for (std::uint32_t i = op.out_begin; i < op.out_end; ++i) {
      set_value(p, plan_.op_out[i]);
    }
    proc.busy = 0;
    ++proc.next;
    wake_proc(static_cast<std::uint32_t>(p));
    return true;
  }

  /// Shared tail of a completed hop: broadcast delivery to every live
  /// endpoint of the link. Every live processor attached to the medium
  /// observes the value: a bus delivers it to all endpoints (broadcast), a
  /// point-to-point link to the far endpoint. Observing a processor
  /// transmit is also proof of life: healthy processors keep scanning the
  /// medium and clear a fail flag that turns out to be a detection mistake
  /// or an intermittent fail-silent episode (§6.1 item 3). Clearing a flag
  /// unblocks nothing (a watcher skips flagged senders, never waits on
  /// one), so it wakes nobody.
  void deliver(DependencyId dep, LinkId link, ProcessorId feeding,
               bool certifies) {
    const std::size_t procs = plan_.procs;
    const std::uint32_t l = static_cast<std::uint32_t>(link.index());
    for (std::uint32_t i = plan_.link_ep_begin[l];
         i < plan_.link_ep_begin[l + 1]; ++i) {
      const std::uint32_t endpoint = plan_.link_ep[i];
      if (!s_.proc[endpoint].alive) continue;
      set_value(endpoint, dep.index());
      if (certifies) {
        char& seen = s_.certified[value_slot(endpoint, dep.index())];
        if (!seen) {
          seen = 1;
          wake_sends_to(endpoint, dep.index());
        }
      }
      s_.flags[endpoint * procs + feeding.index()] = 0;
    }
  }

  bool on_hop_done(Time now, std::size_t t) {
    TransferRun& run = s_.tr[t];
    if (run.status != kInFlight) return false;
    const HopView v = hop_view(static_cast<std::uint32_t>(t));
    const std::size_t nstatic = plan_.transfers.size();
    LinkRun& link = s_.link[v.link.index()];
    link.frame = kNone;
    wake_waiters(link);
    if (!s_.summary) {
      record({TraceEvent::Kind::kTransferEnd, now, v.feed, v.to, {}, -1,
              v.dep, v.link});
    }
    std::size_t hops;
    if (t < nstatic) {
      const StaticTransfer& transfer = plan_.transfers[t];
      deliver(v.dep, v.link, v.feed, transfer.certifies);
      hops = transfer.hop_end - transfer.hop_begin;
    } else {
      deliver(v.dep, v.link, v.feed, /*certifies=*/true);
      hops = s_.dynamic[t - nstatic].route->links.size();
    }
    ++run.hop;
    if (run.hop == hops) {
      run.status = kDone;
    } else {
      run.status = kIdle;
      ++s_.proc[hop_view(static_cast<std::uint32_t>(t)).feed.index()]
            .idle_sends;
      wake_transfer(static_cast<std::uint32_t>(t));
    }
    return true;
  }

  // --- The fixpoint -------------------------------------------------------

  /// Start everything that can start at `now`: the woken watchers, then
  /// the woken processors, then the woken transfers, each in index order.
  /// A timeout can unblock a lower-indexed watcher of the same receiver,
  /// which the next round visits, as the rescan's next round did; watcher
  /// elections create runtime transfers, which the same round's transfer
  /// pass visits. Nothing inside the fixpoint produces a value, so only
  /// the first round has processors to visit.
  void advance(Time now, bool deadlines) {
    release_guards(now, deadlines);
    for (;;) {
      drain_watchers(now);
      start_operations(now);
      if (!s_.silent_windows.empty()) account_silence(now);
      drain_transfers(now);
      if (s_.w_deferred.empty()) return;
      s_.w_woken.swap(s_.w_deferred);
    }
  }

  void start_operations(Time now) {
    std::sort(s_.proc_woken.begin(), s_.proc_woken.end());
    for (const std::uint32_t p : s_.proc_woken) {
      ProcRun& proc = s_.proc[p];
      proc.queued = 0;
      ++s_.entity_visits;
      if (!proc.alive || proc.busy) continue;
      const std::uint32_t slot = plan_.op_begin[p] + proc.next;
      if (slot >= plan_.op_begin[p + 1]) continue;
      const OpRecord& op = plan_.ops[slot];
      bool ready = true;
      for (std::uint32_t i = op.in_begin; i < op.in_end; ++i) {
        if (!s_.has_value[value_slot(p, plan_.op_in[i])]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      proc.busy = 1;
      if (!s_.summary) {
        record({TraceEvent::Kind::kOpStart, now, pid(p), {}, op.op, op.rank,
                {}, {}});
      }
      push(now + op.duration, EventKind::kOpDone, p);
    }
    s_.proc_woken.clear();
  }

  void drain_transfers(Time now) {
    std::sort(s_.tr_woken.begin(), s_.tr_woken.end());
    // Visiting a transfer wakes nothing, so the list is stable here.
    for (const std::uint32_t t : s_.tr_woken) {
      s_.tr[t].queued = 0;
      ++s_.entity_visits;
      if (s_.tr[t].status == kIdle) transfer_step(now, t);
    }
    s_.tr_woken.clear();
  }

  /// Tries to start the idle transfer `t`, or parks it on the guard that
  /// blocks it: a dead sender blocks for good; silence until the window
  /// closes (time guard); a missing value until it arrives (value index;
  /// only a first static hop can miss it — a relay holds the value its
  /// own previous hop delivered, and a backup sends only what it has); a
  /// future slot until the slot (time guard); a busy link until it frees
  /// (its waiter chain); a dead link for good.
  void transfer_step(Time now, std::uint32_t t) {
    TransferRun& run = s_.tr[t];
    const HopView v = hop_view(t);
    ProcRun& sender = s_.proc[v.feed.index()];
    if (!sender.alive) return;
    if (Time until = 0; !s_.silent_windows.empty() &&
                        is_silent(v.feed, now, until)) {
      guard(s_.tr_guards, until, t);  // retried at the window end
      return;
    }
    if (!s_.has_value[value_slot(v.feed.index(), v.dep.index())]) return;
    const std::size_t nstatic = plan_.transfers.size();
    Time duration;
    if (t < nstatic) {
      const HopRecord& h =
          plan_.hops[plan_.transfers[t].hop_begin + run.hop];
      // Static transfers are time-triggered: hop i never starts before its
      // scheduled slot (§4.4).
      if (time_lt(now, h.slot)) {
        if (run.slot_hop != run.hop) {
          run.slot_hop = run.hop;
          push(h.slot, EventKind::kDeadline, t);
          guard(s_.tr_guards, h.slot, t);
        }
        return;
      }
      duration = h.duration;
    } else {
      // Runtime-created transfers are pointless once the destination got
      // or observed the value through another path.
      const DynTransfer& transfer = s_.dynamic[t - nstatic];
      const std::vector<char>& dest_seen =
          transfer.liveness ? s_.certified : s_.has_value;
      if (dest_seen[value_slot(v.to.index(), v.dep.index())]) {
        run.status = kCancelled;
        --sender.idle_sends;
        record({TraceEvent::Kind::kDrop, now, v.feed, v.to, {}, -1, v.dep,
                {}});
        return;
      }
      duration = schedule_.problem().comm->duration(v.dep, v.link);
    }
    LinkRun& link = s_.link[v.link.index()];
    if (!link.alive) return;
    if (link.frame != kNone) {
      if (!run.waiting) {
        run.waiting = 1;
        run.next_waiter = link.waiters;
        link.waiters = t;
      }
      return;
    }
    link.frame = t;
    run.status = kInFlight;
    --sender.idle_sends;
    ++s_.n_transfer_starts;
    if (!s_.summary) {
      record({TraceEvent::Kind::kTransferStart, now, v.feed, v.to, {}, -1,
              v.dep, v.link});
    }
    push(now + duration, EventKind::kHopDone, t);
  }

  /// One watcher pass: the woken watchers in index order, as a min-heap so
  /// a timeout can add a higher-indexed watcher to this very pass (an
  /// in-order rescan would still reach it) and defer a lower-indexed one
  /// to the next round.
  void drain_watchers(Time now) {
    std::vector<std::uint32_t>& heap = s_.w_woken;
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const std::uint32_t w = heap.back();
      heap.pop_back();
      s_.watch[w].queued = 0;
      ++s_.entity_visits;
      if (watcher_step(now, w)) s_.watch[w].retired = 1;
    }
  }

  /// Receiver `recv` just flagged `sender` (watcher `current` timed out):
  /// wakes the other watchers of that receiver blocked on it. Each skips
  /// the flagged entry when visited, so none of them stays on the chain.
  void wake_flagged(std::uint32_t current, std::size_t recv,
                    ProcessorId sender) {
    std::uint32_t& head = s_.flag_waiters[recv * plan_.procs + sender.index()];
    std::uint32_t w = head;
    head = kNone;
    while (w != kNone) {
      ++s_.entity_visits;
      WatcherRun& run = s_.watch[w];
      const std::uint32_t next = run.flag_next;
      run.flag_next = kNone;
      if (w == current || run.retired || run.queued) {
        w = next;
        continue;
      }
      run.queued = 1;
      if (w > current) {
        s_.w_woken.push_back(w);
        std::push_heap(s_.w_woken.begin(), s_.w_woken.end(),
                       std::greater<>{});
      } else {
        s_.w_deferred.push_back(w);
      }
      w = next;
    }
  }

  /// Advances one live watcher; true when it retired: receiver dead,
  /// dependency satisfied, or chain exhausted with nothing left to send.
  /// All three are monotone (processors never resurrect, has_value and
  /// certified never clear), so a retired watcher never acts again and is
  /// never woken. A satisfied watcher retires silently, so satisfaction
  /// needs no wake: the next time its guard wakes it, it retires then.
  bool watcher_step(Time now, std::uint32_t w) {
    const std::size_t procs = plan_.procs;
    const WatcherRec& watcher = plan_.watchers[w];
    WatcherRun& run = s_.watch[w];
    const std::size_t recv = watcher.receiver.index();
    if (!s_.proc[recv].alive) return true;

    const bool satisfied =
        watcher.backup_rank >= 0
            ? s_.certified[value_slot(recv, watcher.dep.index())] != 0
            : s_.has_value[value_slot(recv, watcher.dep.index())] != 0;
    if (satisfied) return true;

    std::uint32_t pos = run.pos;
    const std::uint32_t entries = watcher.e_end - watcher.e_begin;
    while (pos < entries) {
      const WatchEntry& entry = plan_.wentries[watcher.e_begin + pos];
      if (s_.flags[recv * procs + entry.sender.index()]) {
        // Already known faulty (Figure 12: skip without waiting).
        ++pos;
        continue;
      }
      if (time_ge(now, entry.deadline)) {
        s_.flags[recv * procs + entry.sender.index()] = 1;
        ++s_.n_timeouts;
        if (!s_.summary) {
          record({TraceEvent::Kind::kTimeout, now, watcher.receiver,
                  entry.sender, {}, entry.rank, watcher.dep, {}});
        }
        wake_flagged(w, recv, entry.sender);
        ++pos;
        continue;
      }
      if (run.sched != pos) {
        run.sched = pos;
        push(entry.deadline, EventKind::kDeadline, w);
        guard(s_.w_guards, entry.deadline, w);
        std::uint32_t& head =
            s_.flag_waiters[recv * procs + entry.sender.index()];
        run.flag_next = head;
        head = w;
      }
      break;
    }
    run.pos = pos;

    // Watch chain exhausted: a backup replica takes over the send
    // (Figure 12's final `if m = i then send`); once it has computed the
    // value itself, it transmits to everyone still waiting — the value
    // index wakes it when that happens.
    if (pos == entries && watcher.backup_rank >= 0 && !run.sent) {
      if (!run.elected) {
        run.elected = 1;
        ++s_.n_elections;
        if (!s_.summary) {
          record({TraceEvent::Kind::kElection, now, watcher.receiver, {},
                  {}, watcher.backup_rank, watcher.dep, {}});
        }
      }
      if (s_.has_value[value_slot(recv, watcher.dep.index())]) {
        run.sent = 1;
        create_backup_sends(watcher);
      }
    }
    // Exhausted chain with nothing left to send: the pure-consumer
    // watcher has flagged every sender, the backup has transmitted.
    return pos == entries && (watcher.backup_rank < 0 || run.sent);
  }

  /// The elected backup sends the value to every consumer processor that
  /// still needs it and a liveness notification to every later backup
  /// (§6.1: "send the result to the units of successors and remainder
  /// backup processors").
  void create_backup_sends(const WatcherRec& watcher) {
    const Dependency& dep = graph_.dependency(watcher.dep);

    // Figure 12 sends unconditionally: a fail flag can be a detection
    // mistake (late message under contention), so filtering destinations by
    // flags could starve a healthy processor. A transfer to a dead
    // processor merely wastes a slot; cancel-at-start already suppresses
    // transfers whose destination got the value another way.
    auto enqueue = [&](ProcessorId to, bool liveness) {
      if (to == watcher.receiver) return;
      const std::uint32_t d = static_cast<std::uint32_t>(s_.dynamic.size());
      DynTransfer transfer;
      transfer.dep = watcher.dep;
      transfer.to = to;
      transfer.route = &routing_.route(watcher.receiver, to);
      transfer.liveness = liveness;
      transfer.next_to = s_.proc[to.index()].sends_to;
      s_.proc[to.index()].sends_to = d;
      s_.dynamic.push_back(transfer);
      // Its index puts it after every static transfer and every earlier
      // runtime one.
      const std::uint32_t t = static_cast<std::uint32_t>(s_.tr.size());
      s_.tr.push_back(TransferRun{});
      ++s_.proc[watcher.receiver.index()].idle_sends;
      wake_transfer(t);
    };

    for (const ScheduledOperation* consumer :
         schedule_.replicas_view(dep.dst)) {
      if (schedule_.replica_on(dep.src, consumer->processor) != nullptr) {
        continue;  // computes the producer locally
      }
      enqueue(consumer->processor, /*liveness=*/false);
    }
    for (const ScheduledOperation* later : schedule_.replicas_view(dep.src)) {
      if (later->rank <= watcher.backup_rank) continue;
      enqueue(later->processor, /*liveness=*/true);
    }
  }

  const Schedule& schedule_;
  const RoutingTable& routing_;
  const SimPlan& plan_;
  const AlgorithmGraph& graph_;
  SimState& s_;
};

}  // namespace

Simulator::Branch::Branch() = default;
Simulator::Branch::Branch(std::unique_ptr<sim_detail::SimState> state)
    : state_(std::move(state)) {}
Simulator::Branch::Branch(Branch&&) noexcept = default;
Simulator::Branch& Simulator::Branch::operator=(Branch&&) noexcept = default;
Simulator::Branch::~Branch() = default;

void Simulator::Branch::copy_to(Branch& into, bool trace) const {
  if (!into.state_) into.state_ = std::make_unique<sim_detail::SimState>();
  sim_detail::SimState& copy = *into.state_;
  static_cast<sim_detail::SimCore&>(copy) = *state_;
  if (trace) copy.trace = state_->trace;
  copy.summary = state_->summary || !trace;
  if (copy.summary) copy.trace.clear();
  // Fork-local accounting: the copy inherits the prefix's behaviour but
  // not its cost — events it dispatches from here on are its own.
  copy.events_dispatched = 0;
  copy.entity_visits = 0;
}

Simulator::Branch Simulator::Branch::fork() const {
  Branch copy;
  copy_to(copy);
  return copy;
}

const Trace& Simulator::Branch::trace() const { return state_->trace; }

std::size_t Simulator::Branch::executed_events() const {
  return state_->events_dispatched;
}

Simulator::Simulator(const Schedule& schedule)
    : schedule_(&schedule),
      routing_(*schedule.problem().architecture),
      timeouts_(schedule, routing_),
      plan_(sim_detail::build_plan(schedule, timeouts_)) {}

Simulator::~Simulator() = default;

IterationResult Simulator::run(const FailureScenario& scenario) const {
  FTSCHED_SPAN("sim.run");
  sim_detail::SimState state;
  Engine engine(*schedule_, routing_, *plan_, state);
  engine.init(scenario);
  engine.run_all();
  return engine.finish();
}

void Simulator::run_summary(const FailureScenario& scenario, Branch& branch,
                            IterationSummary& out) const {
  FTSCHED_SPAN("sim.run");
  if (!branch.state_) branch.state_ = std::make_unique<sim_detail::SimState>();
  sim_detail::SimState& state = *branch.state_;
  state.summary = true;
  Engine engine(*schedule_, routing_, *plan_, state);
  engine.init(scenario);
  engine.run_all();
  engine.finish(out);
}

Simulator::Branch Simulator::begin(const FailureScenario& scenario) const {
  auto state = std::make_unique<sim_detail::SimState>();
  Engine(*schedule_, routing_, *plan_, *state).init(scenario);
  return Branch(std::move(state));
}

void Simulator::advance_until(Branch& branch, Time t) const {
  Engine(*schedule_, routing_, *plan_, *branch.state_).run_until(t);
}

void Simulator::inject(Branch& branch, const FailureEvent& failure) const {
  Engine(*schedule_, routing_, *plan_, *branch.state_).inject(failure);
}

void Simulator::inject(Branch& branch,
                       const LinkFailureEvent& failure) const {
  Engine(*schedule_, routing_, *plan_, *branch.state_).inject(failure);
}

void Simulator::inject(Branch& branch, const SilentWindow& window) const {
  Engine(*schedule_, routing_, *plan_, *branch.state_).inject(window);
}

IterationResult Simulator::finish(Branch branch) const {
  FTSCHED_SPAN("sim.finish");
  Engine engine(*schedule_, routing_, *plan_, *branch.state_);
  engine.run_all();
  return engine.finish();
}

void Simulator::finish(Branch& branch, IterationSummary& out) const {
  FTSCHED_SPAN("sim.finish");
  Engine engine(*schedule_, routing_, *plan_, *branch.state_);
  engine.run_all();
  engine.finish(out);
}

}  // namespace ftsched
