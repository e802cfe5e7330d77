#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "core/error.hpp"
#include "graph/algorithm_graph.hpp"
#include "obs/span.hpp"

namespace ftsched {

namespace sim_detail {

inline constexpr std::uint32_t kNoWake = static_cast<std::uint32_t>(-1);

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
/// enough to keep its route by value; run state lives in the same flat
/// tr_* arrays as the static transfers, at indices past them.
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

/// Everything about a run that does not depend on the failure scenario,
/// derived from the schedule exactly once per Simulator and flattened into
/// contiguous arrays (CSR layout for per-processor programs, per-transfer
/// hops, per-link endpoints and per-watcher chains) so the inner loops walk
/// cache lines, not pointer graphs. A campaign runs tens of thousands of
/// scenarios against one schedule; runs point at the plan (read-only during
/// execution) and keep only flat POD state.
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

  std::vector<OperationId> extio_out;  // response-defining outputs

  Time horizon = 0;                  // schedule makespan (calendar sizing)
  std::size_t expected_events = 0;   // calendar-vs-heap auto selection
};

/// The complete per-run state of one simulated iteration, separated from
/// the engine so a paused run can be snapshotted (Simulator::Branch) and
/// forked per failure branch, and so a worker can reuse one state as an
/// arena across a whole chunk of scenarios (Simulator::Scratch — init()
/// resets every table without releasing storage). Hot fields are split
/// into parallel struct-of-arrays byte/index tables sized for cache lines;
/// copying is a handful of flat vector copies (the trace prefix being the
/// largest), never a re-simulation and never a per-transfer route copy.
struct SimState {
  bool prologue_done = false;
  /// Summary mode: record() skips the Trace and feeds the digest
  /// accumulators only (run_summary); trace mode keeps both in sync.
  bool summary = false;
  /// Events dispatched by THIS state since it was begun or forked (fork
  /// resets the copy's counter): the marginal simulation work of a branch,
  /// excluding the shared prefix it inherited.
  std::size_t events_dispatched = 0;
  /// Instant of the last fully executed event batch; injected faults must
  /// lie strictly after it.
  Time executed_until = -kInfinite;
  std::uint32_t seq = 0;
  EventQueue queue;
  Trace trace;

  // Processors (SoA).
  std::vector<char> proc_alive;
  std::vector<char> proc_busy;
  std::vector<char> proc_abort;  // the running operation died with the proc
  std::vector<std::uint32_t> proc_next;
  std::vector<char> flags;  // [p * procs + q]: p believes q failed

  // Links (SoA).
  std::vector<char> link_alive;
  std::vector<char> link_busy;

  // Transfers (SoA): plan transfers [0, plan.transfers.size()) followed by
  // dynamic transfers; templates of the latter live in `dynamic`.
  std::vector<std::uint32_t> tr_hop;
  std::vector<std::uint32_t> tr_wake;
  std::vector<char> tr_status;  // 0 idle, 1 in flight, 2 done, 3 cancelled
  std::vector<DynTransfer> dynamic;
  /// Intrusive singly linked list of non-terminal transfers in index order
  /// (statics then dynamics in creation order — the exact order the old
  /// full scan visited them, so the trace is unchanged). start_transfers
  /// unlinks a transfer lazily once it observes a terminal status
  /// (done/cancelled — terminal states never revert); new dynamic
  /// transfers append at the tail.
  std::uint32_t tr_head = kNoWake;
  std::uint32_t tr_tail = kNoWake;
  std::vector<std::uint32_t> tr_next;

  // Watchers (SoA).
  std::vector<std::uint32_t> w_pos;
  std::vector<std::uint32_t> w_sched;
  std::vector<char> w_elected;
  std::vector<char> w_sent;
  /// Intrusive singly linked list of live watchers in index order:
  /// w_head -> w_next[...] -> kNoWake. A watcher is unlinked permanently
  /// when it retires (receiver dead, dependency satisfied, or chain
  /// exhausted with nothing left to send) — all monotone conditions
  /// (processors never resurrect, has_value/certified never clear), so a
  /// retired watcher can never make progress again and the fixpoint scans
  /// never touch it. Retirement happens only inside progress_watchers'
  /// scan, which walks in index order, so unlinking preserves the scan
  /// order exactly.
  std::uint32_t w_head = kNoWake;
  std::vector<std::uint32_t> w_next;

  std::vector<SilentWindow> silent_windows;
  /// Parallel to silent_windows: the earliest instant window i actually
  /// blocked a send attempt, kInfinite while it never deferred anything.
  /// Drives the tight per-window response allowance (window.to - first
  /// blocked instant, instead of the window's full length) — see
  /// IterationResult::silence_deferral.
  std::vector<Time> silent_first_blocked;
  std::uint32_t deps = 0;       // stride of the [proc][dep] tables below
  std::vector<char> has_value;  // [proc * deps + dep]
  std::vector<char> certified;  // [proc * deps + dep]

  // Digest accumulators, maintained in both modes (finish() derives the
  // response from op_end instead of re-scanning the trace).
  std::size_t n_timeouts = 0;
  std::size_t n_elections = 0;
  std::size_t n_transfer_starts = 0;
  std::vector<Time> op_end;  // [op] earliest kOpEnd instant, kInfinite if none
};

inline constexpr char kIdle = 0;
inline constexpr char kInFlight = 1;
inline constexpr char kDone = 2;
inline constexpr char kCancelled = 3;

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
using sim_detail::kNoWake;
using sim_detail::OpRecord;
using sim_detail::SimPlan;
using sim_detail::SimState;
using sim_detail::StaticTransfer;
using sim_detail::WatcherRec;
using sim_detail::WatchEntry;

/// Which advance() phases a dispatched event can possibly enable. Phases
/// not in the batch's mask provably cannot start anything (and therefore
/// cannot record anything): between batches the system sits at a fixpoint,
/// so only a state change an event actually performs can unblock a start.
/// Crossing a watcher deadline or a transfer slot always comes with its own
/// kDeadline event (the scans schedule one whenever they block on a future
/// instant), so time passing alone is covered by kDeadline's mask.
constexpr unsigned kDirtyWatchers = 1;
constexpr unsigned kDirtyOps = 2;
constexpr unsigned kDirtyTransfers = 4;

/// Executes one iteration over an externally owned SimState. The engine
/// itself is stateless between calls — Simulator::run drives a fresh state
/// to completion, the Branch API drives a state in stop-and-go slices with
/// faults injected between slices, and both orders produce bit-identical
/// results (event order is a pure function of (time, kind, push order)).
class Engine {
 public:
  Engine(const Schedule& schedule, const RoutingTable& routing,
         const SimPlan& plan, EventSchedulerKind scheduler, SimState& s)
      : schedule_(schedule),
        routing_(routing),
        plan_(plan),
        scheduler_(scheduler),
        graph_(*schedule.problem().algorithm),
        s_(s) {}

  /// Applies `scenario` to a fresh (or recycled — every table is re-armed
  /// without releasing storage) state.
  void init(const FailureScenario& scenario) {
    const std::size_t procs = plan_.procs;
    s_.prologue_done = false;
    s_.events_dispatched = 0;
    s_.executed_until = -kInfinite;
    s_.seq = 0;
    s_.queue.configure(scheduler_, plan_.horizon, plan_.expected_events);
    s_.trace.clear();
    s_.proc_alive.assign(procs, 1);
    s_.proc_busy.assign(procs, 0);
    s_.proc_abort.assign(procs, 0);
    s_.proc_next.assign(procs, 0);
    s_.flags.assign(procs * procs, 0);
    s_.link_alive.assign(plan_.links, 1);
    s_.link_busy.assign(plan_.links, 0);
    s_.deps = plan_.deps;
    s_.has_value.assign(procs * plan_.deps, 0);
    s_.certified.assign(procs * plan_.deps, 0);
    s_.tr_hop.assign(plan_.transfers.size(), 0);
    s_.tr_wake.assign(plan_.transfers.size(), kNoWake);
    s_.tr_status.assign(plan_.transfers.size(), kIdle);
    s_.dynamic.clear();
    const std::uint32_t ntransfers =
        static_cast<std::uint32_t>(plan_.transfers.size());
    s_.tr_next.resize(ntransfers);
    for (std::uint32_t t = 0; t < ntransfers; ++t) {
      s_.tr_next[t] = t + 1 < ntransfers ? t + 1 : kNoWake;
    }
    s_.tr_head = ntransfers > 0 ? 0 : kNoWake;
    s_.tr_tail = ntransfers > 0 ? ntransfers - 1 : kNoWake;
    s_.w_pos.assign(plan_.watchers.size(), 0);
    s_.w_sched.assign(plan_.watchers.size(), kNoWake);
    s_.w_elected.assign(plan_.watchers.size(), 0);
    s_.w_sent.assign(plan_.watchers.size(), 0);
    const std::uint32_t nwatch =
        static_cast<std::uint32_t>(plan_.watchers.size());
    s_.w_next.resize(nwatch);
    for (std::uint32_t w = 0; w < nwatch; ++w) {
      s_.w_next[w] = w + 1 < nwatch ? w + 1 : kNoWake;
    }
    s_.w_head = nwatch > 0 ? 0 : kNoWake;
    s_.n_timeouts = 0;
    s_.n_elections = 0;
    s_.n_transfer_starts = 0;
    s_.op_end.assign(plan_.op_count, kInfinite);

    // Failures known since a previous iteration: dead, and flagged by all.
    for (ProcessorId dead : scenario.failed_at_start) {
      s_.proc_alive[dead.index()] = 0;
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
      s_.link_alive[link.index()] = 0;
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

  [[nodiscard]] IterationResult finish() {
    IterationResult result;
    result.events_executed = s_.events_dispatched;
    result.all_outputs_produced = true;
    Time response = 0;
    for (OperationId op : plan_.extio_out) {
      const Time earliest = s_.op_end[op.index()];
      if (is_infinite(earliest)) {
        result.all_outputs_produced = false;
      } else {
        response = std::max(response, earliest);
      }
    }
    result.response_time =
        result.all_outputs_produced ? response : kInfinite;
    result.silence_deferral = silence_deferral();
    result.op_completions = s_.op_end;
    collect_detected(result.detected_failures);
    result.trace = std::move(s_.trace);
    return result;
  }

  /// Trace-free digest of the finished run; `out` is overwritten.
  void finish_summary(IterationSummary& out) {
    out.events_executed = s_.events_dispatched;
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
  /// are injected at t >= 0 cannot change the outcome.
  void ensure_prologue() {
    if (s_.prologue_done) return;
    s_.prologue_done = true;
    advance(0, kDirtyWatchers | kDirtyOps | kDirtyTransfers);
  }

  void step_batch() {
    // Drain every event of this instant before re-evaluating the system,
    // so that e.g. an operation completing at t and the link freeing at t
    // are both visible when the arbiter picks the next transfer.
    const Time now = s_.queue.top().time;
    unsigned dirty = 0;
    while (!s_.queue.empty() && s_.queue.top().time == now) {
      const Event event = s_.queue.top();
      s_.queue.pop();
      ++s_.events_dispatched;
      dirty |= dispatch(event);
    }
    advance(now, dirty);
    s_.executed_until = now;
  }

  /// True while `proc`'s communication units are omitting sends
  /// (intermittent fail-silent episode, §6.1 item 3). Records on every
  /// covering window the first instant it actually blocked an attempt —
  /// the tight response allowance is window.to minus that instant, since
  /// the window demonstrably deferred nothing earlier. Recording happens
  /// at the attempt (before value/slot/link checks deeper in
  /// transfer_step), which is conservative-early: it can only lengthen the
  /// reported deferral, never shorten it below the true one.
  bool is_silent(ProcessorId proc, Time now) {
    bool silent = false;
    const std::size_t n = s_.silent_windows.size();
    for (std::size_t i = 0; i < n; ++i) {
      const SilentWindow& window = s_.silent_windows[i];
      if (window.processor == proc && time_le(window.from, now) &&
          time_lt(now, window.to)) {
        silent = true;
        if (now < s_.silent_first_blocked[i]) {
          s_.silent_first_blocked[i] = now;
        }
      }
    }
    return silent;
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

  void collect_detected(std::vector<ProcessorId>& out) const {
    const std::size_t procs = plan_.procs;
    for (std::size_t q = 0; q < procs; ++q) {
      for (std::size_t p = 0; p < procs; ++p) {
        if (s_.proc_alive[p] && s_.flags[p * procs + q]) {
          out.push_back(pid(q));
          break;
        }
      }
    }
  }

  [[nodiscard]] unsigned dispatch(const Event& event) {
    switch (event.kind) {
      case EventKind::kFailure:
        // A death only disables computing/watching and frees links (the
        // dropped frames) — nothing but a transfer can become startable.
        return on_failure(event.time, event.index) ? kDirtyTransfers : 0;
      case EventKind::kOpDone:
        return on_op_done(event.time, event.index)
                   ? (kDirtyWatchers | kDirtyOps | kDirtyTransfers)
                   : 0;
      case EventKind::kHopDone:
        return on_hop_done(event.time, event.index)
                   ? (kDirtyWatchers | kDirtyOps | kDirtyTransfers)
                   : 0;
      case EventKind::kLinkFailure:
        return on_link_failure(event.time, event.index) ? kDirtyTransfers
                                                        : 0;
      case EventKind::kDeadline:
        // Watcher deadlines fire, slot-blocked transfers wake and silent
        // windows close at these instants; operations start on values, not
        // on time, so the op scan cannot find anything new.
        return kDirtyWatchers | kDirtyTransfers;
    }
    return 0;
  }

  bool on_failure(Time now, std::size_t p) {
    if (!s_.proc_alive[p]) return false;
    s_.proc_alive[p] = 0;
    if (s_.proc_busy[p]) s_.proc_abort[p] = 1;
    record({TraceEvent::Kind::kFailure, now, pid(p), {}, {}, -1, {}, {}});
    // In-flight transfers fed by the dead processor are lost; the medium
    // frees (a partial frame is discarded by the receivers).
    const std::size_t nstatic = plan_.transfers.size();
    for (std::size_t t = 0; t < nstatic; ++t) {
      if (s_.tr_status[t] != kInFlight) continue;
      const StaticTransfer& transfer = plan_.transfers[t];
      const HopRecord& hop = plan_.hops[transfer.hop_begin + s_.tr_hop[t]];
      if (hop.feed.index() != p) continue;
      s_.tr_status[t] = kCancelled;
      s_.link_busy[hop.link.index()] = 0;
      record({TraceEvent::Kind::kDrop, now, pid(p), transfer.to, {}, -1,
              transfer.dep, hop.link});
    }
    for (std::size_t d = 0; d < s_.dynamic.size(); ++d) {
      const std::size_t t = nstatic + d;
      if (s_.tr_status[t] != kInFlight) continue;
      const DynTransfer& transfer = s_.dynamic[d];
      const std::uint32_t hop = s_.tr_hop[t];
      if (transfer.route->hops[hop].index() != p) continue;
      s_.tr_status[t] = kCancelled;
      s_.link_busy[transfer.route->links[hop].index()] = 0;
      record({TraceEvent::Kind::kDrop, now, pid(p), transfer.to, {}, -1,
              transfer.dep, transfer.route->links[hop]});
    }
    return true;
  }

  /// A communication link fails permanently: the frame in flight is lost
  /// and nothing crosses the medium again (the paper's §8 future work; a
  /// processor failure already silences that processor's units, this models
  /// the medium itself dying).
  bool on_link_failure(Time now, std::size_t l) {
    if (!s_.link_alive[l]) return false;
    s_.link_alive[l] = 0;
    s_.link_busy[l] = 0;
    const LinkId link_id{static_cast<LinkId::underlying_type>(l)};
    record({TraceEvent::Kind::kFailure, now, {}, {}, {}, -1, {}, link_id});
    const std::size_t nstatic = plan_.transfers.size();
    for (std::size_t t = 0; t < nstatic; ++t) {
      if (s_.tr_status[t] != kInFlight) continue;
      const StaticTransfer& transfer = plan_.transfers[t];
      const HopRecord& hop = plan_.hops[transfer.hop_begin + s_.tr_hop[t]];
      if (hop.link != link_id) continue;
      s_.tr_status[t] = kCancelled;
      record({TraceEvent::Kind::kDrop, now, hop.feed, transfer.to, {}, -1,
              transfer.dep, link_id});
    }
    for (std::size_t d = 0; d < s_.dynamic.size(); ++d) {
      const std::size_t t = nstatic + d;
      if (s_.tr_status[t] != kInFlight) continue;
      const DynTransfer& transfer = s_.dynamic[d];
      const std::uint32_t hop = s_.tr_hop[t];
      if (transfer.route->links[hop] != link_id) continue;
      s_.tr_status[t] = kCancelled;
      record({TraceEvent::Kind::kDrop, now, transfer.route->hops[hop],
              transfer.to, {}, -1, transfer.dep, link_id});
    }
    return true;
  }

  bool on_op_done(Time now, std::size_t p) {
    if (!s_.proc_alive[p]) {
      s_.proc_abort[p] = 0;
      return false;
    }
    const OpRecord& op = plan_.ops[plan_.op_begin[p] + s_.proc_next[p]];
    if (Time& end = s_.op_end[op.op.index()]; now < end) end = now;
    if (!s_.summary) {
      record({TraceEvent::Kind::kOpEnd, now, pid(p), {}, op.op, op.rank,
              {}, {}});
    }
    for (std::uint32_t i = op.out_begin; i < op.out_end; ++i) {
      s_.has_value[p * s_.deps + plan_.op_out[i]] = 1;
    }
    s_.proc_busy[p] = 0;
    ++s_.proc_next[p];
    return true;
  }

  /// Shared tail of a completed hop: broadcast delivery to every live
  /// endpoint of the link. Every live processor attached to the medium
  /// observes the value: a bus delivers it to all endpoints (broadcast), a
  /// point-to-point link to the far endpoint. Observing a processor
  /// transmit is also proof of life: healthy processors keep scanning the
  /// medium and clear a fail flag that turns out to be a detection mistake
  /// or an intermittent fail-silent episode (§6.1 item 3).
  void deliver(DependencyId dep, LinkId link, ProcessorId feeding,
               bool certifies) {
    const std::size_t procs = plan_.procs;
    const std::uint32_t l = static_cast<std::uint32_t>(link.index());
    for (std::uint32_t i = plan_.link_ep_begin[l];
         i < plan_.link_ep_begin[l + 1]; ++i) {
      const std::uint32_t endpoint = plan_.link_ep[i];
      if (!s_.proc_alive[endpoint]) continue;
      s_.has_value[endpoint * s_.deps + dep.index()] = 1;
      if (certifies) s_.certified[endpoint * s_.deps + dep.index()] = 1;
      s_.flags[endpoint * procs + feeding.index()] = 0;
    }
  }

  bool on_hop_done(Time now, std::size_t t) {
    if (s_.tr_status[t] != kInFlight) return false;
    const std::size_t nstatic = plan_.transfers.size();
    const std::uint32_t hop = s_.tr_hop[t];
    if (t < nstatic) {
      const StaticTransfer& transfer = plan_.transfers[t];
      const HopRecord& h = plan_.hops[transfer.hop_begin + hop];
      s_.link_busy[h.link.index()] = 0;
      if (!s_.summary) {
        record({TraceEvent::Kind::kTransferEnd, now, h.feed, transfer.to,
                {}, -1, transfer.dep, h.link});
      }
      deliver(transfer.dep, h.link, h.feed, transfer.certifies);
      s_.tr_hop[t] = hop + 1;
      s_.tr_status[t] = (transfer.hop_begin + hop + 1 == transfer.hop_end)
                            ? kDone
                            : kIdle;
    } else {
      const DynTransfer& transfer = s_.dynamic[t - nstatic];
      const LinkId link = transfer.route->links[hop];
      const ProcessorId feeding = transfer.route->hops[hop];
      s_.link_busy[link.index()] = 0;
      if (!s_.summary) {
        record({TraceEvent::Kind::kTransferEnd, now, feeding, transfer.to,
                {}, -1, transfer.dep, link});
      }
      deliver(transfer.dep, link, feeding, /*certifies=*/true);
      s_.tr_hop[t] = hop + 1;
      s_.tr_status[t] =
          (hop + 1 == transfer.route->links.size()) ? kDone : kIdle;
    }
    return true;
  }

  /// Fixpoint: start everything that can start at `now`, scanning only the
  /// phases the batch's dispatches could have unblocked. A skipped phase
  /// would scan a state no event changed since the previous fixpoint, so
  /// it provably finds nothing to start and nothing to record — the trace
  /// is byte-identical to the every-phase-every-round original. Watcher
  /// progress (timeouts setting flags other chains skip on; elections
  /// creating backup sends) can cascade into watchers and transfers;
  /// nothing inside the fixpoint produces a new value at the same instant,
  /// so the op scan never needs a second round.
  void advance(Time now, unsigned dirty) {
    while (dirty != 0) {
      const bool watchers =
          (dirty & kDirtyWatchers) != 0 && progress_watchers(now);
      if ((dirty & kDirtyOps) != 0) start_operations(now);
      if ((dirty & kDirtyTransfers) != 0 || watchers) start_transfers(now);
      dirty = watchers ? (kDirtyWatchers | kDirtyTransfers) : 0;
    }
  }

  bool start_operations(Time now) {
    bool progress = false;
    const std::size_t procs = plan_.procs;
    for (std::size_t p = 0; p < procs; ++p) {
      if (!s_.proc_alive[p] || s_.proc_busy[p]) continue;
      const std::uint32_t slot = plan_.op_begin[p] + s_.proc_next[p];
      if (slot >= plan_.op_begin[p + 1]) continue;
      const OpRecord& op = plan_.ops[slot];
      bool ready = true;
      for (std::uint32_t i = op.in_begin; i < op.in_end; ++i) {
        if (!s_.has_value[p * s_.deps + plan_.op_in[i]]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      s_.proc_busy[p] = 1;
      if (!s_.summary) {
        record({TraceEvent::Kind::kOpStart, now, pid(p), {}, op.op, op.rank,
                {}, {}});
      }
      push(now + op.duration, EventKind::kOpDone, p);
      progress = true;
    }
    return progress;
  }

  /// Tries to start the idle transfer `t`; true when it turned terminal
  /// (a runtime transfer cancelled at start) and should be unlinked.
  bool transfer_step(Time now, std::uint32_t t, bool& progress) {
    const std::size_t nstatic = plan_.transfers.size();
    if (t < nstatic) {
      const StaticTransfer& transfer = plan_.transfers[t];
      const std::uint32_t hop = s_.tr_hop[t];
      const HopRecord& h = plan_.hops[transfer.hop_begin + hop];
      if (!s_.proc_alive[h.feed.index()]) return false;
      if (!s_.silent_windows.empty() && is_silent(h.feed, now)) {
        return false;  // retried at the window end
      }
      if (!s_.has_value[h.feed.index() * s_.deps + transfer.dep.index()]) {
        return false;
      }
      // Static transfers are time-triggered: hop i never starts before its
      // scheduled slot (§4.4).
      if (time_lt(now, h.slot)) {
        if (s_.tr_wake[t] != hop) {
          s_.tr_wake[t] = hop;
          push(h.slot, EventKind::kDeadline, t);
        }
        return false;
      }
      if (!s_.link_alive[h.link.index()] || s_.link_busy[h.link.index()]) {
        return false;
      }
      s_.link_busy[h.link.index()] = 1;
      s_.tr_status[t] = kInFlight;
      ++s_.n_transfer_starts;
      if (!s_.summary) {
        record({TraceEvent::Kind::kTransferStart, now, h.feed, transfer.to,
                {}, -1, transfer.dep, h.link});
      }
      push(now + h.duration, EventKind::kHopDone, t);
      progress = true;
      return false;
    }

    const DynTransfer& transfer = s_.dynamic[t - nstatic];
    const std::uint32_t hop = s_.tr_hop[t];
    const ProcessorId feeding = transfer.route->hops[hop];
    if (!s_.proc_alive[feeding.index()]) return false;
    if (!s_.silent_windows.empty() && is_silent(feeding, now)) return false;
    if (!s_.has_value[feeding.index() * s_.deps + transfer.dep.index()]) {
      return false;
    }
    // Runtime-created transfers are pointless once the destination got or
    // observed the value through another path.
    const std::vector<char>& dest_seen =
        transfer.liveness ? s_.certified : s_.has_value;
    if (dest_seen[transfer.to.index() * s_.deps + transfer.dep.index()]) {
      s_.tr_status[t] = kCancelled;
      record({TraceEvent::Kind::kDrop, now, feeding, transfer.to, {}, -1,
              transfer.dep, {}});
      progress = true;
      return true;
    }
    const LinkId link = transfer.route->links[hop];
    if (!s_.link_alive[link.index()] || s_.link_busy[link.index()]) {
      return false;
    }
    s_.link_busy[link.index()] = 1;
    s_.tr_status[t] = kInFlight;
    ++s_.n_transfer_starts;
    if (!s_.summary) {
      record({TraceEvent::Kind::kTransferStart, now, feeding, transfer.to,
              {}, -1, transfer.dep, link});
    }
    push(now + schedule_.problem().comm->duration(transfer.dep, link),
         EventKind::kHopDone, t);
    progress = true;
    return false;
  }

  bool start_transfers(Time now) {
    bool progress = false;
    std::uint32_t prev = kNoWake;
    std::uint32_t t = s_.tr_head;
    while (t != kNoWake) {
      // Unlinking never touches tr_next[t], so the cached successor stays
      // valid; in-flight transfers stay linked (they return to idle or
      // turn terminal only when their hop completes).
      const std::uint32_t next = s_.tr_next[t];
      const char status = s_.tr_status[t];
      bool retire = false;
      if (status == kIdle) {
        retire = transfer_step(now, t, progress);
      } else if (status != kInFlight) {
        // Went done/cancelled outside this scan (hop completion, processor
        // or link death); terminal states never revert.
        retire = true;
      }
      if (retire) {
        if (prev == kNoWake) {
          s_.tr_head = next;
        } else {
          s_.tr_next[prev] = next;
        }
        if (t == s_.tr_tail) s_.tr_tail = prev;
      } else {
        prev = t;
      }
      t = next;
    }
    return progress;
  }

  /// Advances one live watcher; true when it retired (see SimState::w_head
  /// for why retirement is permanent).
  bool watcher_step(Time now, std::uint32_t w, bool& progress) {
    const std::size_t procs = plan_.procs;
    const WatcherRec& watcher = plan_.watchers[w];
    const std::size_t recv = watcher.receiver.index();
    if (!s_.proc_alive[recv]) return true;

    const bool satisfied =
        watcher.backup_rank >= 0
            ? s_.certified[recv * s_.deps + watcher.dep.index()] != 0
            : s_.has_value[recv * s_.deps + watcher.dep.index()] != 0;
    if (satisfied) return true;

    std::uint32_t pos = s_.w_pos[w];
    const std::uint32_t entries = watcher.e_end - watcher.e_begin;
    while (pos < entries) {
      const WatchEntry& entry = plan_.wentries[watcher.e_begin + pos];
      if (s_.flags[recv * procs + entry.sender.index()]) {
        // Already known faulty (Figure 12: skip without waiting).
        ++pos;
        progress = true;
        continue;
      }
      if (time_ge(now, entry.deadline)) {
        s_.flags[recv * procs + entry.sender.index()] = 1;
        ++s_.n_timeouts;
        if (!s_.summary) {
          record({TraceEvent::Kind::kTimeout, now, watcher.receiver,
                  entry.sender, {}, entry.rank, watcher.dep, {}});
        }
        ++pos;
        progress = true;
        continue;
      }
      if (s_.w_sched[w] != pos) {
        s_.w_sched[w] = pos;
        push(entry.deadline, EventKind::kDeadline, w);
      }
      break;
    }
    s_.w_pos[w] = pos;

    // Watch chain exhausted: a backup replica takes over the send
    // (Figure 12's final `if m = i then send`); once it has computed the
    // value itself, it transmits to everyone still waiting.
    if (pos == entries && watcher.backup_rank >= 0 && !s_.w_sent[w]) {
      if (!s_.w_elected[w]) {
        s_.w_elected[w] = 1;
        ++s_.n_elections;
        if (!s_.summary) {
          record({TraceEvent::Kind::kElection, now, watcher.receiver, {},
                  {}, watcher.backup_rank, watcher.dep, {}});
        }
        progress = true;
      }
      if (s_.has_value[recv * s_.deps + watcher.dep.index()]) {
        s_.w_sent[w] = 1;
        create_backup_sends(watcher);
        progress = true;
      }
    }
    // Exhausted chain with nothing left to send: the pure-consumer
    // watcher has flagged every sender, the backup has transmitted.
    return pos == entries && (watcher.backup_rank < 0 || s_.w_sent[w]);
  }

  bool progress_watchers(Time now) {
    bool progress = false;
    std::uint32_t prev = kNoWake;
    std::uint32_t w = s_.w_head;
    while (w != kNoWake) {
      // Retirement never touches w_next[w], so the cached successor stays
      // valid across the unlink.
      const std::uint32_t next = s_.w_next[w];
      if (watcher_step(now, w, progress)) {
        if (prev == kNoWake) {
          s_.w_head = next;
        } else {
          s_.w_next[prev] = next;
        }
      } else {
        prev = w;
      }
      w = next;
    }
    return progress;
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
      DynTransfer transfer;
      transfer.dep = watcher.dep;
      transfer.to = to;
      transfer.route = &routing_.route(watcher.receiver, to);
      transfer.liveness = liveness;
      s_.dynamic.push_back(std::move(transfer));
      const std::uint32_t t = static_cast<std::uint32_t>(s_.tr_hop.size());
      s_.tr_hop.push_back(0);
      s_.tr_wake.push_back(kNoWake);
      s_.tr_status.push_back(kIdle);
      // Append to the active list's tail: creation order, after every
      // static transfer — the order the old full scan used.
      s_.tr_next.push_back(kNoWake);
      if (s_.tr_tail == kNoWake) {
        s_.tr_head = t;
      } else {
        s_.tr_next[s_.tr_tail] = t;
      }
      s_.tr_tail = t;
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
  const EventSchedulerKind scheduler_;
  const AlgorithmGraph& graph_;
  SimState& s_;
};

}  // namespace

Simulator::Branch::Branch(std::unique_ptr<sim_detail::SimState> state)
    : state_(std::move(state)) {}
Simulator::Branch::Branch(Branch&&) noexcept = default;
Simulator::Branch& Simulator::Branch::operator=(Branch&&) noexcept = default;
Simulator::Branch::~Branch() = default;

Simulator::Branch Simulator::Branch::fork() const {
  auto copy = std::make_unique<sim_detail::SimState>(*state_);
  // Fork-local accounting: the copy inherits the prefix's behaviour but
  // not its cost — events it dispatches from here on are its own.
  copy->events_dispatched = 0;
  return Branch(std::move(copy));
}

Time Simulator::Branch::frontier() const {
  return state_->queue.empty() ? kInfinite : state_->queue.top().time;
}

std::size_t Simulator::Branch::executed_events() const {
  return state_->events_dispatched;
}

Simulator::Scratch::Scratch() = default;
Simulator::Scratch::Scratch(Scratch&&) noexcept = default;
Simulator::Scratch& Simulator::Scratch::operator=(Scratch&&) noexcept =
    default;
Simulator::Scratch::~Scratch() = default;

Simulator::Simulator(const Schedule& schedule, SimOptions options)
    : schedule_(&schedule),
      options_(options),
      routing_(*schedule.problem().architecture),
      timeouts_(schedule, routing_),
      plan_(sim_detail::build_plan(schedule, timeouts_)) {}

Simulator::~Simulator() = default;

IterationResult Simulator::run(const FailureScenario& scenario) const {
  FTSCHED_SPAN("sim.run");
  sim_detail::SimState state;
  Engine engine(*schedule_, routing_, *plan_, options_.scheduler, state);
  engine.init(scenario);
  engine.run_all();
  return engine.finish();
}

void Simulator::run_summary(const FailureScenario& scenario, Scratch& scratch,
                            IterationSummary& out) const {
  FTSCHED_SPAN("sim.run");
  if (!scratch.state_) {
    scratch.state_ = std::make_unique<sim_detail::SimState>();
  }
  sim_detail::SimState& state = *scratch.state_;
  state.summary = true;
  Engine engine(*schedule_, routing_, *plan_, options_.scheduler, state);
  engine.init(scenario);
  engine.run_all();
  engine.finish_summary(out);
}

Simulator::Branch Simulator::begin(const FailureScenario& scenario) const {
  auto state = std::make_unique<sim_detail::SimState>();
  Engine(*schedule_, routing_, *plan_, options_.scheduler, *state)
      .init(scenario);
  return Branch(std::move(state));
}

void Simulator::advance_until(Branch& branch, Time t) const {
  Engine(*schedule_, routing_, *plan_, options_.scheduler, *branch.state_)
      .run_until(t);
}

void Simulator::inject(Branch& branch, const FailureEvent& failure) const {
  Engine(*schedule_, routing_, *plan_, options_.scheduler, *branch.state_)
      .inject(failure);
}

void Simulator::inject(Branch& branch,
                       const LinkFailureEvent& failure) const {
  Engine(*schedule_, routing_, *plan_, options_.scheduler, *branch.state_)
      .inject(failure);
}

void Simulator::inject(Branch& branch, const SilentWindow& window) const {
  Engine(*schedule_, routing_, *plan_, options_.scheduler, *branch.state_)
      .inject(window);
}

IterationResult Simulator::finish(Branch branch) const {
  FTSCHED_SPAN("sim.finish");
  Engine engine(*schedule_, routing_, *plan_, options_.scheduler,
                *branch.state_);
  engine.run_all();
  return engine.finish();
}

}  // namespace ftsched
