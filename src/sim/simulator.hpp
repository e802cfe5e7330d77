// Discrete-event simulator of a static distributed schedule under fail-stop
// processor failures — the runtime half of AAA (§4.1 step 2 generates an
// executive; this simulator executes its semantics).
//
// Faithful behaviours:
//  * each computation unit runs its replicas in static order, a replica
//    starting once all its input values are in local memory;
//  * each link serves transfers one at a time (the bus arbiter of §4.3);
//    statically scheduled transfers are served in schedule order, transfers
//    created at runtime (solution-1 backup sends) queue behind ready ones;
//  * a bus transfer is observed by every attached processor (broadcast,
//    §6.1 item 1); point-to-point transfers store-and-forward along the
//    static route (§5.5 item 2);
//  * a failed processor halts mid-operation, its in-flight transfers are
//    lost, and it never sends again (§5.1 fail-stop);
//  * under solution 1, every waiting processor watches the producer's
//    replicas in election order with the static deadlines of the
//    TimeoutTable; an expired deadline sets the local fail flag (Figure 10)
//    and a backup whose whole watch chain expired sends the value itself
//    (Figure 12). Late messages are still accepted — a detection mistake
//    causes at most an unnecessary send (§6.1 item 3);
//  * under solution 2 (and the baseline) there are no timeouts: all
//    scheduled transfers fire, receivers keep the first arrival and discard
//    later ones (§7.1).
//
// Processors listed in FailureScenario::failed_at_start are dead AND known
// dead by everyone (fail flags pre-set), which is the paper's "subsequent
// iteration" regime; processors in FailureScenario::events crash mid-run,
// giving the "transient iteration".
//
// Forking: per-run state lives in a snapshotable sim_detail::SimState, so a
// shared prefix (typically the failure-free run up to a crash instant) is
// simulated once, then copied per failure branch — the engine behind the
// exhaustive K-failure certifier (campaign/certify.hpp). A branch advanced
// to t and given the remaining faults by inject() produces a bit-identical
// IterationResult to a from-scratch run() of the whole scenario
// (tests/sim/fork_equivalence_test.cpp pins this), and a trace-free copy
// of it the same IterationSummary (tests/sim/summary_equiv_test.cpp).
#pragma once

#include <memory>
#include <vector>

#include "sched/schedule.hpp"
#include "sched/timeouts.hpp"
#include "sim/event_queue.hpp"
#include "sim/failure.hpp"
#include "sim/trace.hpp"

namespace ftsched {

struct IterationResult {
  Trace trace;
  /// Events the producing run dispatched itself — NOT counting the shared
  /// prefix it was forked from (Branch::fork resets the counter). For a
  /// from-scratch run() this is the whole iteration's event count; for a
  /// forked branch it is the marginal simulation work the branch cost,
  /// which is exactly what prefix sharing saves.
  std::size_t events_executed = 0;
  /// Entities the event core examined while producing this result: each
  /// watcher, processor and transfer the same-instant fixpoint visited,
  /// each in-flight frame crash and link-death handling inspected, and
  /// each candidate a wake-up lookup checked (an arriving value's waiters,
  /// a freed link's waiters, a flagged sender's watchers, due time
  /// guards). Counted like events_executed (this branch's own work only).
  /// A work count for the Cost.* tests; no artifact reports it.
  std::size_t entity_visits = 0;
  /// True when every extio output of the algorithm was executed by at least
  /// one processor alive at the end of the iteration.
  bool all_outputs_produced = false;
  /// max over extio outputs of the earliest completion on a processor alive
  /// at the end of the iteration; kInfinite when an output is missing.
  Time response_time = kInfinite;
  /// Processors each healthy processor has flagged faulty by iteration end,
  /// merged (feed these into the next iteration's failed_at_start).
  std::vector<ProcessorId> detected_failures;
  /// Tight response allowance earned by the scenario's silent windows: the
  /// max over windows of (window.to - first instant the window actually
  /// blocked a send attempt), 0 for a window that never deferred anything.
  /// Always <= the window length, so bounds checked against it are at
  /// least as strict as the historical uniform length allowance.
  Time silence_deferral = 0;
  /// Earliest kOpEnd instant per graph operation (indexed by
  /// OperationId::index), kInfinite for an operation no live processor
  /// completed. The per-chain latency oracle (campaign/oracle.hpp) derives
  /// every LatencyConstraint verdict from this table; response_time is its
  /// extio-output projection.
  std::vector<Time> op_completions;
};

/// The trace-free digest of one iteration: everything the mission runner
/// (and through it the campaign oracle) and the certifier's leaf verdict
/// consume, without materializing a Trace. Produced by
/// Simulator::run_summary and by finishing a Branch in place; field for
/// field equal to what the same scenario's IterationResult derives,
/// whether the branch was traced, copied without its trace, or run from
/// scratch (tests/sim/summary_equiv_test.cpp pins this).
struct IterationSummary {
  bool all_outputs_produced = false;
  Time response_time = kInfinite;
  std::size_t events_executed = 0;
  /// See IterationResult::entity_visits.
  std::size_t entity_visits = 0;
  /// Trace-event counts: kTimeout / kElection / kTransferStart.
  std::size_t timeouts = 0;
  std::size_t elections = 0;
  std::size_t transfer_starts = 0;
  /// See IterationResult::detected_failures.
  std::vector<ProcessorId> detected_failures;
  /// See IterationResult::silence_deferral.
  Time silence_deferral = 0;
  /// See IterationResult::op_completions.
  std::vector<Time> op_completions;
};

namespace sim_detail {
struct SimPlan;
struct SimState;
}  // namespace sim_detail

class Simulator {
 public:
  /// The schedule must outlive the simulator.
  explicit Simulator(const Schedule& schedule);
  ~Simulator();

  /// Simulates one iteration under `scenario`. Deterministic.
  [[nodiscard]] IterationResult run(const FailureScenario& scenario) const;

  /// Convenience: failure-free run.
  [[nodiscard]] IterationResult run() const { return run({}); }

  /// Reusable run state for the batched summary path: one Scratch per
  /// worker amortizes every per-run allocation (state tables, event queue,
  /// scenario buffers) across a whole campaign chunk — run_summary resets
  /// the arena without releasing its storage. Default-constructed empty;
  /// lazily sized on first use. Move-only, cheap to hold.
  class Scratch {
   public:
    Scratch();
    Scratch(Scratch&&) noexcept;
    Scratch& operator=(Scratch&&) noexcept;
    ~Scratch();

   private:
    friend class Simulator;
    std::unique_ptr<sim_detail::SimState> state_;
  };

  /// Simulates one iteration under `scenario` without recording a trace,
  /// accumulating the digest directly into `out` (cleared first). Reuses
  /// `scratch`'s storage. Deterministic, and summary-equivalent to run():
  /// same event sequence, same digest values.
  void run_summary(const FailureScenario& scenario, Scratch& scratch,
                   IterationSummary& out) const;

  /// A paused, snapshotable simulation owned by the Simulator that created
  /// it: the (partially failed) prefix of one iteration. copy_to() and
  /// fork() deep-copy the run state — flat POD tables, no re-simulation —
  /// so a certifier explores a tree of failure branches while paying for
  /// each shared prefix once. Move-only; copies are independent.
  ///
  /// A branch is traced (it records every event, and trace() holds the
  /// whole prefix) or in summary mode (it records none and is finished
  /// into an IterationSummary). A trace-free copy of a traced branch runs
  /// in summary mode from the copy on.
  class Branch {
   public:
    /// An empty branch: a target for copy_to(), nothing else. Its storage
    /// is allocated by the first copy and reused by every later one.
    Branch();
    Branch(Branch&&) noexcept;
    Branch& operator=(Branch&&) noexcept;
    ~Branch();

    /// Deep-copies the paused state into `into`, overwriting it and
    /// reusing its storage: a copy into a branch of the same simulator
    /// allocates nothing once `into` has held a state this large. With
    /// `trace` false the copy leaves the trace prefix behind and runs in
    /// summary mode; a copy of a summary-mode branch is always one. No
    /// event is replayed. The copy's event counter restarts at zero: work
    /// executed after the copy is attributed to it, the shared prefix to
    /// its parent (branch-reuse accounting; see
    /// IterationResult::events_executed).
    void copy_to(Branch& into, bool trace = true) const;

    /// A traced copy into a fresh branch (copy_to into an empty one).
    [[nodiscard]] Branch fork() const;

    /// The events recorded so far; empty in summary mode.
    [[nodiscard]] const Trace& trace() const;

    /// Earliest pending event instant; kInfinite when the queue drained.
    [[nodiscard]] Time frontier() const;

    /// Events this branch dispatched itself since it was begun or forked.
    [[nodiscard]] std::size_t executed_events() const;

   private:
    friend class Simulator;
    explicit Branch(std::unique_ptr<sim_detail::SimState> state);
    std::unique_ptr<sim_detail::SimState> state_;
  };

  /// A paused run with `scenario`'s whole start state applied (dead / dead
  /// links / suspects / silent windows / queued mid-run events) and nothing
  /// executed yet.
  [[nodiscard]] Branch begin(const FailureScenario& scenario = {}) const;

  /// Executes every pending instant strictly before `t` (epsilon-strict, so
  /// an event within kTimeEpsilon of `t` stays pending). After this, faults
  /// at times >= t can still be injected.
  void advance_until(Branch& branch, Time t) const;

  /// Injects a mid-run fault into a paused branch. The fault instant (a
  /// silent window's opening edge) must lie strictly after the last
  /// executed instant (inject before advance_until passes it); violating
  /// that throws std::invalid_argument. All three overloads carry the
  /// fork-equivalence guarantee: advance + inject + finish is bit-identical
  /// to a from-scratch run() with the fault in the scenario.
  void inject(Branch& branch, const FailureEvent& failure) const;
  void inject(Branch& branch, const LinkFailureEvent& failure) const;
  void inject(Branch& branch, const SilentWindow& window) const;

  /// Runs the branch to completion, consuming it. A summary-mode branch's
  /// result carries an empty trace.
  [[nodiscard]] IterationResult finish(Branch branch) const;

  /// Runs the branch to completion in place and overwrites `out` with its
  /// digest (reusing `out`'s storage). The branch keeps its state, and a
  /// traced one its whole trace, until the next copy_to() overwrites it.
  void finish(Branch& branch, IterationSummary& out) const;

  /// The schedule this simulator executes.
  [[nodiscard]] const Schedule& schedule() const noexcept {
    return *schedule_;
  }

 private:
  const Schedule* schedule_;
  RoutingTable routing_;
  TimeoutTable timeouts_;
  /// Scenario-independent run state (per-processor programs, static
  /// transfer templates with their routes and slots, watcher templates),
  /// derived from the schedule once so that each run() — and each fork — is
  /// a cheap copy of flat runtime tables instead of a re-derivation.
  std::unique_ptr<const sim_detail::SimPlan> plan_;
};

}  // namespace ftsched
