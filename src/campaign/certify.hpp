// Exhaustive certification of a static schedule over the WHOLE implemented
// fault model — the move from sampling (campaign/runner.hpp) to analysis:
// instead of drawing random scenarios, enumerate EVERY way a budgeted fault
// pattern can strike one iteration and simulate each representative branch,
// emitting a machine-readable certificate or concrete counterexamples ready
// for the ddmin shrinker.
//
// Fault model. Three budgeted classes:
//  * processor crashes (the paper's §5.1 fail-stop hypothesis): a
//    dead-at-start subset D plus mid-run crashes, at most K distinct
//    victims in total;
//  * link deaths (§8 future work, outside the §5.1 contract and therefore
//    budgeted separately, FailureScenario::total_fault_count semantics): a
//    dead-at-start subset DL plus mid-run link deaths, at most L distinct
//    links;
//  * fail-silent windows (§6.1 item 3): at most S windows [from, to), each
//    blocking the victim's sends while it keeps computing and receiving.
//
// Branch tree. A node is a set of faults ordered canonically: the
// dead-at-start subsets first, then mid-run faults at nondecreasing
// instants, same-instant ties broken by the typed key (class, id) with
// crashes before link deaths before silence openings — same-instant
// injections commute, so each unordered fault set is explored exactly
// once. Each node's fault-free completion ("leaf run") is simulated; if
// some budget allows another fault, candidate instants for every
// still-alive victim of that class are derived FROM THAT LEAF'S OWN TRACE
// and the subtree recurses.
//
// Time quantization. A fault's effect is determined by which events
// precede it, so only instants separated by an event can behave
// differently: the leaf trace's event dates, the midpoints between
// consecutive dates (one sample per open interval), and the static
// watch-chain deadlines (absent from a failure-free trace, yet crossing
// one flips a receiver's timeout decision) are exhaustive for the
// branch's continuum of fault times — transient_analysis's argument,
// applied recursively. A silent window's closing edge additionally gets
// one past-the-end candidate (silent for the rest of the iteration). Two
// caveats are inherited from the event-dated model: within an open
// interval where the victim feeds an in-flight hop, the crash instant
// shifts the link-free time continuously; and a window's closing edge is
// where blocked sends resume, so it shifts downstream behaviour
// continuously. Outcomes at the samples bound, but do not enumerate,
// those continua (see DESIGN.md).
//
// Per-victim dedup. Candidate instant c is merged into the previously kept
// instant k0 for a victim when the fault at c is provably identical to the
// fault at k0:
//  * crash of processor p — nothing p did in (k0, c] is externally visible
//    (no p-fed transfer started or completed, no replica completed on p)
//    and c is not strictly inside an in-flight window of a p-fed hop
//    (where the crash instant IS the link-release instant);
//  * death of link l — no transfer started or completed on l in (k0, c]
//    (the in-flight-window condition is kept too, conservatively);
//  * window opening on p — p starts no send in [k0, c), the opening edge
//    being inclusive; and a whole window that blocks none of p's sends is
//    exactly the parent leaf, so it is pruned outright.
// Dedup is exact pruning, not sampling: disable it with
// CertifySpec::dedup = false to get the naive enumerator the bench uses as
// its from-scratch baseline.
//
// Response accounting. A branch with silent windows widens its response
// envelope by the leaf run's measured silence deferral — the same tight
// allowance the campaign oracle grants: a send blocked at instant b
// resumes at the window's closing edge `to`, so the worst stretch a
// window actually forced is `to - b` for the earliest attempt it blocked
// (at most the window's own length, and 0 for a window that blocked
// nothing).
//
// Sharing. Branches are never replayed from t=0: the engine forks the
// paused parent prefix (Simulator::Branch) at each candidate instant, so
// the cost of a node is its suffix, not its depth. Tasks — one per
// (dead subsets, first fault victim) — fan across the WorkPool and merge
// in task-index order, making the report a pure function of
// (schedule, spec), bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/oracle.hpp"
#include "obs/metrics.hpp"
#include "sched/schedule.hpp"
#include "sim/mission.hpp"

namespace ftsched::campaign {

struct CertifySpec {
  /// Processor-failure budget to certify; -1 derives the schedule's own
  /// failures_tolerated().
  int max_failures = -1;
  /// Link-death budget (dead-at-start + mid-run, distinct links). Link
  /// faults sit outside the paper's §5.1 contract, so they are budgeted
  /// separately from the processor K; 0 (the default) keeps the sweep
  /// processor-only.
  int max_link_failures = 0;
  /// Fail-silent window budget: at most this many windows per branch.
  int max_silences = 0;
  /// Response envelope every branch must meet (widened per branch by the
  /// leaf run's measured silence deferral — see the header comment);
  /// kInfinite disables the response check (the certificate is then about
  /// output survival only — silent windows alone can never lose an output,
  /// only stretch the response).
  Time response_bound = kInfinite;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Counterexamples kept with full detail (all are counted).
  std::size_t max_counterexamples = 16;
  /// Exact-equivalence pruning of candidate fault instants (see header).
  /// Off = the naive enumerator: every representative instant simulated.
  bool dedup = true;
  /// Record every certified branch's failure pattern in
  /// CertifyReport::branches_list — the bench replays that list from
  /// scratch as its baseline. Off by default (memory).
  bool collect_branches = false;
  /// Named end-to-end chain constraints (see campaign/oracle.hpp), checked
  /// on every branch alongside the scalar response envelope: a branch whose
  /// leaf run violates any chain is a counterexample naming the violated
  /// constraints. Validated and resolved once per sweep through
  /// resolve_latency_constraints — malformed specs throw
  /// std::invalid_argument, like every other certifier entry point.
  /// Empty (the default) keeps the certificate byte-identical to the
  /// scalar certifier.
  std::vector<LatencyConstraint> latency_constraints = {};
};

/// One branch of the fault tree: the complete fault pattern of one
/// certified (or violating) scenario.
struct CertifyBranch {
  std::vector<ProcessorId> dead_at_start;
  std::vector<LinkId> dead_links_at_start;
  /// Mid-run crashes, nondecreasing (time, processor id).
  std::vector<FailureEvent> crashes;
  /// Mid-run link deaths, nondecreasing (time, link id).
  std::vector<LinkFailureEvent> link_crashes;
  /// Fail-silent windows, nondecreasing (opening edge, processor id).
  std::vector<SilentWindow> silences;
  bool outputs_lost = false;
  Time response_time = kInfinite;
  /// Names of the chain constraints this branch's leaf run violated, spec
  /// order. Empty for certified branches, scalar-only violations, and any
  /// sweep without latency constraints.
  std::vector<std::string> violated_constraints;
};

/// The branch as a single-iteration mission plan (shrinker / io input).
[[nodiscard]] MissionPlan counterexample_plan(const CertifyBranch& branch);

/// The branch rendered exactly as CertifyReport::to_json renders its
/// counterexamples (names via `arch`, stable field order) — shared with the
/// frontier report so a boundary point's refuting branch prints the same
/// bytes in either artifact.
[[nodiscard]] std::string certify_branch_json(const CertifyBranch& branch,
                                              const ArchitectureGraph& arch);

struct CertifyReport {
  /// True iff no branch lost an output, exceeded the response bound, or
  /// violated a chain constraint.
  bool certified = false;
  int max_failures = 0;
  int max_link_failures = 0;
  int max_silences = 0;
  Time response_bound = kInfinite;
  /// Dead-at-start processor subsets enumerated (all sizes 0..K, the
  /// empty set included).
  std::size_t subsets = 0;
  /// Dead-at-start link subsets enumerated (all sizes 0..L; 1 when the
  /// link budget is 0 — just the empty set). Every (processor, link)
  /// subset pair is explored.
  std::size_t link_subsets = 0;
  /// Fault branches certified — leaves of the explored tree; with dedup
  /// off this is the full representative enumeration.
  std::size_t branches = 0;
  /// Branch forks performed (the work the prefix sharing buys).
  std::size_t forks = 0;
  /// Events dispatched by the certified leaves' own suffix runs — the
  /// marginal simulation work after prefix sharing
  /// (IterationResult::events_executed summed over leaves).
  std::size_t events_simulated = 0;
  /// Candidate (victim, instant) pairs simulated / pruned as provably
  /// equivalent to a kept neighbour (silent windows count one pair per
  /// kept [from, to) combination).
  std::size_t instants_kept = 0;
  std::size_t instants_merged = 0;
  /// Always 0: the engine keeps no subtree memo. Kept only because the
  /// benchmark's probes (ftbench/src/probes.cpp) still read them.
  std::size_t memo_probes = 0;
  std::size_t memo_hits = 0;
  /// Violating branches, exploration order; detail capped at
  /// spec.max_counterexamples, every one counted.
  std::vector<CertifyBranch> counterexamples;
  std::size_t total_counterexamples = 0;
  /// Worst response over branches that produced all outputs within the
  /// response envelope (late branches are counterexamples instead).
  Time worst_response = 0;
  /// The spec's chain constraints (empty = scalar-only certificate; the
  /// to_json/to_text constraint blocks are emitted only when non-empty, so
  /// scalar certificates stay byte-identical).
  std::vector<LatencyConstraint> latency_constraints;
  /// Per constraint, spec order: worst chain latency over branches that
  /// produced all outputs and met THAT constraint — the certified chain
  /// envelope, mirroring worst_response's same-dimension accounting.
  std::vector<Time> worst_chain_latency;
  /// Every certified branch (only when spec.collect_branches).
  std::vector<CertifyBranch> branches_list;
  /// certify.* counters (branches, forks, instants, counterexamples),
  /// merged deterministically like the campaign runner's metrics.
  obs::MetricsSnapshot metrics;
  unsigned threads_used = 1;
  double elapsed_seconds = 0;

  [[nodiscard]] double branches_per_second() const {
    return elapsed_seconds > 0
               ? static_cast<double>(branches) / elapsed_seconds
               : 0.0;
  }

  /// Human-readable certificate / refutation summary.
  [[nodiscard]] std::string to_text(const ArchitectureGraph& arch) const;

  /// Machine-readable certificate (stable field order; counterexamples
  /// included up to the recorded cap).
  [[nodiscard]] std::string to_json(const ArchitectureGraph& arch) const;
};

/// Certifies `schedule` against every fault pattern within the budgets of
/// `spec` (<= max_failures processor faults, <= max_link_failures link
/// deaths, <= max_silences fail-silent windows). Deterministic: the report
/// is a pure function of (schedule, spec), independent of thread count.
[[nodiscard]] CertifyReport certify(const Schedule& schedule,
                                    const CertifySpec& spec = {});

// ---------------------------------------------------------------------------
// Sharded execution (certification as a service, src/service).
//
// The sweep's task fan-out — one task per (dead processor subset, dead link
// subset, typed first victim) — is a deterministic, globally indexed list,
// so N workers on N machines can split it by task index and a merge of
// their per-task partials in ascending task order reproduces the
// single-process certificate byte for byte.

/// Deterministic task-range assignment: shard i of n owns every task t
/// with t % shard_count == shard_index.
struct CertifyShardSpec {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  [[nodiscard]] bool owns(std::size_t task_index) const {
    return task_index % shard_count == shard_index;
  }
};

/// The resolved shape of one sweep — identical on every shard because it is
/// a pure function of (schedule, spec): budgets clamped, subsets counted,
/// tasks enumerated.
struct CertifySweep {
  int max_failures = 0;
  int max_link_failures = 0;
  int max_silences = 0;
  Time response_bound = kInfinite;
  std::size_t subsets = 0;
  std::size_t link_subsets = 0;
  /// Global task count; shard task indices are 0..tasks-1.
  std::size_t tasks = 0;
};

[[nodiscard]] CertifySweep certify_sweep(const Schedule& schedule,
                                         const CertifySpec& spec);

/// One task's contribution to the certificate. Counterexample detail is
/// capped at spec.max_counterexamples per task (every one is counted in
/// total_counterexamples) — exactly the prefix a task-order merge keeps,
/// so the per-task cap never loses a record the merged certificate needs.
struct CertifyTaskPartial {
  std::size_t task_index = 0;
  std::size_t branches = 0;
  std::size_t forks = 0;
  std::size_t events_simulated = 0;
  std::size_t instants_kept = 0;
  std::size_t instants_merged = 0;
  std::size_t total_counterexamples = 0;
  Time worst_response = 0;
  /// Per spec constraint: worst satisfied chain latency (sized like the
  /// spec's latency_constraints; empty for scalar sweeps).
  std::vector<Time> worst_chain_latency;
  std::vector<CertifyBranch> counterexamples;
  /// Certified branches (spec.collect_branches only; never streamed).
  std::vector<CertifyBranch> collected;
};

/// Folds task partials — presented in ascending task-index order, each
/// task exactly once — into the final report. Memory is O(max_
/// counterexamples), independent of branch count, which is the streaming
/// path's bounded-memory guarantee. certify() itself merges through this
/// class, so any complete shard split merges byte-identically to the
/// single-process certificate.
class CertifyMerger {
 public:
  CertifyMerger(const CertifySweep& sweep, const CertifySpec& spec);

  /// Requires partial.task_index strictly greater than the previous add's.
  void add(CertifyTaskPartial&& partial);

  /// Finalizes verdict, derived counters, and certify.* metrics. The
  /// merger is spent afterwards.
  [[nodiscard]] CertifyReport finish();

 private:
  std::size_t max_counterexamples_;
  bool collect_branches_;
  bool any_added_ = false;
  std::size_t last_index_ = 0;
  CertifyReport report_;
};

/// Runs the shard's slice of the sweep and hands each finished task's
/// partial to `emit` in ascending global task-index order (emit is never
/// called concurrently). `cancelled`, when provided, is polled between
/// tasks: once it returns true, remaining tasks are abandoned and the
/// function returns false (the per-request deadline hook of the certifyd
/// server); a null/false-forever hook always returns true. Deterministic
/// for any thread count, like certify().
bool certify_shard(const Schedule& schedule, const CertifySpec& spec,
                   const CertifyShardSpec& shard,
                   const std::function<void(CertifyTaskPartial&&)>& emit,
                   const std::function<bool()>& cancelled = {});

}  // namespace ftsched::campaign
