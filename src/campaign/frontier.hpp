// The (K, L, S) certification frontier: a capability map of one schedule.
//
// Exhaustive certification is cheap enough that a single budget point is
// not the interesting question — the frontier sweep walks the whole
// (processor-fault, link-death, silent-window) budget lattice outward from
// (0, 0, 0) and reports the maximal certifiable surface: the set of budget
// points the schedule provably masks, the first refuting counterexample at
// each boundary point just beyond it, and the static
// Goemans–Lynch–Saias-style upper bound the surface can be compared
// against (PAPERS.md: *Number of faults a system can withstand without
// repairs*).
//
// One structural fact keeps the walk affordable: refutation is monotone on
// the lattice. A counterexample found within budgets (k, l, s) is a valid
// fault pattern for every (k', l', s') >= (k, l, s) componentwise, so a
// refuted point refutes its whole upper cone — dominated points are marked
// `implied` and never explored. The walk visits points in ascending total
// budget (ties in lexicographic (k, l, s) order), so every potential
// dominator is decided first. Each explored point is an independent
// certify() sweep, so the report is byte-identical across thread counts.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/certify.hpp"
#include "campaign/oracle.hpp"
#include "sched/schedule.hpp"

namespace ftsched::campaign {

struct FrontierSpec {
  /// Inclusive caps of the lattice walked: every (k, l, s) with
  /// 0 <= k <= max_failures, 0 <= l <= max_link_failures,
  /// 0 <= s <= max_silences. The defaults keep the walk small enough for
  /// CI on the paper workloads; -1 for max_failures derives the schedule's
  /// own failures_tolerated() + 1 (one row past the design point, so the
  /// boundary is visible).
  int max_failures = -1;
  int max_link_failures = 1;
  int max_silences = 1;
  /// Response envelope each point is certified against; kInfinite = output
  /// survival only (certify.hpp semantics).
  Time response_bound = kInfinite;
  /// Named chain constraints, applied at every lattice point.
  std::vector<LatencyConstraint> latency_constraints = {};
  /// Worker threads per certification; 0 = hardware concurrency.
  unsigned threads = 0;
};

/// One lattice point's verdict. Exactly one of three shapes:
///  * certified           — explored, no counterexample;
///  * refuted, explored   — branches/counterexamples/first_counterexample
///                          carry the evidence;
///  * refuted, implied    — dominated by an explored refuted point; counts
///                          are zero and first_counterexample is empty.
struct FrontierPoint {
  int max_failures = 0;
  int max_link_failures = 0;
  int max_silences = 0;
  bool certified = false;
  /// True when the refutation was implied by lattice monotonicity (the
  /// point was never explored).
  bool implied = false;
  std::size_t branches = 0;
  std::size_t total_counterexamples = 0;
  Time worst_response = 0;
  /// Per spec constraint (spec order); empty without constraints or for
  /// implied points.
  std::vector<Time> worst_chain_latency = {};
  /// The first counterexample of the point's certification, exploration
  /// order — deterministic for any thread count. Meaningful only when
  /// refuted and explored.
  CertifyBranch first_counterexample = {};
};

/// Static upper bounds on the maskable budgets, in the spirit of
/// Goemans–Lynch–Saias: what the placement's redundancy could possibly
/// withstand, before any timing argument.
struct GlsBounds {
  /// min over extio outputs of (distinct replica hosts - 1): crashing every
  /// host of the weakest output loses it, whatever the timing. Capped at
  /// processor_count - 1.
  int k_bound = 0;
  /// Upper bound on tolerable link deaths at K = 0. When some extio output
  /// is not locally completable (no processor hosts a replica chain that
  /// feeds it without crossing a link), killing the distinct links incident
  /// to that output's replica hosts starves it: l_bound is the minimum such
  /// incident-link count minus 1. When every output IS locally completable
  /// the placement needs no link at all and l_bound is meaningless —
  /// l_unbounded is set and l_bound holds the total link count.
  int l_bound = 0;
  bool l_unbounded = false;
  // Silent windows have no static ceiling: they never lose an output, and
  // the response allowance widens by the measured deferral — reported as
  // null in the frontier JSON.
};

[[nodiscard]] GlsBounds gls_bounds(const Schedule& schedule);

struct FrontierReport {
  /// The caps actually walked (spec caps after resolving max_failures=-1).
  int max_failures = 0;
  int max_link_failures = 0;
  int max_silences = 0;
  Time response_bound = kInfinite;
  std::vector<LatencyConstraint> latency_constraints;
  GlsBounds gls;
  /// Every lattice point, ascending total budget then lexicographic
  /// (k, l, s) — the exploration order, and a pure function of
  /// (schedule, spec).
  std::vector<FrontierPoint> points;
  /// The maximal certifiable surface: certified points not componentwise
  /// dominated by another certified point, lexicographic order.
  std::vector<FrontierPoint> surface;
  std::size_t points_explored = 0;
  std::size_t points_implied = 0;

  /// Deterministic machine-readable report: byte-identical across thread
  /// counts (Frontier.ReportIsByteIdenticalAcrossThreads).
  [[nodiscard]] std::string to_json(const ArchitectureGraph& arch) const;
  /// Human-readable lattice summary.
  [[nodiscard]] std::string to_text(const ArchitectureGraph& arch) const;
};

/// Walks the budget lattice and certifies every non-implied point.
/// Deterministic: the report is a pure function of (schedule, spec).
/// Malformed latency constraints throw std::invalid_argument, like every
/// other certifier entry point.
[[nodiscard]] FrontierReport frontier_sweep(const Schedule& schedule,
                                            const FrontierSpec& spec = {});

/// Two named chain constraints over the paper's worked example graph
/// (workload::paper_example1/2): the A -> E compute spine and the I -> O
/// whole mission. Bounds are loose enough that both published solutions
/// satisfy them under their design budgets — tighten a bound to
/// manufacture a labeled refutation (the CI multi-constraint smoke).
[[nodiscard]] std::vector<LatencyConstraint> paper_chain_constraints();

}  // namespace ftsched::campaign
