// Counterexample-guided repair: the loop that closes the synthesize →
// refute → repair game (CEGIS with the exhaustive certifier as the
// adversary). Given a problem and a heuristic whose schedule the certifier
// refutes, each round:
//
//  1. certifies the current schedule over the full budgeted fault model
//     (campaign/certify.hpp);
//  2. shrinks the first counterexample to a 1-minimal reproducer
//     (campaign/shrink.hpp, budgeted) and banks it — every banked
//     reproducer must stay fixed by all later moves. A certifier branch is
//     a one-iteration plan and shrinking only cuts iterations, so every
//     banked reproducer has exactly one iteration;
//  3. localizes the violated output: re-simulates the reproducer's
//     iteration (on the simulator the shrink used) and walks the output's
//     precedence ancestry on each surviving candidate host, down to the
//     ROOT BLOCKER — the deepest ancestor whose value never reached that
//     host (no replica completed there, no transfer delivered there). A
//     reproducer that loses no output but violates chain constraints (the
//     shrinker's final verdict names them) is attacked on those chains,
//     and a pure response violation by activating every passive chain;
//  4. proposes targeted moves against the root blocker, expressed as
//     scheduling constraints (sched/options.hpp SchedulingConstraints) so
//     the ordinary deterministic list scheduler replays them:
//       * re-route a replicated send off a dead link (ForbidLink), only
//         when an avoiding route exists;
//       * widen a timeout/election chain into actively replicated
//         transfers (hybrid active_comm_deps) when the blocker's value
//         travels a passive solution-1 chain;
//       * re-place a replica of the blocker onto the starved surviving
//         host (Pin);
//       * evict the blocker's replicas from the processors the
//         counterexample kills (Forbid);
//       * pin the lost outputs' whole ancestry onto one surviving host
//         (the compound pin-chain move, proposed past the candidate cap);
//  5. re-schedules every proposed move and keeps those whose result is
//     new (by schedule_hash — revisits are cycles, rejected) and fixes
//     EVERY banked reproducer under the mission oracle; the survivor with
//     the lowest makespan is accepted (preferred_candidate), and
//     certification of the accepted schedule starts the next round.
//
// The loop ends certified, or refuted with the final shrunk counterexample
// when the move set or the round budget is exhausted. Every artifact
// (moves, certificates, shrunk plans) is deterministic: the repair log is
// byte-identical for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/certify.hpp"
#include "campaign/shrink.hpp"
#include "obs/metrics.hpp"
#include "sched/heuristics.hpp"

namespace ftsched::campaign {

struct RepairSpec {
  /// Budgets and options of each round's certification sweep.
  CertifySpec certify;
  /// Accepted-move budget: at most this many repair rounds after the
  /// initial certification.
  int max_rounds = 32;
};

/// One targeted repair move, in the vocabulary of SchedulingConstraints.
struct RepairMove {
  enum class Kind {
    /// Pin a replica of `op` onto `proc` (the starved surviving host).
    kPinReplica,
    /// Forbid placing `op` on `proc` (a processor the counterexample
    /// kills), pushing a replica elsewhere.
    kForbidPlacement,
    /// Route `dep`'s transfers off `link` (a link the counterexample
    /// kills); proposed only when an avoiding route exists.
    kForbidRoute,
    /// Replace `dep`'s passive timeout/election chain with actively
    /// replicated transfers (switches the heuristic to the hybrid).
    kActivateComm,
    /// Make `proc` self-sufficient for the violated outputs: pin their
    /// whole precedence ancestry (`ops`) onto it. The compound move for
    /// counterexamples that sever ALL communication (e.g. a dead bus) —
    /// no single re-placement can fix those, only a full local chain.
    kPinChain,
  };
  Kind kind = Kind::kPinReplica;
  OperationId op = {};    // kPinReplica / kForbidPlacement
  ProcessorId proc = {};  // kPinReplica / kForbidPlacement / kPinChain
  DependencyId dep = {};  // kForbidRoute / kActivateComm
  LinkId link = {};       // kForbidRoute
  std::vector<OperationId> ops = {};  // kPinChain: all ops pinned onto proc

  friend bool operator==(const RepairMove&, const RepairMove&) = default;
};

[[nodiscard]] std::string to_string(RepairMove::Kind kind);

/// One round of the repair loop: the move that produced this round's
/// schedule (absent for round 0) and what certifying it found.
struct RepairRound {
  int round = 0;
  bool has_move = false;
  RepairMove move;
  /// Candidates re-scheduled and screened before this round's move was
  /// accepted (counted on the round the move produced).
  std::size_t candidates_tried = 0;
  /// Candidates that survived the screen (schedulable, unvisited, fix the
  /// whole bank) — the pool the makespan ordering chose from.
  std::size_t candidates_surviving = 0;
  std::uint64_t schedule_key = 0;
  /// Makespan of this round's schedule (the repair cost the move ordering
  /// minimizes).
  Time makespan = 0;
  bool certified = false;
  std::size_t branches = 0;
  std::size_t total_counterexamples = 0;
  std::size_t events_simulated = 0;
  /// The round's shrunk counterexample (empty plan when certified).
  MissionPlan counterexample = {};
  std::size_t shrink_simulations = 0;
  bool shrink_budget_exhausted = false;
};

struct RepairReport {
  /// True when some round's schedule certified over the full budgets.
  bool certified = false;
  /// Heuristic of the final schedule (kActivateComm moves switch a
  /// solution-1 start to the hybrid).
  HeuristicKind kind = HeuristicKind::kSolution1;
  /// Accumulated constraints / comm policy reproducing the final schedule
  /// through the ordinary scheduler entry points.
  SchedulingConstraints constraints;
  std::vector<bool> active_comm_deps;
  /// The final schedule itself (absent only when even the initial
  /// scheduling failed).
  std::optional<Schedule> schedule;
  std::vector<RepairRound> rounds;
  /// Certification of the final schedule (last round's sweep).
  std::optional<CertifyReport> certificate;
  /// Set when the loop stopped without a certificate.
  bool moves_exhausted = false;
  bool rounds_exhausted = false;
  /// Human-readable reason when !certified.
  std::string failure;
  /// repair.* counters (rounds, moves, verdict), deterministic.
  obs::MetricsSnapshot metrics;

  [[nodiscard]] std::string to_text(const AlgorithmGraph& graph,
                                    const ArchitectureGraph& arch) const;
  /// Machine-readable repair log: every move with its re-certification
  /// verdict. Deliberately excludes wall-clock and thread-count fields —
  /// byte-identical for any thread count.
  [[nodiscard]] std::string to_json(const AlgorithmGraph& graph,
                                    const ArchitectureGraph& arch) const;
};

/// Cost-aware move ordering: index of the surviving candidate the round
/// accepts — the lowest repaired makespan, ties broken by the earliest
/// proposal (the deterministic move-proposal order), so a cheaper repair
/// is never passed over for an earlier-proposed costlier one. Requires a
/// non-empty list.
[[nodiscard]] std::size_t preferred_candidate(
    const std::vector<Time>& makespans);

/// Runs the repair loop on `problem` starting from `kind`'s schedule.
/// Deterministic: the report is a pure function of (problem, kind, spec).
[[nodiscard]] RepairReport repair(const Problem& problem, HeuristicKind kind,
                                  const RepairSpec& spec = {});

}  // namespace ftsched::campaign
