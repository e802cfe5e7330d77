#include "campaign/repair.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "arch/architecture_graph.hpp"
#include "arch/routing.hpp"
#include "campaign/oracle.hpp"
#include "core/time.hpp"
#include "graph/algorithm_graph.hpp"
#include "obs/json_util.hpp"
#include "obs/span.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"

namespace ftsched::campaign {

namespace {

/// Candidate moves proposed, and screened, per round before giving up.
constexpr std::size_t kMaxCandidates = 24;
/// ShrinkOptions::max_simulations for each round's counterexample
/// minimization.
constexpr std::size_t kShrinkBudget = 4000;

/// The whole precedence ancestry of `roots` (themselves included), in BFS
/// order from the roots.
std::vector<OperationId> ancestry(const AlgorithmGraph& graph,
                                  const std::vector<OperationId>& roots) {
  std::vector<char> seen(graph.operation_count(), 0);
  std::vector<OperationId> order;
  auto visit = [&](OperationId op) {
    if (!seen[op.index()]) {
      seen[op.index()] = 1;
      order.push_back(op);
    }
  };
  for (const OperationId op : roots) visit(op);
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const DependencyId d : graph.precedence_in_ref(order[i])) {
      visit(graph.dependency(d).src);
    }
  }
  return order;
}

/// Localization of a counterexample: run its one iteration once and answer
/// which output was lost, which surviving host should have served it, and
/// which ancestor's value never reached that host.
class Localizer {
 public:
  Localizer(const Simulator& sim, const FailureScenario& faults)
      : problem_(&sim.schedule().problem()),
        sched_(&sim.schedule()),
        leaf_(sim.run(faults)) {
    dead_.assign(problem_->architecture->processor_count(), false);
    for (const ProcessorId p : faults.failed_at_start) dead_[p.index()] = true;
    for (const FailureEvent& e : faults.events) {
      dead_[e.processor.index()] = true;
    }
    dead_links_ = faults.failed_links_at_start;
    for (const LinkFailureEvent& e : faults.link_events) {
      dead_links_.push_back(e.link);
    }
    std::sort(dead_links_.begin(), dead_links_.end());
    dead_links_.erase(std::unique(dead_links_.begin(), dead_links_.end()),
                      dead_links_.end());
  }

  [[nodiscard]] bool proc_dead(ProcessorId p) const {
    return dead_[p.index()];
  }

  /// The links the counterexample kills, ascending id.
  [[nodiscard]] const std::vector<LinkId>& dead_links() const {
    return dead_links_;
  }

  /// Extio outputs no surviving processor completed.
  [[nodiscard]] std::vector<OperationId> lost_outputs() const {
    std::vector<OperationId> out;
    for (const Operation& op : problem_->algorithm->operations()) {
      if (op.kind != OperationKind::kExtioOut) continue;
      bool produced = false;
      for (std::size_t p = 0; p < dead_.size(); ++p) {
        if (dead_[p]) continue;
        const ProcessorId proc{static_cast<ProcessorId::underlying_type>(p)};
        if (!is_infinite(leaf_.trace.op_end(op.id, proc))) {
          produced = true;
          break;
        }
      }
      if (!produced) out.push_back(op.id);
    }
    return out;
  }

  /// Surviving hosts, most promising first: hosts able to execute every op
  /// of `chain` (some outputs' whole ancestry — pins alone can make them
  /// self-sufficient) before partially capable ones, ascending id within a
  /// class.
  [[nodiscard]] std::vector<ProcessorId> candidate_hosts(
      const std::vector<OperationId>& chain) const {
    std::vector<ProcessorId> hosts;  // capable ones first
    std::vector<ProcessorId> partial;
    for (std::size_t p = 0; p < dead_.size(); ++p) {
      if (dead_[p]) continue;
      const ProcessorId proc{static_cast<ProcessorId::underlying_type>(p)};
      const bool all = std::all_of(
          chain.begin(), chain.end(), [&](OperationId op) {
            return problem_->exec->allowed(op, proc);
          });
      (all ? hosts : partial).push_back(proc);
    }
    hosts.insert(hosts.end(), partial.begin(), partial.end());
    return hosts;
  }

  /// The deepest ancestor of `op` whose value never reached `p`: descend
  /// through missing-value ancestors that DO have a replica on p (they were
  /// starved, not absent) until an ancestor with no replica on p (the
  /// placement gap) or with all inputs present (the victim itself — its
  /// crash or silence consumed the value). Invalid id when `op`'s value is
  /// already on p.
  [[nodiscard]] OperationId root_blocker(OperationId op,
                                         ProcessorId p) const {
    std::vector<char> visited(problem_->algorithm->operation_count(), 0);
    return blocker_walk(op, p, visited);
  }

 private:
  /// True when `op`'s value was available on `p` during the reproduced
  /// iteration: a replica completed there, or a transfer of one of `op`'s
  /// out-dependencies was delivered there.
  [[nodiscard]] bool value_at(OperationId op, ProcessorId p) const {
    if (!is_infinite(leaf_.trace.op_end(op, p))) return true;
    for (const TraceEvent& event : leaf_.trace.events()) {
      if (event.kind == TraceEvent::Kind::kTransferEnd && event.peer == p &&
          event.dep.valid() &&
          problem_->algorithm->dependency(event.dep).src == op) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] OperationId blocker_walk(OperationId op, ProcessorId p,
                                         std::vector<char>& visited) const {
    if (visited[op.index()]) return {};
    visited[op.index()] = 1;
    if (value_at(op, p)) return {};
    if (sched_->replica_on(op, p) == nullptr) return op;
    for (const DependencyId d : problem_->algorithm->precedence_in_ref(op)) {
      const OperationId src = problem_->algorithm->dependency(d).src;
      if (value_at(src, p)) continue;
      const OperationId root = blocker_walk(src, p, visited);
      if (root.valid()) return root;
    }
    return op;
  }

  const Problem* problem_;
  const Schedule* sched_;
  IterationResult leaf_;
  std::vector<bool> dead_;
  std::vector<LinkId> dead_links_;
};

/// True when `cand` fixes EVERY banked reproducer.
bool fixes_bank(const Schedule& cand, const std::vector<MissionPlan>& bank,
                const OracleSpec& spec) {
  const Oracle oracle(cand, spec);
  const Simulator sim(cand);
  for (const MissionPlan& plan : bank) {
    if (!oracle.judge(plan, run_mission(sim, plan)).ok()) return false;
  }
  return true;
}

void apply_move(const RepairMove& move, const Problem& problem,
                HeuristicKind& kind, SchedulerOptions& opts) {
  switch (move.kind) {
    case RepairMove::Kind::kPinReplica:
      opts.constraints.pinned.push_back(
          SchedulingConstraints::Pin{move.op, move.proc});
      break;
    case RepairMove::Kind::kForbidPlacement:
      opts.constraints.forbidden.push_back(
          SchedulingConstraints::Forbid{move.op, move.proc});
      break;
    case RepairMove::Kind::kForbidRoute:
      opts.constraints.forbidden_links.push_back(
          SchedulingConstraints::ForbidLink{move.dep, move.link});
      break;
    case RepairMove::Kind::kActivateComm:
      if (kind == HeuristicKind::kSolution1) kind = HeuristicKind::kHybrid;
      opts.active_comm_deps.resize(problem.algorithm->dependency_count(),
                                   false);
      opts.active_comm_deps[move.dep.index()] = true;
      break;
    case RepairMove::Kind::kPinChain:
      for (const OperationId op : move.ops) {
        opts.constraints.pinned.push_back(
            SchedulingConstraints::Pin{op, move.proc});
      }
      break;
  }
}

/// True when `list` holds `item`.
template <typename T>
bool contains(const std::vector<T>& list, const T& item) {
  return std::find(list.begin(), list.end(), item) != list.end();
}

/// Ordered candidate moves against one shrunk counterexample, whose faults
/// `faults` are run on `sim` (the refuted schedule's simulator). Per
/// (lost output, candidate host) the root blocker is attacked with, in
/// order: route repairs off dead links (cheapest — nothing moves),
/// widening passive chains into active transfers, pinning the blocker onto
/// the starved host, and evicting the blocker from the killed processors.
std::vector<RepairMove> propose_moves(
    const Simulator& sim, const FailureScenario& faults,
    const std::vector<LatencyConstraint>& violated_chains,
    const SchedulingConstraints& given) {
  using Kind = RepairMove::Kind;
  const Schedule& sched = sim.schedule();
  const Problem& problem = sched.problem();
  const AlgorithmGraph& graph = *problem.algorithm;
  const Localizer loc(sim, faults);
  const RoutingTable routing(*problem.architecture);
  const std::size_t replicas =
      sched.kind() == HeuristicKind::kBase
          ? 1
          : static_cast<std::size_t>(problem.replication_factor());

  std::vector<RepairMove> out;
  auto push_force = [&](const RepairMove& move) {
    if (!contains(out, move)) out.push_back(move);
  };
  auto push = [&](const RepairMove& move) {
    if (out.size() < kMaxCandidates) push_force(move);
  };
  auto pinned = [&](OperationId op, ProcessorId p) {
    return contains(given.pinned, SchedulingConstraints::Pin{op, p});
  };
  auto forbidden = [&](OperationId op, ProcessorId p) {
    return contains(given.forbidden, SchedulingConstraints::Forbid{op, p});
  };
  // A new pin of `op` onto `p`: allowed there, not forbidden there by an
  // earlier move, and `op` pinned fewer times than it is replicated. Every
  // existing pin passed this test, so a pinned op is allowed where it is.
  auto pinnable = [&](OperationId op, ProcessorId p) {
    const auto pins = std::count_if(
        given.pinned.begin(), given.pinned.end(),
        [&](const SchedulingConstraints::Pin& pin) { return pin.op == op; });
    return problem.exec->allowed(op, p) && !forbidden(op, p) &&
           static_cast<std::size_t>(pins) < replicas;
  };

  auto activate = [&](DependencyId d) {
    // Widen a passive timeout/election chain into actively replicated
    // transfers: every producer replica then sends, so no single silent or
    // crashed main starves the chain, and recovery stops waiting on
    // timeouts.
    if (has_watch_chains(sched.kind()) && !sched.uses_active_comms(d)) {
      push(RepairMove{.kind = Kind::kActivateComm, .dep = d});
    }
  };
  auto pin_replica = [&](OperationId op, ProcessorId host) {
    // Re-place a replica of `op` on the surviving host.
    if (sched.replica_on(op, host) == nullptr && !pinned(op, host) &&
        pinnable(op, host)) {
      push(RepairMove{.kind = Kind::kPinReplica, .op = op, .proc = host});
    }
  };
  auto reroute = [&](DependencyId d, LinkId l) {
    // Route `d` off dead link `l` when a transfer of it crosses `l` — only
    // when an avoiding route exists, otherwise the ban would silently fall
    // back to the same route.
    if (contains(given.forbidden_links,
                 SchedulingConstraints::ForbidLink{d, l})) {
      return;
    }
    for (const ScheduledComm* comm : sched.comms_of(d)) {
      if (std::none_of(comm->segments.begin(), comm->segments.end(),
                       [&](const CommSegment& seg) { return seg.link == l; })) {
        continue;
      }
      std::vector<bool> ban(problem.architecture->link_count(), false);
      ban[l.index()] = true;
      if (routing.route_avoiding(comm->from, comm->to, ban)) {
        push(RepairMove{.kind = Kind::kForbidRoute, .dep = d, .link = l});
      }
      return;
    }
  };

  const std::vector<OperationId> lost = loc.lost_outputs();
  if (!lost.empty()) {
    for (const OperationId output : lost) {
      for (const ProcessorId host :
           loc.candidate_hosts(ancestry(graph, {output}))) {
        const OperationId root = loc.root_blocker(output, host);
        if (!root.valid()) continue;
        for (const DependencyId d : graph.precedence_in_ref(root)) {
          for (const LinkId l : loc.dead_links()) reroute(d, l);
        }
        for (const DependencyId d : graph.precedence_in_ref(root)) {
          activate(d);
        }
        pin_replica(root, host);
        // Evict the blocker's replicas from the processors the
        // counterexample kills.
        for (const ScheduledOperation* replica : sched.replicas_view(root)) {
          const ProcessorId p = replica->processor;
          if (loc.proc_dead(p) && !forbidden(root, p) && !pinned(root, p)) {
            push(RepairMove{
                .kind = Kind::kForbidPlacement, .op = root, .proc = p});
          }
        }
        if (out.size() >= kMaxCandidates) break;
      }
      if (out.size() >= kMaxCandidates) break;
    }
    // Compound fallback, always proposed (past the cap if need be): when
    // the counterexample severs all communication toward a host, no single
    // re-placement restores an output — the host needs the lost outputs'
    // whole ancestry pinned locally. The FULL closure, not just the trace's
    // missing values: re-scheduling shifts placements, so an op whose value
    // incidentally reached the host in the failing run may migrate away and
    // re-break the chain. Ascending id, deterministic.
    std::vector<OperationId> chain = ancestry(graph, lost);
    std::sort(chain.begin(), chain.end());
    for (const ProcessorId host : loc.candidate_hosts(chain)) {
      RepairMove move{
          .kind = Kind::kPinChain, .op = lost.front(), .proc = host};
      bool feasible = true;
      for (const OperationId op : chain) {
        if (pinned(op, host)) continue;
        if (!pinnable(op, host)) {
          feasible = false;
          break;
        }
        move.ops.push_back(op);
      }
      if (feasible && !move.ops.empty()) push_force(move);
    }
    return out;
  }
  // A chain-latency violation serves every output, so there is no starved
  // host to localize through root blockers; the levers live on the violated
  // chain itself. Per violated constraint, in order: widen the passive
  // timeout/election chains feeding the sink's ancestry into active
  // transfers (recovery latency is dominated by timeout waits), then
  // co-locate the sink with a surviving replica of the chain's source
  // (removing the cross-processor hops between the chain's endpoints).
  for (const LatencyConstraint& c : violated_chains) {
    const OperationId sink = graph.find_operation(c.sink_op);
    if (!sink.valid()) continue;
    for (const OperationId op : ancestry(graph, {sink})) {
      for (const DependencyId d : graph.precedence_in_ref(op)) activate(d);
    }
    const OperationId source = graph.find_operation(c.source_op);
    if (!source.valid()) continue;
    for (const ScheduledOperation* replica : sched.replicas_view(source)) {
      if (!loc.proc_dead(replica->processor)) {
        pin_replica(sink, replica->processor);
      }
    }
  }
  // Pure response violation (and the fallback when no chain-local move was
  // available): the only remaining lever that shortens recovery is trading
  // timeout chains for active transfers.
  if (out.empty()) {
    for (const Dependency& dep : graph.dependencies()) activate(dep.id);
  }
  return out;
}

}  // namespace

std::string to_string(RepairMove::Kind kind) {
  switch (kind) {
    case RepairMove::Kind::kPinReplica:
      return "pin-replica";
    case RepairMove::Kind::kForbidPlacement:
      return "forbid-placement";
    case RepairMove::Kind::kForbidRoute:
      return "forbid-route";
    case RepairMove::Kind::kActivateComm:
      return "activate-comm";
    case RepairMove::Kind::kPinChain:
      return "pin-chain";
  }
  return "?";
}

std::size_t preferred_candidate(const std::vector<Time>& makespans) {
  FTSCHED_REQUIRE(!makespans.empty(),
                  "preferred_candidate needs at least one candidate");
  std::size_t best = 0;
  for (std::size_t i = 1; i < makespans.size(); ++i) {
    // Strict comparison: equal makespans keep the earlier proposal, so
    // the tie-break is the deterministic move-proposal order.
    if (makespans[i] < makespans[best]) best = i;
  }
  return best;
}

RepairReport repair(const Problem& problem, HeuristicKind kind,
                    const RepairSpec& spec) {
  FTSCHED_SPAN("repair.run");
  RepairReport rep;
  rep.kind = kind;

  SchedulerOptions opts;
  HeuristicKind cur_kind = kind;
  Expected<Schedule> cur = ftsched::schedule(problem, cur_kind, opts);
  if (!cur) {
    rep.failure = "initial scheduling failed (" +
                  ftsched::to_string(cur.error().code) +
                  "): " + cur.error().message;
    return rep;
  }

  std::unordered_set<std::uint64_t> seen{schedule_hash(cur.value())};
  std::vector<MissionPlan> bank;
  std::size_t moves_tried = 0;
  // The accepted move and its screening counts, recorded on the round
  // that certifies the schedule the move produced.
  RepairRound next;

  for (int round = 0;; ++round) {
    const CertifyReport cert = certify(cur.value(), spec.certify);
    RepairRound& r = rep.rounds.emplace_back(std::exchange(next, {}));
    r.round = round;
    r.schedule_key = schedule_hash(cur.value());
    r.makespan = cur.value().makespan();
    r.certified = cert.certified;
    r.branches = cert.branches;
    r.total_counterexamples = cert.total_counterexamples;
    r.events_simulated = cert.events_simulated;
    if (cert.certified) {
      rep.certified = true;
      rep.certificate = cert;
      break;
    }

    // Minimize and bank the first counterexample; every later move must
    // keep the whole bank fixed. One simulator of the refuted schedule
    // serves the shrink and the localization.
    const OracleSpec screen = oracle_spec(cert);
    std::vector<RepairMove> moves;
    {
      const Simulator sim(cur.value());
      const Oracle oracle(cur.value(), screen);
      ShrinkResult shrunk;
      try {
        shrunk = shrink(sim, oracle,
                        counterexample_plan(cert.counterexamples.front()),
                        ShrinkOptions{.max_simulations = kShrinkBudget});
      } catch (const std::invalid_argument&) {
        // The mission oracle and the certifier disagree on this branch
        // (should not happen — they enforce the same contract); keep the
        // unshrunk plan as the round's reproducer.
        shrunk.plan = counterexample_plan(cert.counterexamples.front());
      }
      r.counterexample = shrunk.plan;
      r.shrink_simulations = shrunk.simulations;
      r.shrink_budget_exhausted = shrunk.budget_exhausted;
      bank.push_back(std::move(shrunk.plan));

      if (round >= spec.max_rounds) {
        rep.rounds_exhausted = true;
        rep.certificate = cert;
        rep.failure = "round budget exhausted after " +
                      std::to_string(round) + " moves";
        break;
      }
      // The chain constraints the reproducer violates: the localization
      // propose_moves targets instead of the global activate-everything
      // fallback.
      std::vector<LatencyConstraint> violated_chains;
      for (const std::string& name : shrunk.violated_constraints) {
        for (const LatencyConstraint& c : screen.latency_constraints) {
          if (c.name == name) violated_chains.push_back(c);
        }
      }
      moves = propose_moves(sim, counterexample_faults(bank.back()),
                            violated_chains, opts.constraints);
    }
    // Screen EVERY proposed move, then accept the surviving candidate
    // with the lowest repaired makespan (ties: earliest proposal) — the
    // first-found survivor could lock in a needlessly slow schedule that
    // later rounds can only constrain further, never relax.
    struct Candidate {
      RepairMove move;
      Schedule schedule;
      HeuristicKind kind;
      SchedulerOptions opts;
    };
    std::vector<Candidate> survivors;
    std::vector<Time> survivor_makespans;
    std::unordered_set<std::uint64_t> survivor_keys;
    for (const RepairMove& move : moves) {
      HeuristicKind next_kind = cur_kind;
      SchedulerOptions next_opts = opts;
      apply_move(move, problem, next_kind, next_opts);
      Expected<Schedule> cand = ftsched::schedule(problem, next_kind,
                                                  next_opts);
      if (!cand) continue;
      // A candidate that re-derives an already-visited schedule is a
      // cycle; one that breaks any banked reproducer is a regression.
      // The bank only grows, so a regression now is a regression in every
      // later round too — mark it visited. Unchosen survivors stay
      // unmarked: a different future bank state never makes them worse,
      // and a later round may legitimately re-derive one.
      const std::uint64_t key = schedule_hash(cand.value());
      if (seen.contains(key) || survivor_keys.contains(key)) continue;
      if (!fixes_bank(cand.value(), bank, screen)) {
        seen.insert(key);
        continue;
      }
      survivor_keys.insert(key);
      survivor_makespans.push_back(cand.value().makespan());
      survivors.push_back(Candidate{move, std::move(cand).value(),
                                    next_kind, std::move(next_opts)});
    }
    moves_tried += moves.size();
    if (survivors.empty()) {
      // This round's tried candidates appear only in repair.moves_tried:
      // no later round records them. A round that proposed nothing (a
      // solution-2 response or chain violation has no passive comm to
      // activate) says so rather than blaming candidates it never tried.
      rep.moves_exhausted = true;
      rep.certificate = cert;
      rep.failure =
          moves.empty()
              ? "no move applies to the banked reproducer"
              : "move set exhausted: no candidate fixes every banked "
                "counterexample";
      break;
    }
    Candidate& chosen = survivors[preferred_candidate(survivor_makespans)];
    seen.insert(schedule_hash(chosen.schedule));
    cur = std::move(chosen.schedule);
    cur_kind = chosen.kind;
    opts = std::move(chosen.opts);
    next = RepairRound{.has_move = true,
                       .move = chosen.move,
                       .candidates_tried = moves.size(),
                       .candidates_surviving = survivors.size()};
  }

  rep.kind = cur_kind;
  rep.constraints = opts.constraints;
  rep.active_comm_deps = opts.active_comm_deps;
  rep.schedule = std::move(cur).value();
  rep.metrics.add_counter("repair.rounds", rep.rounds.size());
  rep.metrics.add_counter("repair.moves_tried", moves_tried);
  rep.metrics.add_counter("repair.moves_accepted", rep.rounds.size() - 1);
  rep.metrics.add_counter("repair.certified", rep.certified ? 1 : 0);
  return rep;
}

namespace {

std::string move_text(const RepairMove& move, const AlgorithmGraph& graph,
                      const ArchitectureGraph& arch) {
  std::string out = to_string(move.kind);
  switch (move.kind) {
    case RepairMove::Kind::kPinReplica:
    case RepairMove::Kind::kForbidPlacement:
      out += " " + graph.operation(move.op).name + " on " +
             arch.processor(move.proc).name;
      break;
    case RepairMove::Kind::kForbidRoute:
      out += " " + graph.dependency(move.dep).name + " off " +
             arch.link(move.link).name;
      break;
    case RepairMove::Kind::kActivateComm:
      out += " " + graph.dependency(move.dep).name;
      break;
    case RepairMove::Kind::kPinChain:
      out += " [";
      for (std::size_t i = 0; i < move.ops.size(); ++i) {
        if (i > 0) out += " ";
        out += graph.operation(move.ops[i]).name;
      }
      out += "] on " + arch.processor(move.proc).name;
      break;
  }
  return out;
}

std::string move_json(const RepairMove& move, const AlgorithmGraph& graph,
                      const ArchitectureGraph& arch) {
  std::string out = "{\"kind\": " + obs::json_string(to_string(move.kind));
  switch (move.kind) {
    case RepairMove::Kind::kPinReplica:
    case RepairMove::Kind::kForbidPlacement:
      out += ", \"op\": " + obs::json_string(graph.operation(move.op).name);
      out += ", \"proc\": " +
             obs::json_string(arch.processor(move.proc).name);
      break;
    case RepairMove::Kind::kForbidRoute:
      out += ", \"dep\": " +
             obs::json_string(graph.dependency(move.dep).name);
      out += ", \"link\": " + obs::json_string(arch.link(move.link).name);
      break;
    case RepairMove::Kind::kActivateComm:
      out += ", \"dep\": " +
             obs::json_string(graph.dependency(move.dep).name);
      break;
    case RepairMove::Kind::kPinChain:
      out += ", \"proc\": " +
             obs::json_string(arch.processor(move.proc).name);
      out += ", \"ops\": [";
      for (std::size_t i = 0; i < move.ops.size(); ++i) {
        if (i > 0) out += ", ";
        out += obs::json_string(graph.operation(move.ops[i]).name);
      }
      out += "]";
      break;
  }
  out += "}";
  return out;
}

/// One-line human-readable rendering of a reproducer for the repair log
/// (io/scenario_format.hpp is a layer above campaign, so the log carries
/// this summary instead of the serialized scenario). Fault times print as
/// the .scenario writer prints them, so a shrunk window stays replayable.
std::string plan_summary(const MissionPlan& plan,
                         const ArchitectureGraph& arch) {
  std::string out = "iterations " + std::to_string(plan.iterations);
  for (const ProcessorId p : plan.dead_at_start) {
    out += "; dead " + arch.processor(p).name;
  }
  for (const LinkId l : plan.dead_links_at_start) {
    out += "; dead-link " + arch.link(l).name;
  }
  for (const MissionFailure& f : plan.failures) {
    out += "; crash " + arch.processor(f.event.processor).name + "@" +
           time_exact(f.event.time) + " it" +
           std::to_string(f.iteration);
  }
  for (const MissionLinkFailure& f : plan.link_failures) {
    out += "; link-crash " + arch.link(f.event.link).name + "@" +
           time_exact(f.event.time) + " it" +
           std::to_string(f.iteration);
  }
  for (const MissionSilence& s : plan.silences) {
    out += "; silence " + arch.processor(s.window.processor).name + " [" +
           time_exact(s.window.from) + ", " +
           time_exact(s.window.to) + ") it" +
           std::to_string(s.iteration);
  }
  for (const ProcessorId p : plan.suspected_at_start) {
    out += "; suspect " + arch.processor(p).name;
  }
  return out;
}

std::string hex_key(std::uint64_t key) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(key));
  return buffer;
}

}  // namespace

std::string RepairReport::to_text(const AlgorithmGraph& graph,
                                  const ArchitectureGraph& arch) const {
  std::string out;
  out += "repair:   " + ftsched::to_string(kind) + ", " +
         std::to_string(rounds.size()) + " round(s)\n";
  for (const RepairRound& r : rounds) {
    out += "round " + std::to_string(r.round) + ": ";
    if (r.has_move) out += move_text(r.move, graph, arch) + " -> ";
    if (r.certified) {
      out += "CERTIFIED (" + std::to_string(r.branches) + " branches)\n";
    } else {
      out += "refuted (" + std::to_string(r.total_counterexamples) +
             " counterexamples over " + std::to_string(r.branches) +
             " branches; reproducer " +
             std::to_string(r.counterexample.event_count()) + " events";
      if (r.shrink_budget_exhausted) out += ", shrink budget exhausted";
      out += ")\n";
    }
  }
  out += "verdict:  ";
  out += certified ? "CERTIFIED" : ("REFUTED — " + failure);
  out += "\n";
  if (!constraints.pinned.empty() || !constraints.forbidden.empty() ||
      !constraints.forbidden_links.empty()) {
    out += "constraints:\n";
    for (const SchedulingConstraints::Pin& pin : constraints.pinned) {
      out += "  pin " + graph.operation(pin.op).name + " on " +
             arch.processor(pin.proc).name + "\n";
    }
    for (const SchedulingConstraints::Forbid& f : constraints.forbidden) {
      out += "  forbid " + graph.operation(f.op).name + " on " +
             arch.processor(f.proc).name + "\n";
    }
    for (const SchedulingConstraints::ForbidLink& f :
         constraints.forbidden_links) {
      out += "  route " + graph.dependency(f.dep).name + " off " +
             arch.link(f.link).name + "\n";
    }
  }
  bool any_active = false;
  for (std::size_t d = 0; d < active_comm_deps.size(); ++d) {
    if (!active_comm_deps[d]) continue;
    out += any_active ? ", " : "active comms: ";
    out += graph
               .dependency(DependencyId{
                   static_cast<DependencyId::underlying_type>(d)})
               .name;
    any_active = true;
  }
  if (any_active) out += "\n";
  return out;
}

std::string RepairReport::to_json(const AlgorithmGraph& graph,
                                  const ArchitectureGraph& arch) const {
  // Deliberately excludes wall-clock and thread-count fields: the repair
  // log is a pure function of (problem, kind, spec) and diffable across
  // thread counts.
  std::string out = "{\n";
  out += "  \"certified\": ";
  out += certified ? "true" : "false";
  out += ",\n  \"kind\": " + obs::json_string(ftsched::to_string(kind));
  out += ",\n  \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RepairRound& r = rounds[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"round\": " +
           obs::json_number(static_cast<std::int64_t>(r.round));
    out += ", \"move\": ";
    out += r.has_move ? move_json(r.move, graph, arch) : std::string("null");
    out += ", \"candidates_tried\": " +
           obs::json_number(static_cast<std::uint64_t>(r.candidates_tried));
    out += ", \"candidates_surviving\": " +
           obs::json_number(
               static_cast<std::uint64_t>(r.candidates_surviving));
    out += ", \"schedule_key\": " + obs::json_string(hex_key(r.schedule_key));
    out += ", \"makespan\": " + obs::json_number(r.makespan);
    out += ", \"certified\": ";
    out += r.certified ? "true" : "false";
    out += ", \"branches\": " +
           obs::json_number(static_cast<std::uint64_t>(r.branches));
    out += ", \"counterexamples\": " +
           obs::json_number(
               static_cast<std::uint64_t>(r.total_counterexamples));
    out += ", \"events_simulated\": " +
           obs::json_number(static_cast<std::uint64_t>(r.events_simulated));
    out += ", \"shrink_simulations\": " +
           obs::json_number(
               static_cast<std::uint64_t>(r.shrink_simulations));
    out += ", \"shrink_budget_exhausted\": ";
    out += r.shrink_budget_exhausted ? "true" : "false";
    out += ", \"counterexample\": ";
    out += r.certified
               ? obs::json_string("")
               : obs::json_string(plan_summary(r.counterexample, arch));
    out += "}";
  }
  out += rounds.empty() ? "]" : "\n  ]";
  out += ",\n  \"constraints\": {\"pinned\": [";
  for (std::size_t i = 0; i < constraints.pinned.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"op\": " +
           obs::json_string(graph.operation(constraints.pinned[i].op).name) +
           ", \"proc\": " +
           obs::json_string(
               arch.processor(constraints.pinned[i].proc).name) +
           "}";
  }
  out += "], \"forbidden\": [";
  for (std::size_t i = 0; i < constraints.forbidden.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"op\": " +
           obs::json_string(
               graph.operation(constraints.forbidden[i].op).name) +
           ", \"proc\": " +
           obs::json_string(
               arch.processor(constraints.forbidden[i].proc).name) +
           "}";
  }
  out += "], \"forbidden_links\": [";
  for (std::size_t i = 0; i < constraints.forbidden_links.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"dep\": " +
           obs::json_string(
               graph.dependency(constraints.forbidden_links[i].dep).name) +
           ", \"link\": " +
           obs::json_string(
               arch.link(constraints.forbidden_links[i].link).name) +
           "}";
  }
  out += "]}";
  out += ",\n  \"active_comm_deps\": [";
  bool first = true;
  for (std::size_t d = 0; d < active_comm_deps.size(); ++d) {
    if (!active_comm_deps[d]) continue;
    if (!first) out += ", ";
    out += obs::json_string(
        graph
            .dependency(
                DependencyId{static_cast<DependencyId::underlying_type>(d)})
            .name);
    first = false;
  }
  out += "]";
  out += ",\n  \"moves_exhausted\": ";
  out += moves_exhausted ? "true" : "false";
  out += ",\n  \"rounds_exhausted\": ";
  out += rounds_exhausted ? "true" : "false";
  out += ",\n  \"failure\": " + obs::json_string(failure);
  out += "\n}\n";
  return out;
}

}  // namespace ftsched::campaign
