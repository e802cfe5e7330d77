#include "campaign/repair.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "arch/architecture_graph.hpp"
#include "arch/routing.hpp"
#include "campaign/oracle.hpp"
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

/// The last iteration of `plan` as a single-iteration scenario: crashes and
/// link deaths of earlier iterations have settled (the survivors know them,
/// the paper's subsequent-iteration regime), so they become dead-at-start;
/// only the final iteration's own faults stay mid-run.
FailureScenario final_iteration_scenario(const MissionPlan& plan) {
  const int last = plan.iterations - 1;
  FailureScenario scen;
  scen.failed_at_start = plan.dead_at_start;
  scen.failed_links_at_start = plan.dead_links_at_start;
  scen.suspected_at_start = plan.suspected_at_start;
  for (const MissionFailure& failure : plan.failures) {
    if (failure.iteration < last) {
      scen.failed_at_start.push_back(failure.event.processor);
    } else {
      scen.events.push_back(failure.event);
    }
  }
  for (const MissionLinkFailure& failure : plan.link_failures) {
    if (failure.iteration < last) {
      scen.failed_links_at_start.push_back(failure.event.link);
    } else {
      scen.link_events.push_back(failure.event);
    }
  }
  for (const MissionSilence& silence : plan.silences) {
    if (silence.iteration == last) {
      scen.silent_windows.push_back(silence.window);
    }
  }
  std::sort(scen.failed_at_start.begin(), scen.failed_at_start.end());
  scen.failed_at_start.erase(
      std::unique(scen.failed_at_start.begin(), scen.failed_at_start.end()),
      scen.failed_at_start.end());
  std::sort(scen.failed_links_at_start.begin(),
            scen.failed_links_at_start.end());
  scen.failed_links_at_start.erase(
      std::unique(scen.failed_links_at_start.begin(),
                  scen.failed_links_at_start.end()),
      scen.failed_links_at_start.end());
  return scen;
}

/// Localization of a counterexample: simulate its final iteration once and
/// answer which output was lost, which surviving host should have served
/// it, and which ancestor's value never reached that host.
class Localizer {
 public:
  Localizer(const Problem& problem, const Schedule& sched,
            const FailureScenario& scen)
      : problem_(&problem), sched_(&sched) {
    const Simulator sim(sched);
    leaf_ = sim.run(scen);
    dead_.assign(problem.architecture->processor_count(), false);
    for (const ProcessorId p : scen.failed_at_start) dead_[p.index()] = true;
    for (const FailureEvent& e : scen.events) dead_[e.processor.index()] = true;
    dead_links_.assign(problem.architecture->link_count(), false);
    for (const LinkId l : scen.failed_links_at_start) {
      dead_links_[l.index()] = true;
    }
    for (const LinkFailureEvent& e : scen.link_events) {
      dead_links_[e.link.index()] = true;
    }
  }

  [[nodiscard]] bool proc_dead(ProcessorId p) const {
    return dead_[p.index()];
  }

  [[nodiscard]] std::vector<LinkId> dead_link_ids() const {
    std::vector<LinkId> out;
    for (std::size_t l = 0; l < dead_links_.size(); ++l) {
      if (dead_links_[l]) {
        out.push_back(LinkId{static_cast<LinkId::underlying_type>(l)});
      }
    }
    return out;
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

  /// Surviving hosts that could serve `outputs`, most promising first:
  /// hosts able to execute the outputs' WHOLE precedence ancestry (they
  /// can be made self-sufficient by pins alone) before partially capable
  /// ones, ascending id within a class.
  [[nodiscard]] std::vector<ProcessorId> candidate_hosts(
      const std::vector<OperationId>& outputs) const {
    const std::vector<OperationId> chain = ancestry(outputs);
    std::vector<std::pair<int, ProcessorId>> ranked;
    for (std::size_t p = 0; p < dead_.size(); ++p) {
      if (dead_[p]) continue;
      const ProcessorId proc{static_cast<ProcessorId::underlying_type>(p)};
      bool capable = true;
      for (const OperationId op : chain) {
        if (!problem_->exec->allowed(op, proc)) {
          capable = false;
          break;
        }
      }
      ranked.emplace_back(capable ? 0 : 1, proc);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<ProcessorId> out;
    out.reserve(ranked.size());
    for (const auto& [rank, proc] : ranked) out.push_back(proc);
    return out;
  }

  /// The outputs' whole precedence ancestry (including themselves) — the
  /// pin set that makes a host self-sufficient for them. The FULL closure,
  /// not just the trace's missing values: re-scheduling shifts placements,
  /// so an op whose value incidentally reached the host in the failing run
  /// may migrate away and re-break the chain. Ascending id, deterministic.
  [[nodiscard]] std::vector<OperationId> full_chain(
      const std::vector<OperationId>& outputs) const {
    std::vector<OperationId> chain = ancestry(outputs);
    std::sort(chain.begin(), chain.end());
    return chain;
  }

  /// True when `op`'s value was available on `p` during the reproduced
  /// iteration: a replica completed there, or a transfer of one of `op`'s
  /// out-dependencies was delivered there.
  [[nodiscard]] bool value_at(OperationId op, ProcessorId p) const {
    if (!is_infinite(leaf_.trace.op_end(op, p))) return true;
    for (const TraceEvent& event : leaf_.trace.events()) {
      if (event.kind != TraceEvent::Kind::kTransferEnd || event.peer != p ||
          !event.dep.valid()) {
        continue;
      }
      if (problem_->algorithm->dependency(event.dep).src == op) return true;
    }
    return false;
  }

  /// The whole precedence ancestry of one chain sink (including itself),
  /// BFS order from the sink — the op set a violated latency constraint is
  /// localized to.
  [[nodiscard]] std::vector<OperationId> chain_ancestry(
      OperationId sink) const {
    return ancestry({sink});
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
  [[nodiscard]] std::vector<OperationId> ancestry(
      const std::vector<OperationId>& roots) const {
    std::vector<char> seen(problem_->algorithm->operation_count(), 0);
    std::vector<OperationId> queue;
    for (const OperationId op : roots) {
      if (!seen[op.index()]) {
        seen[op.index()] = 1;
        queue.push_back(op);
      }
    }
    for (std::size_t i = 0; i < queue.size(); ++i) {
      for (const DependencyId d :
           problem_->algorithm->precedence_in_ref(queue[i])) {
        const OperationId src = problem_->algorithm->dependency(d).src;
        if (!seen[src.index()]) {
          seen[src.index()] = 1;
          queue.push_back(src);
        }
      }
    }
    return queue;
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
  std::vector<bool> dead_links_;
};

/// The screening oracle judges exactly what the certifier certifies: the
/// same processor/link budgets as within-contract, the same explicit
/// response bound (no bound -> no response check, mirroring the certifier's
/// survival-only sweep).
OracleSpec screening_spec(const CertifyReport& cert) {
  OracleSpec spec;
  spec.claimed_tolerance = cert.max_failures;
  spec.claimed_link_tolerance = cert.max_link_failures;
  spec.response_bound = cert.response_bound;
  spec.check_response = !is_infinite(cert.response_bound);
  spec.latency_constraints = cert.latency_constraints;
  return spec;
}

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

/// Ordered candidate moves against one shrunk counterexample. Per
/// (lost output, candidate host) the root blocker is attacked with, in
/// order: route repairs off dead links (cheapest — nothing moves),
/// widening passive chains into active transfers, pinning the blocker onto
/// the starved host, and evicting the blocker from the killed processors.
std::vector<RepairMove> propose_moves(
    const Problem& problem, HeuristicKind kind, const Schedule& sched,
    const MissionPlan& plan,
    const std::vector<LatencyConstraint>& violated_chains,
    const SchedulerOptions& opts) {
  const AlgorithmGraph& graph = *problem.algorithm;
  const ArchitectureGraph& arch = *problem.architecture;
  const Localizer loc(problem, sched, final_iteration_scenario(plan));
  const RoutingTable routing(arch);
  const std::vector<LinkId> dead_links = loc.dead_link_ids();
  const std::size_t replicas =
      kind == HeuristicKind::kBase
          ? 1
          : static_cast<std::size_t>(problem.replication_factor());
  const bool has_timeouts = kind == HeuristicKind::kSolution1 ||
                            kind == HeuristicKind::kHybrid;

  std::vector<RepairMove> out;
  auto push_force = [&](const RepairMove& move) {
    for (const RepairMove& have : out) {
      if (have.kind == move.kind && have.op == move.op &&
          have.proc == move.proc && have.dep == move.dep &&
          have.link == move.link && have.ops == move.ops) {
        return;
      }
    }
    out.push_back(move);
  };
  auto push = [&](const RepairMove& move) {
    if (out.size() < kMaxCandidates) push_force(move);
  };
  auto pin_count = [&](OperationId op) {
    std::size_t n = 0;
    for (const SchedulingConstraints::Pin& pin : opts.constraints.pinned) {
      if (pin.op == op) ++n;
    }
    return n;
  };
  auto pinned = [&](OperationId op, ProcessorId p) {
    for (const SchedulingConstraints::Pin& pin : opts.constraints.pinned) {
      if (pin.op == op && pin.proc == p) return true;
    }
    return false;
  };
  auto forbidden = [&](OperationId op, ProcessorId p) {
    for (const SchedulingConstraints::Forbid& f : opts.constraints.forbidden) {
      if (f.op == op && f.proc == p) return true;
    }
    return false;
  };
  auto banned = [&](DependencyId dep, LinkId link) {
    for (const SchedulingConstraints::ForbidLink& f :
         opts.constraints.forbidden_links) {
      if (f.dep == dep && f.link == link) return true;
    }
    return false;
  };

  auto attack = [&](OperationId root, ProcessorId host) {
    // Route a blocked input off a dead link — only when an avoiding route
    // exists, otherwise the ban would silently fall back to the same route.
    for (const DependencyId d : graph.precedence_in_ref(root)) {
      for (const LinkId l : dead_links) {
        if (banned(d, l)) continue;
        for (const ScheduledComm* comm : sched.comms_of(d)) {
          bool crosses = false;
          for (const CommSegment& seg : comm->segments) {
            if (seg.link == l) {
              crosses = true;
              break;
            }
          }
          if (!crosses) continue;
          std::vector<bool> ban(arch.link_count(), false);
          ban[l.index()] = true;
          if (routing.route_avoiding(comm->from, comm->to, ban)) {
            RepairMove move;
            move.kind = RepairMove::Kind::kForbidRoute;
            move.dep = d;
            move.link = l;
            push(move);
          }
          break;
        }
      }
    }
    // Widen a passive timeout/election chain into actively replicated
    // transfers: every producer replica then sends, so no single silent or
    // crashed main starves the chain.
    if (has_timeouts) {
      for (const DependencyId d : graph.precedence_in_ref(root)) {
        if (!sched.uses_active_comms(d)) {
          RepairMove move;
          move.kind = RepairMove::Kind::kActivateComm;
          move.dep = d;
          push(move);
        }
      }
    }
    // Re-place a replica of the blocker on the starved surviving host.
    if (problem.exec->allowed(root, host) &&
        sched.replica_on(root, host) == nullptr && !pinned(root, host) &&
        !forbidden(root, host) && pin_count(root) < replicas) {
      RepairMove move;
      move.kind = RepairMove::Kind::kPinReplica;
      move.op = root;
      move.proc = host;
      push(move);
    }
    // Evict the blocker's replicas from the processors this counterexample
    // kills.
    for (const ScheduledOperation* replica : sched.replicas_view(root)) {
      if (loc.proc_dead(replica->processor) &&
          !forbidden(root, replica->processor) &&
          !pinned(root, replica->processor)) {
        RepairMove move;
        move.kind = RepairMove::Kind::kForbidPlacement;
        move.op = root;
        move.proc = replica->processor;
        push(move);
      }
    }
  };

  const std::vector<OperationId> lost = loc.lost_outputs();
  for (const OperationId output : lost) {
    for (const ProcessorId host : loc.candidate_hosts({output})) {
      const OperationId root = loc.root_blocker(output, host);
      if (!root.valid()) continue;
      attack(root, host);
      if (out.size() >= kMaxCandidates) break;
    }
    if (out.size() >= kMaxCandidates) break;
  }
  // Compound fallback, always proposed (past the cap if need be): when the
  // counterexample severs all communication toward a host, no single
  // re-placement restores an output — the host needs the violated outputs'
  // whole missing ancestry pinned locally.
  if (!lost.empty()) {
    const std::vector<OperationId> chain = loc.full_chain(lost);
    for (const ProcessorId host : loc.candidate_hosts(lost)) {
      RepairMove move;
      move.kind = RepairMove::Kind::kPinChain;
      move.op = lost.front();
      move.proc = host;
      bool feasible = true;
      for (const OperationId op : chain) {
        if (!problem.exec->allowed(op, host)) {
          feasible = false;
          break;
        }
        if (pinned(op, host)) continue;
        if (forbidden(op, host) || pin_count(op) >= replicas) {
          feasible = false;
          break;
        }
        move.ops.push_back(op);
      }
      if (!feasible || move.ops.empty()) continue;
      push_force(move);
    }
  }
  // A chain-latency violation serves every output, so there is no starved
  // host to localize through root blockers; the levers live on the violated
  // chain itself. Per violated constraint, in order: widen the passive
  // timeout/election chains feeding the sink's ancestry into active
  // transfers (recovery latency is dominated by timeout waits), then
  // co-locate the sink with a surviving replica of the chain's source
  // (removing the cross-processor hops between the chain's endpoints).
  if (lost.empty() && !violated_chains.empty()) {
    for (const LatencyConstraint& c : violated_chains) {
      const OperationId sink = graph.find_operation(c.sink_op);
      const OperationId source = graph.find_operation(c.source_op);
      if (!sink.valid()) continue;
      if (has_timeouts) {
        for (const OperationId op : loc.chain_ancestry(sink)) {
          for (const DependencyId d : graph.precedence_in_ref(op)) {
            if (!sched.uses_active_comms(d)) {
              RepairMove move;
              move.kind = RepairMove::Kind::kActivateComm;
              move.dep = d;
              push(move);
            }
          }
        }
      }
      if (!source.valid()) continue;
      for (const ScheduledOperation* replica : sched.replicas_view(source)) {
        const ProcessorId host = replica->processor;
        if (loc.proc_dead(host)) continue;
        if (problem.exec->allowed(sink, host) &&
            sched.replica_on(sink, host) == nullptr &&
            !pinned(sink, host) && !forbidden(sink, host) &&
            pin_count(sink) < replicas) {
          RepairMove move;
          move.kind = RepairMove::Kind::kPinReplica;
          move.op = sink;
          move.proc = host;
          push(move);
        }
      }
    }
  }
  if (lost.empty() && out.empty() && has_timeouts) {
    // Pure response violation (and the fallback when no chain-local move
    // was available): the only remaining lever that shortens recovery is
    // trading timeout chains for active transfers.
    for (const Dependency& dep : graph.dependencies()) {
      if (!sched.uses_active_comms(dep.id)) {
        RepairMove move;
        move.kind = RepairMove::Kind::kActivateComm;
        move.dep = dep.id;
        push(move);
      }
    }
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

  const CertifySpec& cspec = spec.certify;

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
  std::size_t moves_accepted = 0;
  bool pending_has_move = false;
  RepairMove pending_move;
  std::size_t pending_tried = 0;
  std::size_t pending_surviving = 0;

  for (int round = 0;; ++round) {
    const CertifyReport cert = certify(cur.value(), cspec);
    RepairRound r;
    r.round = round;
    r.has_move = pending_has_move;
    r.move = pending_move;
    r.candidates_tried = pending_tried;
    r.candidates_surviving = pending_surviving;
    r.schedule_key = schedule_hash(cur.value());
    r.makespan = cur.value().makespan();
    r.certified = cert.certified;
    r.branches = cert.branches;
    r.total_counterexamples = cert.total_counterexamples;
    r.events_simulated = cert.events_simulated;
    pending_has_move = false;
    pending_tried = 0;
    pending_surviving = 0;

    if (cert.certified) {
      rep.rounds.push_back(std::move(r));
      rep.certified = true;
      rep.certificate = cert;
      break;
    }

    // Minimize and bank the first counterexample; every later move must
    // keep the whole bank fixed.
    const OracleSpec screen = screening_spec(cert);
    std::vector<LatencyConstraint> violated_chains;
    {
      const Simulator sim(cur.value());
      const Oracle oracle(cur.value(), screen);
      MissionPlan target = counterexample_plan(cert.counterexamples.front());
      ShrinkOptions sopts;
      sopts.max_simulations = kShrinkBudget;
      try {
        const ShrinkResult shrunk =
            shrink(sim, oracle, std::move(target), sopts);
        r.counterexample = shrunk.plan;
        r.shrink_simulations = shrunk.simulations;
        r.shrink_budget_exhausted = shrunk.budget_exhausted;
      } catch (const std::invalid_argument&) {
        // The mission oracle and the certifier disagree on this branch
        // (should not happen — they enforce the same contract); keep the
        // unshrunk plan as the round's reproducer.
        r.counterexample =
            counterexample_plan(cert.counterexamples.front());
      }
      bank.push_back(r.counterexample);
      // Which chain constraints the banked reproducer violates — the
      // localization propose_moves targets instead of the global
      // activate-everything fallback.
      if (!screen.latency_constraints.empty()) {
        const Verdict verdict = oracle.judge(
            r.counterexample, run_mission(sim, r.counterexample));
        for (const std::string& name : verdict.violated_constraints) {
          for (const LatencyConstraint& c : screen.latency_constraints) {
            if (c.name == name) violated_chains.push_back(c);
          }
        }
      }
    }
    rep.rounds.push_back(std::move(r));

    if (round >= spec.max_rounds) {
      rep.rounds_exhausted = true;
      rep.certificate = cert;
      rep.failure =
          "round budget exhausted after " + std::to_string(round) + " moves";
      break;
    }

    const std::vector<RepairMove> moves =
        propose_moves(problem, cur_kind, cur.value(), bank.back(),
                      violated_chains, opts);
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
      ++pending_tried;
      ++moves_tried;
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
    pending_surviving = survivors.size();
    if (!survivors.empty()) {
      Candidate& chosen = survivors[preferred_candidate(survivor_makespans)];
      seen.insert(schedule_hash(chosen.schedule));
      cur = std::move(chosen.schedule);
      cur_kind = chosen.kind;
      opts = std::move(chosen.opts);
      pending_has_move = true;
      pending_move = chosen.move;
      ++moves_accepted;
    } else {
      rep.moves_exhausted = true;
      rep.certificate = cert;
      rep.failure =
          "move set exhausted: no candidate fixes every banked "
          "counterexample";
      break;
    }
  }

  rep.kind = cur_kind;
  rep.constraints = opts.constraints;
  rep.active_comm_deps = opts.active_comm_deps;
  rep.schedule = std::move(cur).value();
  rep.metrics.add_counter("repair.rounds", rep.rounds.size());
  rep.metrics.add_counter("repair.moves_tried", moves_tried);
  rep.metrics.add_counter("repair.moves_accepted", moves_accepted);
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
/// this summary instead of the serialized scenario).
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
           time_to_string(f.event.time) + " it" +
           std::to_string(f.iteration);
  }
  for (const MissionLinkFailure& f : plan.link_failures) {
    out += "; link-crash " + arch.link(f.event.link).name + "@" +
           time_to_string(f.event.time) + " it" +
           std::to_string(f.iteration);
  }
  for (const MissionSilence& s : plan.silences) {
    out += "; silence " + arch.processor(s.window.processor).name + " [" +
           time_to_string(s.window.from) + ", " +
           time_to_string(s.window.to) + ") it" +
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
