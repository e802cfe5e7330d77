// The greedy list-scheduling engine behind all three heuristics
// (paper Figures 11 and 20). One engine, two communication policies:
//
//  * kBase / kSolution1 — only the main replica of a producer sends; a value
//    delivered to a processor (directly, by bus broadcast, or while being
//    relayed) is reused by every later consumer on that processor.
//  * kSolution2 — every replica of the producer sends to every consumer
//    processor that lacks a local replica of the producer; the consumer
//    starts on the first arrival.
//
// The engine is deterministic: all the paper's random tie-breaks are
// replaced by ascending (pressure, completion date, processor id) and
// ascending operation id.
//
// Performance architecture (see DESIGN.md "Scheduler performance"):
// scheduling is this system's compile-time hot path — the campaign engine
// and the hybrid tuner re-run it thousands of times per sweep — so the
// select loop is allocation-free. Each step evaluates every allowed
// (candidate, processor) pair; tentative transfers run on an epoch-stamped
// scratch overlay of the link timelines instead of a copy of the link
// array, precedence is read from flattened CSR tables, only the K+1 best
// assignments are sorted, and all per-step working sets live in members
// sized once in init_state().
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "arch/routing.hpp"
#include "core/text.hpp"
#include "graph/dag_algorithms.hpp"
#include "obs/span.hpp"
#include "sched/explain.hpp"
#include "sched/heuristics.hpp"
#include "sched/pressure.hpp"

namespace ftsched {

namespace {

class Engine {
 public:
  Engine(const Problem& problem, HeuristicKind kind, SchedulerOptions options)
      : problem_(problem),
        kind_(kind),
        options_(std::move(options)),
        replicas_(kind == HeuristicKind::kBase
                      ? 1
                      : problem.failures_to_tolerate + 1),
        routing_(*problem.architecture),
        schedule_(problem, kind) {}

  Expected<Schedule> run() {
    FTSCHED_SPAN("sched.run");
    if (auto error = check_input()) return *error;
    for (const Dependency& dep : graph().dependencies()) {
      if (dep_active(dep.id)) schedule_.set_active_comms(dep.id);
    }
    timing_ = optimistic_timing(problem_);
    if (options_.explain != nullptr) {
      options_.explain->critical_path = timing_.critical_path;
    }
    init_state();
    if (auto error = main_loop()) return *error;
    schedule_mem_inputs();
    if (has_watch_chains(kind_)) {
      schedule_liveness_comms();
      add_passive_comms();
    }
    if (time_gt(schedule_.makespan(), problem_.deadline)) {
      return Error{Error::Code::kDeadlineMissed,
                   "schedule completes at " +
                       time_to_string(schedule_.makespan()) +
                       ", after the deadline " +
                       time_to_string(problem_.deadline)};
    }
    schedule_.set_work(work_);
    return std::move(schedule_);
  }

 private:
  /// One tentative placement of a candidate operation on a processor.
  struct Assignment {
    ProcessorId proc;
    Time start = 0;
    Time end = 0;
    Time sigma = 0;
  };

  /// Tentative link timeline for one evaluation: reads fall through to the
  /// committed timeline unless this evaluation already wrote the slot in
  /// the current epoch. Starting a new evaluation is one counter bump — no
  /// copy of the link array.
  struct ScratchLinks {
    Engine& e;

    Time get(LinkId link) const {
      const std::size_t i = link.index();
      if (e.scratch_epoch_[i] == e.epoch_) return e.scratch_links_[i];
      return e.link_ready_[i];
    }
    void set(LinkId link, Time t) {
      const std::size_t i = link.index();
      e.scratch_epoch_[i] = e.epoch_;
      e.scratch_links_[i] = t;
    }
  };

  /// Committed link timeline: reads and writes go to the real array.
  struct CommitLinks {
    Engine& e;

    Time get(LinkId link) const { return e.link_ready_[link.index()]; }
    void set(LinkId link, Time t) { e.link_ready_[link.index()] = t; }
  };

  /// Does this dependency's value travel by actively replicated transfers?
  bool dep_active(DependencyId dep) const {
    if (kind_ == HeuristicKind::kSolution2) return true;
    if (kind_ != HeuristicKind::kHybrid) return false;
    return dep.index() < options_.active_comm_deps.size() &&
           options_.active_comm_deps[dep.index()];
  }

  const AlgorithmGraph& graph() const { return *problem_.algorithm; }
  const ArchitectureGraph& arch() const { return *problem_.architecture; }
  const ExecTable& exec() const { return *problem_.exec; }
  const CommTable& comm() const { return *problem_.comm; }

  Time& avail(DependencyId dep, int rank, ProcessorId proc) {
    return avail_[dep.index() * avail_dep_stride_ +
                  static_cast<std::size_t>(rank) * proc_count_ +
                  proc.index()];
  }

  std::optional<Error> check_input() const {
    std::vector<std::string> issues = graph().check();
    for (std::string& s : arch().check()) issues.push_back(std::move(s));
    for (std::string& s : comm().check()) issues.push_back(std::move(s));
    if (!issues.empty()) {
      return Error{Error::Code::kInvalidInput, join(issues, "; ")};
    }
    if (arch().processor_count() < static_cast<std::size_t>(replicas_)) {
      return Error{Error::Code::kInsufficientRedundancy,
                   "architecture has " +
                       std::to_string(arch().processor_count()) +
                       " processor(s); " + std::to_string(replicas_) +
                       " replicas are required"};
    }
    std::vector<std::string> redundancy =
        exec().check(static_cast<std::size_t>(replicas_));
    if (!redundancy.empty()) {
      return Error{Error::Code::kInsufficientRedundancy,
                   join(redundancy, "; ")};
    }
    if (!options_.constraints.empty()) {
      if (auto error = check_constraints()) return error;
    }
    return std::nullopt;
  }

  /// Validates the caller's SchedulingConstraints against the problem:
  /// every referenced id must exist, pins must land on allowed and
  /// non-forbidden processors, and each operation must keep at least K+1
  /// placeable processors after the forbids. A constraint set that leaves
  /// no feasible placement is an input error, not a silent relaxation —
  /// the repair engine relies on this to discard impossible moves.
  std::optional<Error> check_constraints() const {
    const SchedulingConstraints& c = options_.constraints;
    const std::size_t ops = graph().operation_count();
    const std::size_t procs = arch().processor_count();
    const std::size_t deps = graph().dependency_count();
    const std::size_t links = arch().link_count();
    auto invalid = [](std::string message) {
      return Error{Error::Code::kInvalidInput, std::move(message)};
    };
    for (const SchedulingConstraints::Pin& pin : c.pinned) {
      if (pin.op.index() >= ops || pin.proc.index() >= procs) {
        return invalid("constraint pins an unknown operation or processor");
      }
      if (!exec().allowed_fast(pin.op, pin.proc)) {
        return invalid("operation " + graph().operation(pin.op).name +
                       " cannot execute on pinned processor " +
                       arch().processor(pin.proc).name);
      }
    }
    for (const SchedulingConstraints::Forbid& forbid : c.forbidden) {
      if (forbid.op.index() >= ops || forbid.proc.index() >= procs) {
        return invalid("constraint forbids an unknown operation or processor");
      }
    }
    for (const SchedulingConstraints::ForbidLink& fl : c.forbidden_links) {
      if (fl.dep.index() >= deps || fl.link.index() >= links) {
        return invalid("constraint forbids an unknown dependency or link");
      }
    }
    for (const Operation& op : graph().operations()) {
      std::size_t pins = 0;
      for (const SchedulingConstraints::Pin& pin : c.pinned) {
        if (pin.op != op.id) continue;
        bool duplicate = false;
        for (const SchedulingConstraints::Pin& other : c.pinned) {
          if (&other == &pin) break;
          duplicate = duplicate || (other.op == op.id &&
                                    other.proc == pin.proc);
        }
        if (duplicate) continue;
        for (const SchedulingConstraints::Forbid& forbid : c.forbidden) {
          if (forbid.op == op.id && forbid.proc == pin.proc) {
            return invalid("operation " + op.name + " is both pinned to and "
                           "forbidden on " +
                           arch().processor(pin.proc).name);
          }
        }
        ++pins;
      }
      if (pins > static_cast<std::size_t>(replicas_)) {
        return Error{Error::Code::kInsufficientRedundancy,
                     "operation " + op.name + " pins " +
                         std::to_string(pins) + " processors but only " +
                         std::to_string(replicas_) + " replicas exist"};
      }
      std::size_t placeable = 0;
      for (const Processor& proc : arch().processors()) {
        if (!exec().allowed_fast(op.id, proc.id)) continue;
        bool banned = false;
        for (const SchedulingConstraints::Forbid& forbid : c.forbidden) {
          if (forbid.op == op.id && forbid.proc == proc.id) {
            banned = true;
            break;
          }
        }
        if (!banned) ++placeable;
      }
      if (placeable < static_cast<std::size_t>(replicas_)) {
        return Error{Error::Code::kInsufficientRedundancy,
                     "operation " + op.name + " keeps " +
                         std::to_string(placeable) +
                         " placeable processor(s) under the constraints; " +
                         std::to_string(replicas_) +
                         " replicas are required"};
      }
    }
    return std::nullopt;
  }

  void init_state() {
    const std::size_t ops = graph().operation_count();
    const std::size_t deps = graph().dependency_count();
    proc_count_ = arch().processor_count();
    const std::size_t links = arch().link_count();

    proc_ready_.assign(proc_count_, 0);
    link_ready_.assign(links, 0);
    avail_dep_stride_ = static_cast<std::size_t>(replicas_) * proc_count_;
    avail_.assign(deps * avail_dep_stride_, kInfinite);

    scratch_links_.assign(links, 0);
    scratch_epoch_.assign(links, 0);
    epoch_ = 0;

    kept_.assign(ops * static_cast<std::size_t>(replicas_), Assignment{});
    all_scratch_.reserve(proc_count_);
    placements_.reserve(static_cast<std::size_t>(replicas_));

    // Flattened precedence tables: precedence_in()/successors() build a
    // fresh vector per call, which the select loop cannot afford — one CSR
    // copy per run instead.
    pred_offset_.assign(ops + 1, 0);
    pred_deps_.clear();
    succ_offset_.assign(ops + 1, 0);
    succ_ops_.clear();
    for (const Operation& op : graph().operations()) {
      for (DependencyId dep : graph().precedence_in_ref(op.id)) {
        pred_deps_.push_back(dep);
      }
      pred_offset_[op.id.index() + 1] = pred_deps_.size();
      // successors(), deduplicated and sorted, without its per-call vector.
      const std::size_t first = succ_ops_.size();
      for (DependencyId dep : graph().out_dependencies(op.id)) {
        if (graph().is_precedence(dep)) {
          succ_ops_.push_back(graph().dependency(dep).dst);
        }
      }
      std::sort(succ_ops_.begin() + static_cast<std::ptrdiff_t>(first),
                succ_ops_.end());
      succ_ops_.erase(
          std::unique(succ_ops_.begin() + static_cast<std::ptrdiff_t>(first),
                      succ_ops_.end()),
          succ_ops_.end());
      succ_offset_[op.id.index() + 1] = succ_ops_.size();
    }

    // Committed-replica completion dates, (op, proc)-indexed: the engine's
    // O(1) stand-in for Schedule::replica_on in dependency_arrival.
    local_end_.assign(ops * proc_count_, kInfinite);

    // Satellite of the same hot loop: the cheapest transfer duration of
    // each dependency over any link, precomputed once instead of re-scanning
    // every link per (candidate, processor) evaluation, and from it the
    // static successor-placement penalty of every (operation, processor)
    // pair (successor_penalty reads only static data: the exec table and
    // this table).
    cheapest_comm_.assign(deps, kInfinite);
    for (const Dependency& dep : graph().dependencies()) {
      Time cheapest = kInfinite;
      for (const Link& link : arch().links()) {
        cheapest = std::min(cheapest, comm().duration_fast(dep.id, link.id));
      }
      cheapest_comm_[dep.id.index()] = cheapest;
    }
    penalty_.assign(ops * proc_count_, 0);
    if (options_.successor_placement_penalty) {
      for (const Operation& op : graph().operations()) {
        for (const Processor& proc : arch().processors()) {
          Time penalty = 0;
          for (DependencyId dep : graph().precedence_out(op.id)) {
            const OperationId dst = graph().dependency(dep).dst;
            if (exec().allowed_fast(dst, proc.id)) continue;
            const Time cheapest = cheapest_comm_[dep.index()];
            if (!is_infinite(cheapest)) {
              penalty = std::max(penalty, cheapest);
            }
          }
          penalty_[op.id.index() * proc_count_ + proc.id.index()] = penalty;
        }
      }
    }

    // Constraint tables — built only when constraints exist, so the
    // unconstrained hot paths stay allocation-free and byte-identical.
    has_place_constraints_ = !options_.constraints.pinned.empty() ||
                             !options_.constraints.forbidden.empty();
    has_link_constraints_ = !options_.constraints.forbidden_links.empty();
    if (has_place_constraints_) {
      forbidden_.assign(ops * proc_count_, 0);
      for (const SchedulingConstraints::Forbid& forbid :
           options_.constraints.forbidden) {
        forbidden_[forbid.op.index() * proc_count_ + forbid.proc.index()] = 1;
      }
      pinned_on_.assign(ops, {});
      for (const SchedulingConstraints::Pin& pin :
           options_.constraints.pinned) {
        std::vector<ProcessorId>& list = pinned_on_[pin.op.index()];
        if (std::find(list.begin(), list.end(), pin.proc) == list.end()) {
          list.push_back(pin.proc);
        }
      }
      pin_selected_.reserve(proc_count_);
    }
    if (has_link_constraints_) {
      // Per constrained dependency: the banned-link mask and the full
      // (from, to) avoid-route matrix, computed once. A ban that
      // disconnects a pair falls back to the unconstrained shortest route
      // (same contract as disjoint routing's fallback).
      dep_route_slot_.assign(deps, -1);
      dep_banned_links_.clear();
      dep_routes_.clear();
      for (const SchedulingConstraints::ForbidLink& fl :
           options_.constraints.forbidden_links) {
        std::int32_t& slot = dep_route_slot_[fl.dep.index()];
        if (slot < 0) {
          slot = static_cast<std::int32_t>(dep_banned_links_.size());
          dep_banned_links_.emplace_back(links, false);
          dep_routes_.emplace_back();
        }
        dep_banned_links_[static_cast<std::size_t>(slot)][fl.link.index()] =
            true;
      }
      for (std::size_t s = 0; s < dep_routes_.size(); ++s) {
        dep_routes_[s].resize(proc_count_ * proc_count_);
        for (std::size_t from = 0; from < proc_count_; ++from) {
          for (std::size_t to = 0; to < proc_count_; ++to) {
            const ProcessorId src{
                static_cast<ProcessorId::underlying_type>(from)};
            const ProcessorId dst{
                static_cast<ProcessorId::underlying_type>(to)};
            std::optional<Route> detour =
                from == to ? std::nullopt
                           : routing_.route_avoiding(src, dst,
                                                     dep_banned_links_[s]);
            dep_routes_[s][from * proc_count_ + to] =
                detour.has_value() ? std::move(*detour)
                                   : routing_.route(src, dst);
          }
        }
      }
    }
  }

  /// The static route every transfer of `dep` from `from` to `to` takes:
  /// the constraint-avoiding route when the dependency carries a
  /// ForbidLink, the plain shortest route otherwise.
  const Route& static_route(DependencyId dep, ProcessorId from,
                            ProcessorId to) const {
    if (has_link_constraints_) {
      const std::int32_t slot = dep_route_slot_[dep.index()];
      if (slot >= 0) {
        return dep_routes_[static_cast<std::size_t>(slot)]
                          [from.index() * proc_count_ + to.index()];
      }
    }
    return routing_.route(from, to);
  }

  /// Static lower bound on the communications forced by placing `op` on a
  /// processor its successor cannot execute on (see SchedulerOptions).
  /// Precomputed per (operation, processor) in init_state().
  Time successor_penalty(OperationId op, ProcessorId proc) const {
    return penalty_[op.index() * proc_count_ + proc.index()];
  }

  /// mSn loop of Figures 11/20.
  std::optional<Error> main_loop() {
    // Candidate list kept sorted ascending by operation id — the
    // deterministic evaluation (and explain) order.
    std::vector<OperationId> candidates;
    std::vector<int> missing(graph().operation_count(), 0);
    for (const Operation& op : graph().operations()) {
      missing[op.id.index()] =
          static_cast<int>(graph().predecessors(op.id).size());
      if (missing[op.id.index()] == 0) candidates.push_back(op.id);
    }

    for (std::size_t scheduled = 0; scheduled < graph().operation_count();
         ++scheduled) {
      // mSn.1 + mSn.2: evaluate every candidate on its K+1 best processors
      // and select the candidate whose kept set holds the largest pressure.
      OperationId best_op;
      Time best_urgency = -kInfinite;
      ExplainStep step;
      {
        FTSCHED_SPAN("sched.select");
        for (OperationId op : candidates) {
          const Time urgency =
              keep_best(op, options_.explain != nullptr ? &step : nullptr);
          if (time_gt(urgency, best_urgency)) {
            best_urgency = urgency;
            best_op = op;
          }
        }
      }
      FTSCHED_REQUIRE(best_op.valid(),
                      "candidate list empty before all operations scheduled "
                      "(cyclic precedence?)");
      if (options_.explain != nullptr) {
        step.step = scheduled;
        step.chosen = best_op;
        step.urgency = best_urgency;
        options_.explain->steps.push_back(std::move(step));
      }

      // mSn.3: implement the operation and the communications it implies.
      {
        FTSCHED_SPAN("sched.commit");
        commit(best_op);
      }

      // mSn.4: update the candidate list (kept sorted by id).
      candidates.erase(
          std::find(candidates.begin(), candidates.end(), best_op));
      for (std::size_t s = succ_offset_[best_op.index()];
           s < succ_offset_[best_op.index() + 1]; ++s) {
        const OperationId succ = succ_ops_[s];
        if (--missing[succ.index()] == 0) {
          candidates.insert(
              std::lower_bound(candidates.begin(), candidates.end(), succ),
              succ);
        }
      }
    }
    return std::nullopt;
  }

  /// mSn.1 for one candidate: evaluates it on every allowed processor and
  /// writes its K+1 assignments minimizing sigma, ascending (sigma,
  /// completion, processor id), to the candidate's kept_ row; returns the
  /// urgency (the kept set's largest sigma). check_input() guarantees enough
  /// allowed processors exist. With `explain`, every evaluation is appended
  /// to the step's candidate list (kept = in the kept set).
  Time keep_best(OperationId op, ExplainStep* explain) {
    FTSCHED_SPAN("sched.pressure_eval");
    all_scratch_.clear();
    const std::size_t row = op.index() * proc_count_;
    for (const Processor& proc : arch().processors()) {
      if (!exec().allowed_fast(op, proc.id)) continue;
      if (has_place_constraints_ && forbidden_[row + proc.id.index()] != 0) {
        continue;
      }
      all_scratch_.push_back(evaluate(op, proc.id));
      ++work_.evaluations;
    }

    const auto by_pressure = [](const Assignment& a, const Assignment& b) {
      if (!time_eq(a.sigma, b.sigma)) return a.sigma < b.sigma;
      if (!time_eq(a.end, b.end)) return a.end < b.end;
      return a.proc < b.proc;
    };
    // Pins force their processors into the kept set; the remaining slots
    // fill in pressure order (check_input guarantees every pinned
    // processor was evaluated and at most K+1 processors are pinned).
    const std::vector<ProcessorId>* pins =
        has_place_constraints_ && !pinned_on_[op.index()].empty()
            ? &pinned_on_[op.index()]
            : nullptr;
    const auto replicas = static_cast<std::size_t>(replicas_);
    {
      FTSCHED_SPAN("sched.candidate_sort");
      if (explain != nullptr || pins != nullptr) {
        // The audit log lists the full table in pressure order (and pinned
        // selection scans all of it), so sort it all; the fast path only
        // needs the K+1 winners in order.
        std::sort(all_scratch_.begin(), all_scratch_.end(), by_pressure);
      } else {
        std::partial_sort(
            all_scratch_.begin(),
            all_scratch_.begin() + static_cast<std::ptrdiff_t>(replicas),
            all_scratch_.end(), by_pressure);
      }
    }
    Assignment* kept = kept_row(op);
    if (pins == nullptr) {
      std::copy_n(all_scratch_.begin(), replicas, kept);
    } else {
      pin_selected_.assign(all_scratch_.size(), 0);
      std::size_t taken = 0;
      for (std::size_t i = 0; i < all_scratch_.size(); ++i) {
        if (std::find(pins->begin(), pins->end(), all_scratch_[i].proc) !=
            pins->end()) {
          pin_selected_[i] = 1;
          ++taken;
        }
      }
      for (std::size_t i = 0; i < all_scratch_.size() && taken < replicas;
           ++i) {
        if (pin_selected_[i] == 0) {
          pin_selected_[i] = 1;
          ++taken;
        }
      }
      std::size_t k = 0;
      for (std::size_t i = 0; i < all_scratch_.size(); ++i) {
        if (pin_selected_[i] != 0) kept[k++] = all_scratch_[i];
      }
    }
    if (explain != nullptr) {
      for (std::size_t i = 0; i < all_scratch_.size(); ++i) {
        const Assignment& a = all_scratch_[i];
        ExplainCandidate candidate;
        candidate.op = op;
        candidate.proc = a.proc;
        candidate.start = a.start;
        candidate.duration = a.end - a.start;
        candidate.tail = timing_.tail[op.index()];
        candidate.penalty = successor_penalty(op, a.proc);
        candidate.sigma = a.sigma;
        candidate.kept =
            pins == nullptr ? i < replicas : pin_selected_[i] != 0;
        explain->candidates.push_back(candidate);
      }
    }
    return kept[replicas - 1].sigma;
  }

  /// This candidate's K+1 kept assignments (kept_ row), as its latest
  /// keep_best() left them.
  Assignment* kept_row(OperationId op) {
    return kept_.data() + op.index() * static_cast<std::size_t>(replicas_);
  }

  /// Tentative evaluation of (op, proc): earliest start given the committed
  /// partial schedule, scheduling the implied communications on the
  /// epoch-stamped scratch link timeline.
  Assignment evaluate(OperationId op, ProcessorId proc) {
    ++epoch_;
    ScratchLinks links{*this};
    const Time data = data_ready(op, proc, links, nullptr);
    const Time start = std::max(data, proc_ready_[proc.index()]);
    const Time duration = exec().duration_fast(op, proc);
    Assignment a;
    a.proc = proc;
    a.start = start;
    a.end = start + duration;
    a.sigma = schedule_pressure(timing_, op, start, duration) +
              successor_penalty(op, proc);
    return a;
  }

  /// Earliest date all of op's inputs are available on `proc`, scheduling
  /// missing transfers on `links` (the scratch timeline when `out` is null,
  /// the committed one when committing, in which case created comms are
  /// appended to the schedule and the availability table is updated).
  template <class Links>
  Time data_ready(OperationId op, ProcessorId proc, Links& links,
                  Schedule* out) {
    Time ready = 0;
    for (DependencyId dep_id : pred_span(op)) {
      ready = std::max(ready, dependency_arrival(dep_id, proc, links, out));
    }
    return ready;
  }

  /// Precedence-in dependencies of `op` from the flattened table.
  struct DepSpan {
    const DependencyId* first;
    const DependencyId* last;
    const DependencyId* begin() const { return first; }
    const DependencyId* end() const { return last; }
  };
  DepSpan pred_span(OperationId op) const {
    return {pred_deps_.data() + pred_offset_[op.index()],
            pred_deps_.data() + pred_offset_[op.index() + 1]};
  }

  /// Earliest date the value of `dep` is available on `proc`.
  template <class Links>
  Time dependency_arrival(DependencyId dep_id, ProcessorId proc, Links& links,
                          Schedule* out) {
    const Dependency& dep = graph().dependency(dep_id);
    // Intra-processor: a local replica of the producer makes the value
    // available at its completion; no transfer is created (§6.1, §7.1).
    const Time local_end =
        local_end_[dep.src.index() * proc_count_ + proc.index()];
    if (!is_infinite(local_end)) return local_end;
    if (dep_active(dep_id)) {
      // Every producer replica sends; the consumer keeps the first arrival.
      // Under disjoint routing each transfer takes a route that avoids its
      // siblings' links AND relays, and never relays through another
      // replica's host — so no single link or processor death severs every
      // copy (§8 future work). When the bans disconnect a pair we fall back
      // to the shortest route (overlap accepted, reported by the
      // link-failure benchmarks).
      if (options_.disjoint_comm_routes) {
        banned_links_.assign(arch().link_count(), false);
        if (has_link_constraints_ && dep_route_slot_[dep_id.index()] >= 0) {
          // Constraint bans seed the disjoint search: no replica's route
          // may cross a forbidden link either.
          banned_links_ = dep_banned_links_[static_cast<std::size_t>(
              dep_route_slot_[dep_id.index()])];
        }
        banned_procs_.assign(arch().processor_count(), false);
        for (const ScheduledOperation* host :
             schedule_.replicas_view(dep.src)) {
          banned_procs_[host->processor.index()] = true;
        }
      }
      Time first = kInfinite;
      for (const ScheduledOperation* sender :
           schedule_.replicas_view(dep.src)) {
        Time arrival = avail(dep_id, sender->rank, proc);
        if (is_infinite(arrival)) {
          const Route* forced = nullptr;
          std::optional<Route> detour;
          if (options_.disjoint_comm_routes) {
            // The sender itself is of course allowed to originate.
            banned_procs_[sender->processor.index()] = false;
            detour = routing_.route_avoiding(sender->processor, proc,
                                             banned_links_, &banned_procs_);
            banned_procs_[sender->processor.index()] = true;
            if (detour.has_value()) forced = &*detour;
          }
          arrival = transfer(dep_id, *sender, proc, links, out, 0, false,
                             forced);
          if (options_.disjoint_comm_routes) {
            const Route& used =
                forced != nullptr
                    ? *forced
                    : static_route(dep_id, sender->processor, proc);
            for (LinkId link : used.links) {
              banned_links_[link.index()] = true;
            }
            for (ProcessorId hop : used.hops) {
              if (hop != sender->processor && hop != proc) {
                banned_procs_[hop.index()] = true;
              }
            }
          }
        }
        first = std::min(first, arrival);
      }
      return first;
    }
    // Base / solution 1: only the main replica sends; reuse any committed
    // delivery (bus broadcast or relay) observed by `proc`.
    const Time seen = avail(dep_id, 0, proc);
    if (!is_infinite(seen)) return seen;
    return transfer(dep_id, *schedule_.main(dep.src), proc, links, out);
  }

  /// Schedules the store-and-forward transfer of `dep` from `sender` to
  /// `proc`, returns its arrival date. The shortest route is used unless
  /// the caller forces a detour (disjoint routing). With `out`, commits the
  /// transfer and marks every processor that observes the value (link
  /// endpoints: bus broadcast / relay hops) in the availability table.
  template <class Links>
  Time transfer(DependencyId dep_id, const ScheduledOperation& sender,
                ProcessorId proc, Links& links, Schedule* out,
                Time not_before = 0, bool liveness = false,
                const Route* forced_route = nullptr) {
    const Route& route = forced_route != nullptr
                             ? *forced_route
                             : static_route(dep_id, sender.processor, proc);
    Time at = std::max(sender.end, not_before);
    if (out == nullptr) {
      // Tentative: only the arrival date matters; build no comm record.
      for (LinkId link : route.links) {
        const Time start = std::max(links.get(link), at);
        at = start + comm().duration_fast(dep_id, link);
        links.set(link, at);
      }
      return at;
    }
    ScheduledComm record;
    record.dep = dep_id;
    record.sender_rank = sender.rank;
    record.from = sender.processor;
    record.to = proc;
    record.liveness = liveness;
    for (LinkId link : route.links) {
      const Time start = std::max(links.get(link), at);
      const Time end = start + comm().duration_fast(dep_id, link);
      links.set(link, end);
      at = end;
      record.segments.push_back(CommSegment{link, start, end});
    }
    for (const CommSegment& seg : record.segments) {
      for (ProcessorId endpoint : arch().link(seg.link).endpoints) {
        Time& slot = avail(dep_id, sender.rank, endpoint);
        slot = std::min(slot, seg.end);
        // Consecutive route segments share their relay endpoint (and on a
        // bus every segment shares all endpoints): record each observer
        // once, keeping first-delivery order.
        if (std::find(record.delivered_to.begin(),
                      record.delivered_to.end(),
                      endpoint) == record.delivered_to.end()) {
          record.delivered_to.push_back(endpoint);
        }
      }
    }
    out->add_comm(std::move(record));
    return at;
  }

  /// mSn.3: commits the chosen operation on its K+1 processors, main first.
  /// Ranks are re-derived from the actual completion dates, which can differ
  /// from the evaluated ones once the replicas' transfers interact on links.
  void commit(OperationId op) {
    const Assignment* kept = kept_row(op);
    CommitLinks links{*this};
    placements_.clear();
    for (std::size_t i = 0; i < static_cast<std::size_t>(replicas_); ++i) {
      const ProcessorId proc = kept[i].proc;
      const Time data = data_ready(op, proc, links, &schedule_);
      const Time start = std::max(data, proc_ready_[proc.index()]);
      const Time end = start + exec().duration_fast(op, proc);
      proc_ready_[proc.index()] = end;
      local_end_[op.index() * proc_count_ + proc.index()] = end;
      placements_.push_back(ScheduledOperation{op, 0, proc, start, end});
    }
    std::stable_sort(placements_.begin(), placements_.end(),
                     [](const ScheduledOperation& a,
                        const ScheduledOperation& b) {
                       return time_lt(a.end, b.end);
                     });
    for (std::size_t rank = 0; rank < placements_.size(); ++rank) {
      placements_[rank].rank = static_cast<int>(rank);
      schedule_.add_operation(placements_[rank]);
    }
  }

  /// Dependencies into mem operations carry no intra-iteration precedence
  /// but their values must still reach every mem replica before the next
  /// iteration; transfer them once everything is placed (§4.2 item 2).
  void schedule_mem_inputs() {
    CommitLinks links{*this};
    for (const Dependency& dep : graph().dependencies()) {
      if (graph().is_precedence(dep.id)) continue;
      for (const ScheduledOperation* replica :
           schedule_.replicas_view(dep.dst)) {
        dependency_arrival(dep.id, replica->processor, links, &schedule_);
      }
    }
  }

  /// Solution 1: the main replica sends its result "to all the processors
  /// executing a replica of each successor operation ... and to all the
  /// backup processors of o" (§6.1). The second half is a liveness signal:
  /// a backup that never observes the main's transfer cannot tell a healthy
  /// main from a dead one. On a bus the consumer broadcast covers every
  /// backup for free; on point-to-point links explicit transfers must be
  /// added — this is precisely the extra cost that makes solution 1
  /// ill-suited to point-to-point architectures (§6.1 item 1).
  void schedule_liveness_comms() {
    CommitLinks links{*this};
    // The transfer that certifies each main finished distributing: the
    // latest-ending consumer delivery of the dependency. One pass over the
    // committed comms (comms_of would rescan the whole list per
    // dependency), indexes not pointers — the appends below reallocate.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::size_t> final_of(graph().dependency_count(), kNone);
    for (std::size_t i = 0; i < schedule_.comms().size(); ++i) {
      const ScheduledComm& comm = schedule_.comms()[i];
      if (!comm.active || comm.liveness || comm.segments.empty()) continue;
      std::size_t& slot = final_of[comm.dep.index()];
      if (slot == kNone ||
          time_ge(comm.segments.back().end,
                  schedule_.comms()[slot].segments.back().end)) {
        slot = i;
      }
    }
    for (const Dependency& dep : graph().dependencies()) {
      if (dep_active(dep.id)) continue;
      bool remote_consumer = false;
      for (const ScheduledOperation* consumer :
           schedule_.replicas_view(dep.dst)) {
        if (is_infinite(local_end_[dep.src.index() * proc_count_ +
                                   consumer->processor.index()])) {
          remote_consumer = true;
          break;
        }
      }
      if (!remote_consumer) continue;
      const ScheduledComm* final_comm =
          final_of[dep.id.index()] == kNone
              ? nullptr
              : &schedule_.comms()[final_of[dep.id.index()]];
      const Time final_end =
          final_comm == nullptr ? 0 : final_comm->segments.back().end;
      for (const ScheduledOperation* backup :
           schedule_.replicas_view(dep.src)) {
        if (backup->is_main()) continue;
        // A backup that observes the final consumer delivery on one of its
        // own links (always the case on a bus) needs no extra signal.
        bool observes_final = false;
        if (final_comm != nullptr) {
          for (const CommSegment& seg : final_comm->segments) {
            if (arch().link(seg.link).connects(backup->processor)) {
              observes_final = true;
              break;
            }
          }
        }
        if (observes_final) continue;
        transfer(dep.id, *schedule_.main(dep.src), backup->processor,
                 links, &schedule_, /*not_before=*/final_end,
                 /*liveness=*/true);
      }
    }
  }

  /// Solution 1's backup OpComm procedures (Figure 12): for every
  /// dependency that has at least one remote consumer, each backup replica
  /// of the producer holds an election position and sends only on failure.
  void add_passive_comms() {
    for (const Dependency& dep : graph().dependencies()) {
      if (dep_active(dep.id)) continue;
      std::vector<ProcessorId> consumers;
      for (const ScheduledOperation* replica :
           schedule_.replicas_view(dep.dst)) {
        if (is_infinite(local_end_[dep.src.index() * proc_count_ +
                                   replica->processor.index()])) {
          consumers.push_back(replica->processor);
        }
      }
      if (consumers.empty()) continue;
      for (const ScheduledOperation* sender :
           schedule_.replicas_view(dep.src)) {
        if (sender->is_main()) continue;
        ScheduledComm passive;
        passive.dep = dep.id;
        passive.sender_rank = sender->rank;
        passive.from = sender->processor;
        passive.to = consumers.front();
        passive.delivered_to = consumers;
        passive.active = false;
        schedule_.add_comm(std::move(passive));
      }
    }
  }

  const Problem& problem_;
  HeuristicKind kind_;
  SchedulerOptions options_;
  int replicas_;
  RoutingTable routing_;
  Schedule schedule_;
  DagTiming timing_;
  std::size_t proc_count_ = 0;

  std::vector<Time> proc_ready_;
  std::vector<Time> link_ready_;
  /// avail(dep, sender rank, proc): earliest committed availability of the
  /// dependency's value on the processor, kInfinite if never delivered.
  /// One contiguous array (dep-major, then rank, then processor) — the
  /// previous vector<vector<vector<Time>>> cost two indirections per read
  /// in the innermost dependency_arrival loop.
  std::vector<Time> avail_;
  std::size_t avail_dep_stride_ = 0;
  /// Static precomputes (init_state): cheapest single-link transfer
  /// duration per dependency, and the successor-placement penalty per
  /// (operation, processor) derived from it.
  std::vector<Time> cheapest_comm_;
  std::vector<Time> penalty_;
  /// Flattened precedence CSR tables (init_state) — avoid the per-call
  /// vector the graph accessors build.
  std::vector<std::size_t> pred_offset_;
  std::vector<DependencyId> pred_deps_;
  std::vector<std::size_t> succ_offset_;
  std::vector<OperationId> succ_ops_;
  /// Completion date of op's committed replica on proc, kInfinite if none:
  /// the hot-path equivalent of Schedule::replica_on(op, proc)->end.
  std::vector<Time> local_end_;

  /// Per operation: the K+1 assignments its latest keep_best() kept, as one
  /// flat row-major array.
  std::vector<Assignment> kept_;
  /// Evaluations computed, for Schedule::work.
  SchedulerWork work_;

  // --- per-evaluation scratch, sized once in init_state ---
  /// Epoch-stamped tentative link timeline (ScratchLinks).
  std::vector<Time> scratch_links_;
  std::vector<std::uint64_t> scratch_epoch_;
  std::uint64_t epoch_ = 0;
  /// keep_best working set and commit placement buffer.
  std::vector<Assignment> all_scratch_;
  std::vector<ScheduledOperation> placements_;
  /// Disjoint-routing ban sets (only touched under disjoint_comm_routes).
  std::vector<bool> banned_links_;
  std::vector<bool> banned_procs_;

  // --- scheduling constraints (empty set: every table stays empty and the
  // hot paths test one boolean) ---
  bool has_place_constraints_ = false;
  bool has_link_constraints_ = false;
  /// Per (operation, processor): 1 = placement forbidden.
  std::vector<char> forbidden_;
  /// Per operation: processors its kept set must contain.
  std::vector<std::vector<ProcessorId>> pinned_on_;
  /// Per dependency: index into dep_banned_links_/dep_routes_, -1 = none.
  std::vector<std::int32_t> dep_route_slot_;
  std::vector<std::vector<bool>> dep_banned_links_;
  /// Per slot: procs x procs avoid-route matrix (see static_route).
  std::vector<std::vector<Route>> dep_routes_;
  /// keep_best pinned-selection scratch.
  std::vector<char> pin_selected_;
};

/// Runs the engine on a connected architecture. The engine's routing
/// table needs a route between every two processors, so a disconnected
/// one is reported here, before the engine is built.
Expected<Schedule> run_engine(const Problem& problem, HeuristicKind kind,
                              SchedulerOptions options) {
  if (!problem.architecture->is_connected()) {
    return Error{Error::Code::kNoRoute,
                 join(problem.architecture->check(), "; ")};
  }
  return Engine(problem, kind, std::move(options)).run();
}

}  // namespace

Expected<Schedule> schedule_base(const Problem& problem,
                                 SchedulerOptions options) {
  return run_engine(problem, HeuristicKind::kBase, std::move(options));
}

Expected<Schedule> schedule_solution1(const Problem& problem,
                                      SchedulerOptions options) {
  return run_engine(problem, HeuristicKind::kSolution1, std::move(options));
}

Expected<Schedule> schedule_solution2(const Problem& problem,
                                      SchedulerOptions options) {
  return run_engine(problem, HeuristicKind::kSolution2, std::move(options));
}

Expected<Schedule> schedule_hybrid_with_policy(const Problem& problem,
                                               SchedulerOptions options) {
  return run_engine(problem, HeuristicKind::kHybrid, std::move(options));
}

Expected<Schedule> schedule(const Problem& problem, HeuristicKind kind,
                            SchedulerOptions options) {
  return run_engine(problem, kind, std::move(options));
}

}  // namespace ftsched
