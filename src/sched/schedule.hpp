// Static distributed schedule: the output of every heuristic in this
// library and the input of the executive generator and the simulator.
//
// A schedule places K+1 replicas of every operation on K+1 distinct
// processors (K = 0 for the non-fault-tolerant baseline) and materializes
// the inter-processor communications the placement implies:
//
//  * active communications occupy time on links in the failure-free run
//    (all comms of the baseline and of solution 2; the main replica's sends
//    in solution 1);
//  * passive communications (solution 1 only) are the backup replicas'
//    OpComm procedures of Figure 12: they hold a statically computed
//    election position and materialize on a link only after a failure.
//
// Replicas of one operation are totally ordered by `rank`: rank 0 is the
// main replica (earliest completion date, §6.1 item 4), ranks 1..K are the
// backups in election order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/characteristics.hpp"
#include "core/ids.hpp"
#include "core/time.hpp"

namespace ftsched {

enum class HeuristicKind {
  /// Non-fault-tolerant SynDEx baseline (§4.4): K = 0, no replication.
  kBase,
  /// Solution 1 (§6): active replication of operations, time redundancy of
  /// communications (only the main replica sends; backups watch timeouts).
  kSolution1,
  /// Solution 2 (§7): active replication of operations AND communications
  /// (all replicas send; receivers keep the first arrival).
  kSolution2,
  /// Hybrid (§5.3's redundancy trade-off): solution 1's operation
  /// replication with a per-dependency choice between time-redundant
  /// (passive backups + timeouts) and actively replicated communications.
  kHybrid,
};

[[nodiscard]] std::string to_string(HeuristicKind kind);

/// True for the heuristics whose schedules carry watch chains, solution 1
/// and the hybrid: backups guard their passive (time-redundant)
/// communications with timeouts and elections.
[[nodiscard]] constexpr bool has_watch_chains(HeuristicKind kind) noexcept {
  return kind == HeuristicKind::kSolution1 || kind == HeuristicKind::kHybrid;
}

/// One replica of one operation placed on one processor.
struct ScheduledOperation {
  OperationId op;
  /// Election position: 0 = main replica, 1..K = backups by completion date.
  int rank = 0;
  ProcessorId processor;
  Time start = 0;
  Time end = 0;

  [[nodiscard]] bool is_main() const noexcept { return rank == 0; }
  [[nodiscard]] Interval interval() const noexcept { return {start, end}; }
};

/// Occupation of one link by one communication (one hop of its route).
struct CommSegment {
  LinkId link;
  Time start = 0;
  Time end = 0;

  [[nodiscard]] Interval interval() const noexcept { return {start, end}; }
};

/// One inter-processor transfer of one data-dependency's value.
struct ScheduledComm {
  DependencyId dep;
  /// Rank of the sending replica of the dependency's source operation.
  int sender_rank = 0;
  ProcessorId from;
  /// The destination processor this transfer was created for.
  ProcessorId to;
  /// Every processor that observes the value (on a bus broadcast, all
  /// endpoints of the bus; on point-to-point, the route's hops).
  std::vector<ProcessorId> delivered_to;
  /// Link occupation per hop, in route order. Empty for passive comms.
  std::vector<CommSegment> segments;
  /// False for solution 1's backup OpComm entries, which send only after a
  /// failure and occupy no link time in the failure-free run.
  bool active = true;
  /// Solution 1 on point-to-point links: an explicit end-of-distribution
  /// send from the main replica to a backup processor, scheduled after
  /// every consumer delivery of the dependency, so the backup can certify
  /// that the main completed its sends (§6.1: the main sends "to all the
  /// backup processors of o"). Never needed on a bus, where the single
  /// consumer broadcast doubles as the certificate.
  bool liveness = false;

  /// Nominal delivery date at `to` (end of the last segment).
  [[nodiscard]] Time arrival() const {
    return segments.empty() ? kInfinite : segments.back().end;
  }
};

/// Non-allocating view over the replicas of one operation, ascending rank.
/// A borrowed range: valid until the next add_operation on the schedule.
/// This is the hot-path alternative to Schedule::replicas(), which builds a
/// std::vector of pointers per call — the scheduler's inner loop and the
/// simulator's watcher machinery iterate replicas millions of times per
/// campaign, so the query must not touch the heap.
class ReplicaView {
 public:
  class iterator {
   public:
    using value_type = const ScheduledOperation*;
    constexpr iterator(const std::size_t* at,
                       const ScheduledOperation* ops) noexcept
        : at_(at), ops_(ops) {}
    const ScheduledOperation* operator*() const noexcept {
      return &ops_[*at_];
    }
    iterator& operator++() noexcept {
      ++at_;
      return *this;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const std::size_t* at_;
    const ScheduledOperation* ops_;
  };

  constexpr ReplicaView() noexcept = default;
  constexpr ReplicaView(const std::size_t* first, std::size_t count,
                        const ScheduledOperation* ops) noexcept
      : first_(first), count_(count), ops_(ops) {}

  [[nodiscard]] iterator begin() const noexcept { return {first_, ops_}; }
  [[nodiscard]] iterator end() const noexcept {
    return {first_ + count_, ops_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Rank-`i` replica. Precondition: i < size().
  [[nodiscard]] const ScheduledOperation& operator[](
      std::size_t i) const noexcept {
    return ops_[first_[i]];
  }
  /// The main replica. Precondition: !empty().
  [[nodiscard]] const ScheduledOperation& front() const noexcept {
    return ops_[first_[0]];
  }

 private:
  const std::size_t* first_ = nullptr;
  std::size_t count_ = 0;
  const ScheduledOperation* ops_ = nullptr;
};

/// The work the list scheduler's select loop did to build a schedule: a
/// pure function of (problem, options), pinned by the Cost.* tests. Not
/// part of the schedule: schedule_hash, the exporters and the goldens
/// ignore it.
struct SchedulerWork {
  /// (candidate, processor) pressure evaluations computed.
  std::size_t evaluations = 0;
};

class Schedule {
 public:
  Schedule(const Problem& problem, HeuristicKind kind);

  [[nodiscard]] const Problem& problem() const noexcept { return *problem_; }
  [[nodiscard]] HeuristicKind kind() const noexcept { return kind_; }
  /// K, the number of tolerated failures this schedule was built for.
  [[nodiscard]] int failures_tolerated() const noexcept { return k_; }

  /// True when `dep`'s value travels by actively replicated transfers
  /// (every producer replica sends, first arrival wins) rather than by the
  /// time-redundant main-sends/backups-watch protocol. All-true under
  /// solution 2, all-false under solution 1, per-dependency under the
  /// hybrid; irrelevant for the baseline (single replicas).
  [[nodiscard]] bool uses_active_comms(DependencyId dep) const;

  /// Marks `dep` as actively replicated (set by the hybrid engine).
  void set_active_comms(DependencyId dep);

  /// Count of actively replicated dependencies.
  [[nodiscard]] std::size_t active_comm_dep_count() const;

  /// Records a replica placement. Replicas of one op must be added in rank
  /// order on distinct processors.
  void add_operation(const ScheduledOperation& placement);
  void add_comm(ScheduledComm comm);

  [[nodiscard]] const std::vector<ScheduledOperation>& operations()
      const noexcept {
    return ops_;
  }
  [[nodiscard]] const std::vector<ScheduledComm>& comms() const noexcept {
    return comms_;
  }

  /// All replicas of `op`, ascending rank. Empty if not (yet) scheduled.
  /// Allocates a pointer vector per call; hot paths use replicas_view().
  [[nodiscard]] std::vector<const ScheduledOperation*> replicas(
      OperationId op) const;

  /// Allocation-free variant of replicas(): a borrowed view, invalidated by
  /// the next add_operation.
  [[nodiscard]] ReplicaView replicas_view(OperationId op) const {
    const auto& index = replica_index_[op.index()];
    return {index.data(), index.size(), ops_.data()};
  }

  /// The main replica of `op`; nullptr if not scheduled.
  [[nodiscard]] const ScheduledOperation* main(OperationId op) const;

  /// The replica of `op` on `proc`; nullptr if none.
  [[nodiscard]] const ScheduledOperation* replica_on(OperationId op,
                                                     ProcessorId proc) const;

  [[nodiscard]] bool is_scheduled(OperationId op) const {
    return !replica_index_[op.index()].empty();
  }

  /// Replica placements on `proc`, ascending start date.
  [[nodiscard]] std::vector<const ScheduledOperation*> operations_on(
      ProcessorId proc) const;

  /// Active communication segments crossing `link`, ascending start date.
  [[nodiscard]] std::vector<std::pair<const ScheduledComm*, const CommSegment*>>
  segments_on(LinkId link) const;

  /// Active transfers carrying `dep`.
  [[nodiscard]] std::vector<const ScheduledComm*> comms_of(
      DependencyId dep) const;

  /// End of the failure-free run: max completion over replicas and active
  /// communication segments.
  [[nodiscard]] Time makespan() const;

  /// Count of active inter-processor transfers (the paper's message-count
  /// metric of §6.4).
  [[nodiscard]] std::size_t active_comm_count() const;

  /// Hop sequence (from, relays..., to) of an active comm, reconstructed
  /// from its segments — the route it was actually scheduled on, which may
  /// differ from the shortest one under disjoint routing. hops[i] feeds
  /// segment i. Precondition: the comm has segments forming a contiguous
  /// route (enforced by the validator).
  [[nodiscard]] std::vector<ProcessorId> comm_hops(
      const ScheduledComm& comm) const;

  /// What the scheduler spent building this schedule (zero for schedules
  /// assembled by hand).
  [[nodiscard]] const SchedulerWork& work() const noexcept { return work_; }
  void set_work(const SchedulerWork& work) noexcept { work_ = work; }

 private:
  const Problem* problem_;
  HeuristicKind kind_;
  int k_;
  std::vector<ScheduledOperation> ops_;
  std::vector<ScheduledComm> comms_;
  /// Per operation: indices into ops_, ascending rank.
  std::vector<std::vector<std::size_t>> replica_index_;
  /// Per dependency: hybrid per-dependency comm policy (see
  /// uses_active_comms).
  std::vector<char> active_comm_;
  SchedulerWork work_;
};

/// FNV-1a digest of every byte of scheduling output: kind, K, per-dependency
/// comm policy, each replica placement (op, rank, processor, start, end) and
/// each communication (dep, sender rank, endpoints, delivered_to, segments,
/// flags), with times hashed by IEEE-754 bit pattern. Two schedules hash
/// equal iff the engine made byte-identical decisions — the determinism
/// contract the golden-hash test sweep pins across engine rewrites.
[[nodiscard]] std::uint64_t schedule_hash(const Schedule& schedule);

}  // namespace ftsched
