// Execution trace of one simulated iteration: the ground truth against
// which the fault-tolerance claims are tested, and the data behind the
// transient-iteration figures (18, 23).
#pragma once

#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/time.hpp"

namespace ftsched {

struct TraceEvent {
  enum class Kind {
    /// A replica started / finished executing on its processor.
    kOpStart,
    kOpEnd,
    /// One hop of a transfer started / finished on a link.
    kTransferStart,
    kTransferEnd,
    /// A watch deadline expired: `proc` marked `peer`'s unit faulty.
    kTimeout,
    /// A backup replica exhausted its watch chain and took over sending.
    kElection,
    /// A processor halted (fail-stop).
    kFailure,
    /// A transfer was cancelled (sender died / value already delivered).
    kDrop,
  };

  Kind kind;
  Time time = 0;
  ProcessorId proc;   // acting processor (op events, timeout observer, ...)
  ProcessorId peer;   // other party (transfer destination, accused sender)
  OperationId op;     // op events
  int rank = -1;      // replica rank for op/election events
  DependencyId dep;   // transfer/timeout/election events
  LinkId link;        // transfer events

  /// Exact (bitwise on `time`) equality — the fork-equivalence tests compare
  /// whole traces event by event.
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

[[nodiscard]] std::string to_string(TraceEvent::Kind kind);

class Trace {
 public:
  void record(TraceEvent event) { events_.push_back(std::move(event)); }

  /// Forgets every event, keeping the storage (scratch reuse across runs).
  void clear() noexcept { events_.clear(); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }

  [[nodiscard]] std::size_t count(TraceEvent::Kind kind) const;

  /// Completion date of the replica of `op` on `proc`; kInfinite if it never
  /// finished in this iteration.
  [[nodiscard]] Time op_end(OperationId op, ProcessorId proc) const;

  /// Human-readable listing, one line per event, for diagnostics.
  [[nodiscard]] std::string to_text(
      const class AlgorithmGraph& graph,
      const class ArchitectureGraph& arch) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace ftsched
