// The discrete-event simulator's event queue: a calendar queue bucketed by
// time over the schedule horizon. Events are totally ordered by
// (time, kind, seq), `seq` being the push order, so the pop sequence is
// unique. The queue is copyable (Simulator::Branch::fork deep-copies the
// run state) and resettable without releasing storage (per-worker scratch
// reuse across a campaign chunk), and never allocates per event: events
// live in one flat slot array chained through an index-based free list,
// not in per-bucket containers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/time.hpp"

namespace ftsched {

namespace sim_detail {

/// Event kinds, in same-instant processing order: deliveries first (a value
/// arriving exactly at a deadline satisfies the watcher), then completions,
/// then failures (an operation finishing at the failure instant counts),
/// then deadlines.
enum class EventKind : std::uint8_t {
  kHopDone = 0,
  kOpDone = 1,
  kFailure = 2,
  kLinkFailure = 3,
  kDeadline = 4,
};

struct Event {
  Time time;
  std::uint32_t seq;    // deterministic FIFO tie-break (push order)
  std::uint32_t index;  // proc / transfer / watcher index, per kind
  EventKind kind;
};

/// The total order the queue serves. `time` is compared exactly (bitwise on
/// doubles, like the original priority_queue comparator): two instants
/// within kTimeEpsilon are distinct queue positions, and the batch-draining
/// loop relies on exact equality to group an instant.
[[nodiscard]] inline bool event_before(const Event& a,
                                       const Event& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.seq < b.seq;
}

class EventQueue {
 public:
  /// Re-arms the queue for a fresh run: clears any pending events (keeping
  /// the storage) and sizes the buckets for `expected_events` over
  /// [0, horizon); a horizon <= 0 puts every event in one bucket. Must be
  /// called before the first push of a run.
  void configure(Time horizon, std::size_t expected_events);

  void push(const Event& event);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The minimum pending event. Requires !empty(). Non-const: the queue
  /// locates (and caches) the minimum lazily.
  [[nodiscard]] const Event& top() {
    if (!have_min_) find_min();
    return slots_[min_slot_];
  }

  /// Removes the minimum pending event. Requires !empty().
  void pop();

 private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  void find_min();

  std::size_t size_ = 0;

  // slots_[i] chained through next_[i] into per-bucket singly linked lists;
  // removed slots are recycled through free_. All flat vectors, so copying
  // a paused run copies three arrays, never N buckets.
  std::vector<Event> slots_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> head_;  // [bucket] -> first slot or kNil
  std::uint32_t free_ = kNil;
  std::uint32_t nbuckets_ = 0;
  double inv_width_ = 0;  // buckets per time unit
  Time limit_ = 0;        // times >= limit_ fall into the last bucket
  std::uint32_t cursor_ = 0;  // first possibly non-empty bucket
  // Cached minimum (bucket scan amortization).
  bool have_min_ = false;
  std::uint32_t min_slot_ = kNil;
  std::uint32_t min_prev_ = kNil;
  std::uint32_t min_bucket_ = 0;
};

// push/pop/top are defined here (not in event_queue.cpp) because the
// simulator calls them several times per event; keeping them inlinable
// into the batch-draining loop is a measurable share of campaign
// throughput. configure() and find_min() stay out-of-line.

inline void EventQueue::push(const Event& event) {
  ++size_;
  std::uint32_t slot;
  if (free_ != kNil) {
    slot = free_;
    free_ = next_[free_];
    slots_[slot] = event;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(event);
    next_.push_back(kNil);
  }

  std::uint32_t bucket;
  const Time t = event.time;
  if (!(t < limit_)) {
    bucket = nbuckets_ - 1;  // also catches +inf
  } else if (!(t > 0)) {
    bucket = 0;
  } else {
    bucket = std::min(static_cast<std::uint32_t>(t * inv_width_),
                      nbuckets_ - 1);
  }
  next_[slot] = head_[bucket];
  head_[bucket] = slot;
  if (bucket < cursor_) cursor_ = bucket;

  if (have_min_) {
    if (event_before(event, slots_[min_slot_])) {
      // The new event is the minimum; it sits at the head of its bucket.
      min_slot_ = slot;
      min_prev_ = kNil;
      min_bucket_ = bucket;
    } else if (bucket == min_bucket_ && min_prev_ == kNil) {
      // The cached minimum was its bucket's head; the new head now
      // precedes it in the chain.
      min_prev_ = slot;
    }
  }
}

inline void EventQueue::pop() {
  --size_;
  if (!have_min_) find_min();
  if (min_prev_ == kNil) {
    head_[min_bucket_] = next_[min_slot_];
  } else {
    next_[min_prev_] = next_[min_slot_];
  }
  next_[min_slot_] = free_;
  free_ = min_slot_;
  have_min_ = false;
}

}  // namespace sim_detail
}  // namespace ftsched
