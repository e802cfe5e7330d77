// Scheduler-backed event queue for the discrete-event simulator, modelled
// on ns-3's pluggable Scheduler hierarchy: one value-semantic facade over
// two interchangeable implementations — a binary heap (the default, best
// for the small runs a single iteration produces) and a calendar queue
// (bucketed by time over the schedule horizon, best when a run carries
// hundreds of pending events). Both yield the exact same pop sequence:
// events are totally ordered by (time, kind, seq), `seq` being the push
// order, so there are no ties for an implementation to break differently.
// The queue is copyable (Simulator::Branch::fork deep-copies the run
// state) and resettable without releasing storage (per-worker scratch
// reuse across a campaign chunk), and never allocates per event — the
// calendar keeps its events in one flat slot array chained through an
// index-based free list, not in per-bucket containers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/time.hpp"

namespace ftsched {

/// Which event-queue implementation a Simulator run uses. kAuto picks the
/// calendar queue for dense plans (enough expected events over a positive
/// horizon for bucketing to pay off) and the binary heap otherwise.
enum class EventSchedulerKind {
  kAuto,
  kBinaryHeap,
  kCalendar,
};

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

/// The total order both implementations serve. `time` is compared exactly
/// (bitwise on doubles, like the original priority_queue comparator): two
/// instants within kTimeEpsilon are distinct queue positions, and the
/// batch-draining loop relies on exact equality to group an instant.
[[nodiscard]] inline bool event_before(const Event& a,
                                       const Event& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.seq < b.seq;
}

class EventQueue {
 public:
  /// Re-arms the queue for a fresh run: clears any pending events (keeping
  /// the storage), resolves kAuto against the plan's expected event count
  /// and horizon, and sizes the calendar's buckets. Must be called before
  /// the first push of a run.
  void configure(EventSchedulerKind kind, Time horizon,
                 std::size_t expected_events);

  void push(const Event& event);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The minimum pending event. Requires !empty(). Non-const: the calendar
  /// locates (and caches) the minimum lazily.
  [[nodiscard]] const Event& top() {
    if (!calendar_) return heap_.front();
    if (!have_min_) find_min();
    return slots_[min_slot_];
  }

  /// Removes the minimum pending event. Requires !empty().
  void pop();

  /// The implementation configure() resolved to (never kAuto).
  [[nodiscard]] EventSchedulerKind scheduler() const noexcept {
    return calendar_ ? EventSchedulerKind::kCalendar
                     : EventSchedulerKind::kBinaryHeap;
  }

 private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  void find_min();

  bool calendar_ = false;
  std::size_t size_ = 0;

  // Binary heap (std::push_heap/pop_heap over one vector).
  std::vector<Event> heap_;

  // Calendar queue: slots_[i] chained through next_[i] into per-bucket
  // singly linked lists; removed slots are recycled through free_. All flat
  // vectors, so copying a paused run copies three arrays, never N buckets.
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

/// std heap helpers build a max-heap; invert the order for a min-queue.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return event_before(b, a);
  }
};

inline void EventQueue::push(const Event& event) {
  ++size_;
  if (!calendar_) {
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
    return;
  }

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
  if (!calendar_) {
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    heap_.pop_back();
    return;
  }
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
