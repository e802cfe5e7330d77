// The event queue's core contract: for any push/pop interleaving it serves
// the order a test-local reference serves (the minimum by event_before over
// a plain vector), because events are totally ordered by (time, kind, seq).
// Also pins the pieces the simulator leans on: same-instant kind precedence
// (deliveries before completions before failures before deadlines), FIFO
// among full ties, copyability (Branch::fork deep-copies a paused queue),
// reconfiguration without storage loss, a zero horizon, and times at or
// past the horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"

namespace ftsched::sim_detail {
namespace {

Event make_event(Time time, EventKind kind, std::uint32_t seq,
                 std::uint32_t index = 0) {
  Event event;
  event.time = time;
  event.seq = seq;
  event.index = index;
  event.kind = kind;
  return event;
}

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.seq == b.seq && a.index == b.index &&
         a.kind == b.kind;
}

/// The reference: every pending event in one vector, the minimum found by
/// a linear scan with event_before.
class ReferenceQueue {
 public:
  void push(const Event& event) { pending_.push_back(event); }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] const Event& top() const { return *min(); }
  void pop() { pending_.erase(min()); }

 private:
  [[nodiscard]] std::vector<Event>::const_iterator min() const {
    return std::min_element(pending_.begin(), pending_.end(), event_before);
  }
  std::vector<Event> pending_;
};

TEST(EventQueue, KindPrecedenceAtOneInstant) {
  // Pushed in scrambled order; popped in kind order (the same-instant
  // processing order the simulator's semantics depend on).
  const EventKind want[] = {EventKind::kHopDone, EventKind::kOpDone,
                            EventKind::kFailure, EventKind::kLinkFailure,
                            EventKind::kDeadline};
  EventQueue queue;
  queue.configure(10.0, 8);
  std::uint32_t seq = 0;
  queue.push(make_event(5.0, EventKind::kDeadline, seq++));
  queue.push(make_event(5.0, EventKind::kFailure, seq++));
  queue.push(make_event(5.0, EventKind::kHopDone, seq++));
  queue.push(make_event(5.0, EventKind::kLinkFailure, seq++));
  queue.push(make_event(5.0, EventKind::kOpDone, seq++));
  for (const EventKind expected : want) {
    ASSERT_FALSE(queue.empty());
    EXPECT_EQ(queue.top().kind, expected);
    queue.pop();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, FullTiesPopInPushOrder) {
  // Same time, same kind: FIFO by seq — push order is the tie-break, so
  // the bucket chains cannot reorder equal-priority events.
  EventQueue queue;
  queue.configure(10.0, 16);
  for (std::uint32_t i = 0; i < 12; ++i) {
    queue.push(make_event(3.0, EventKind::kHopDone, i, 100 + i));
  }
  for (std::uint32_t i = 0; i < 12; ++i) {
    ASSERT_EQ(queue.top().seq, i);
    EXPECT_EQ(queue.top().index, 100 + i);
    queue.pop();
  }
}

TEST(EventQueue, CalendarMatchesReferenceOnRandomWorkloads) {
  // Property test: random interleavings of pushes (clustered times, many
  // exact ties, boundary times 0 and the horizon, out-of-horizon and
  // infinite stragglers) and pops, for expected event counts that size
  // 16, 32, 128, 512 and 1,024 buckets and for a zero horizon. The queue
  // must serve the reference's sequence at every step.
  std::mt19937_64 rng(20260809);
  const std::size_t expected_counts[] = {8, 64, 200, 700, 3000};
  for (const std::size_t expected : expected_counts) {
    for (int round = 0; round < 12; ++round) {
      // Round 0 runs a zero horizon; its times spread over [0, 2).
      const Time horizon = round == 0 ? 0.0 : static_cast<Time>(round);
      const Time unit = round == 0 ? 1.0 / 16.0 : horizon / 16.0;
      EventQueue queue;
      queue.configure(horizon, expected);
      ReferenceQueue reference;

      std::uint32_t seq = 0;
      const int ops = 600;
      for (int op = 0; op < ops; ++op) {
        const bool push = reference.empty() || (rng() % 3) != 0;
        if (push) {
          // Quantized times force frequent exact ties; half land at or
          // past the horizon, some exactly at 0, and one in 64 at
          // +infinity.
          Time t = static_cast<Time>(rng() % 32) * unit;
          if (rng() % 64 == 0) t = kInfinite;
          const EventKind kind = static_cast<EventKind>(rng() % 5);
          const Event event = make_event(t, kind, seq, seq);
          ++seq;
          queue.push(event);
          reference.push(event);
        } else {
          ASSERT_TRUE(same_event(queue.top(), reference.top()))
              << "expected " << expected << " round " << round << " op "
              << op;
          queue.pop();
          reference.pop();
        }
        ASSERT_EQ(queue.size(), reference.size());
      }
      std::size_t step = 0;
      while (!reference.empty()) {
        const Event& q = queue.top();
        const Event& r = reference.top();
        ASSERT_TRUE(same_event(q, r))
            << "expected " << expected << " round " << round << " drain "
            << step << ": queue (t=" << q.time << " kind="
            << static_cast<int>(q.kind) << " seq=" << q.seq
            << ") vs reference (t=" << r.time << " kind="
            << static_cast<int>(r.kind) << " seq=" << r.seq << ")";
        queue.pop();
        reference.pop();
        ++step;
      }
      EXPECT_TRUE(queue.empty());
    }
  }
}

TEST(EventQueue, CopyPreservesThePendingSet) {
  // Branch::fork copies SimState by value, event queue included: the copy
  // must drain identically to the original, and draining one must not
  // disturb the other.
  EventQueue original;
  original.configure(20.0, 64);
  std::mt19937_64 rng(7);
  for (std::uint32_t i = 0; i < 50; ++i) {
    original.push(make_event(static_cast<Time>(rng() % 40) * 0.5,
                             static_cast<EventKind>(rng() % 5), i, i));
  }
  // Pop a few so the free list and the cached minimum are live.
  for (int i = 0; i < 10; ++i) original.pop();

  EventQueue copy = original;
  std::vector<Event> from_original;
  std::vector<Event> from_copy;
  while (!copy.empty()) {
    from_copy.push_back(copy.top());
    copy.pop();
  }
  while (!original.empty()) {
    from_original.push_back(original.top());
    original.pop();
  }
  ASSERT_EQ(from_original.size(), from_copy.size());
  for (std::size_t i = 0; i < from_original.size(); ++i) {
    EXPECT_TRUE(same_event(from_original[i], from_copy[i])) << "pop " << i;
  }
}

TEST(EventQueue, ReconfigureClearsPendingEvents) {
  // configure() re-arms for a fresh run: leftovers from the previous run
  // must be gone whatever horizons and bucket counts either run used.
  const Time horizons[] = {10.0, 5.0, 0.0};
  for (const Time before : horizons) {
    for (const Time after : horizons) {
      EventQueue queue;
      queue.configure(before, 32);
      for (std::uint32_t i = 0; i < 20; ++i) {
        queue.push(make_event(1.0 + i, EventKind::kOpDone, i));
      }
      queue.pop();
      queue.configure(after, 512);
      EXPECT_TRUE(queue.empty());
      EXPECT_EQ(queue.size(), 0u);
      queue.push(make_event(2.0, EventKind::kDeadline, 0));
      ASSERT_EQ(queue.size(), 1u);
      EXPECT_EQ(queue.top().kind, EventKind::kDeadline);
      queue.pop();
      EXPECT_TRUE(queue.empty());
    }
  }
}

TEST(EventQueue, ZeroHorizonOrdersEveryEventInOneBucket) {
  // A zero-width horizon has nothing to divide into buckets: every event,
  // at 0, past 0 or at infinity, shares one bucket and still pops in
  // (time, kind, seq) order.
  EventQueue queue;
  queue.configure(0.0, 128);
  queue.push(make_event(kInfinite, EventKind::kDeadline, 0));
  queue.push(make_event(3.0, EventKind::kOpDone, 1));
  queue.push(make_event(0.0, EventKind::kFailure, 2));
  queue.push(make_event(0.0, EventKind::kHopDone, 3));
  queue.push(make_event(3.0, EventKind::kOpDone, 4));
  queue.push(make_event(1e-9, EventKind::kHopDone, 5));
  const std::uint32_t want[] = {3, 2, 5, 1, 4, 0};
  for (const std::uint32_t seq : want) {
    ASSERT_FALSE(queue.empty());
    EXPECT_EQ(queue.top().seq, seq);
    queue.pop();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CalendarHandlesOutOfHorizonTimes) {
  // Far-future (or infinite) event times land in the last bucket — a
  // linear-scan degradation, never an ordering break.
  EventQueue queue;
  queue.configure(4.0, 128);
  queue.push(make_event(kInfinite, EventKind::kDeadline, 0));
  queue.push(make_event(3.0, EventKind::kOpDone, 1));
  queue.push(make_event(0.0, EventKind::kHopDone, 2));
  queue.push(make_event(1e12, EventKind::kOpDone, 3));
  ASSERT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.top().seq, 2u);
  queue.pop();
  EXPECT_EQ(queue.top().seq, 1u);
  queue.pop();
  EXPECT_EQ(queue.top().seq, 3u);
  queue.pop();
  EXPECT_EQ(queue.top().kind, EventKind::kDeadline);
  queue.pop();
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace ftsched::sim_detail
