#include "sim/event_queue.hpp"

namespace ftsched::sim_detail {

void EventQueue::configure(Time horizon, std::size_t expected_events) {
  size_ = 0;
  // Aim for ~2 events per bucket across the horizon; events beyond the
  // horizon (late backup sends, injected faults past the makespan) all land
  // in the last bucket, which degrades to a linear scan but stays correct.
  // A horizon <= 0 has no width to divide: one bucket holds every event.
  nbuckets_ = 1;
  limit_ = 0;
  inv_width_ = 0;
  if (horizon > 0) {
    nbuckets_ = 16;
    while (nbuckets_ < 1024 && static_cast<std::size_t>(nbuckets_) * 2 <
                                   expected_events) {
      nbuckets_ *= 2;
    }
    limit_ = horizon;
    inv_width_ = static_cast<double>(nbuckets_) / horizon;
  }
  head_.assign(nbuckets_, kNil);
  slots_.clear();
  next_.clear();
  free_ = kNil;
  cursor_ = 0;
  have_min_ = false;
}

void EventQueue::find_min() {
  while (head_[cursor_] == kNil) ++cursor_;  // size_ > 0 guarantees a hit
  std::uint32_t prev = kNil;
  std::uint32_t best = head_[cursor_];
  std::uint32_t best_prev = kNil;
  for (std::uint32_t i = head_[cursor_]; i != kNil;) {
    if (i != best && event_before(slots_[i], slots_[best])) {
      best = i;
      best_prev = prev;
    }
    prev = i;
    i = next_[i];
  }
  min_bucket_ = cursor_;
  min_slot_ = best;
  min_prev_ = best_prev;
  have_min_ = true;
}

}  // namespace ftsched::sim_detail
