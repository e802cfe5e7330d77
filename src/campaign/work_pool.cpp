#include "campaign/work_pool.hpp"

#include <algorithm>
#include <thread>
#include <vector>

namespace ftsched::campaign {

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

namespace detail {

/// The process-wide helper threads. Idle threads sleep on one condition
/// variable; an open call stays in the queue until as many helpers as it
/// asked for have joined it or its caller withdraws it.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Queues `loop` for `helpers` helpers, first growing the pool to that
  /// many threads (a thread that fails to start throws before the loop is
  /// queued).
  void offer(OrderedLoop& loop, unsigned helpers) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      while (threads_.size() < helpers) {
        threads_.emplace_back([this] { work(); });
      }
      loop.wanted_ = helpers;
      open_.push_back(&loop);
    }
    for (unsigned h = 0; h < helpers; ++h) work_ready_.notify_one();
  }

  /// Withdraws whatever help `loop` has not received yet, then waits until
  /// every helper that joined it has left.
  void retire(OrderedLoop& loop) {
    std::unique_lock<std::mutex> lock(mutex_);
    std::erase(open_, &loop);
    loop.helpers_left_.wait(lock, [&] { return loop.active_ == 0; });
  }

  [[nodiscard]] unsigned size() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<unsigned>(threads_.size());
  }

 private:
  void work() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_ready_.wait(lock, [this] { return stopping_ || !open_.empty(); });
      if (stopping_) return;
      OrderedLoop& loop = *open_.front();
      const unsigned slot = ++loop.joined_;
      ++loop.active_;
      if (loop.joined_ == loop.wanted_) open_.erase(open_.begin());
      lock.unlock();
      loop.participate(slot);
      lock.lock();
      // Notified under the mutex: the caller cannot wake, return and
      // destroy the loop before this thread is done touching it.
      if (--loop.active_ == 0) loop.helpers_left_.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::vector<OrderedLoop*> open_;  // calls still wanting helpers, oldest first
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

namespace {

Pool& pool() {
  static Pool instance;
  return instance;
}

}  // namespace

OrderedLoop::OrderedLoop(unsigned threads, std::size_t n,
                         const std::function<bool()>& cancelled)
    : n_(n),
      participants_(std::min<std::size_t>(resolve_threads(threads), n)),
      cancelled_(cancelled) {}

bool OrderedLoop::execute() {
  const unsigned helpers =
      participants_ > 1 ? static_cast<unsigned>(participants_ - 1) : 0;
  if (helpers > 0) pool().offer(*this, helpers);
  participate(0);
  if (helpers > 0) pool().retire(*this);
  if (error_) std::rethrow_exception(error_);
  return !stop_.load(std::memory_order_relaxed);
}

void OrderedLoop::participate(unsigned slot) {
  try {
    for (std::size_t i = claim(); i < n_; i = claim()) call_(step_, slot, i);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!error_) error_ = std::current_exception();
    stop_.store(true, std::memory_order_relaxed);
    window_moved.notify_all();
  }
}

std::size_t OrderedLoop::claim() {
  if (stop_.load(std::memory_order_relaxed) ||
      next_.load(std::memory_order_relaxed) >= n_) {
    return n_;
  }
  if (cancelled_ && cancelled_()) {
    stop_.store(true, std::memory_order_relaxed);
    return n_;
  }
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  return std::min(i, n_);
}

}  // namespace detail

unsigned pool_size() { return detail::pool().size(); }

}  // namespace ftsched::campaign
