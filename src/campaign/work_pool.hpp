// The library's one parallel runtime: a process-wide pool of helper
// threads and ordered_for, the one way work fans out across it. Campaign
// chunks and certification tasks run through it; repair rounds, frontier
// points and certifyd requests reach it through those two and reuse its
// warm threads.
//
// ordered_for(threads, n, run, emit) runs n indexed tasks on the calling
// thread plus at most min(threads, n) - 1 pool helpers. Every participant
// claims the next index from one atomic counter, so tasks start in index
// order. A finished result waits in a bounded window until every lower
// index has been emitted; whichever participant completes the lowest
// pending index then emits the ready run of results, one at a time. emit
// therefore sees exactly the stream a plain loop would produce. The window
// holds four results per participant: a participant that finishes a task
// that far ahead of the lowest unfinished one waits for it, so memory
// stays bounded while one long task does not idle the others.
//
// The pool is built on first use. It has one mutex-guarded queue of open
// calls and grows to the largest helper count any single call asked for.
// A call at threads == 1 runs inline on the same code path and never
// touches it. A caller waits only for helpers that actually joined its
// call. Help that never arrived, because every pool thread was busy (a
// sweep nested inside a pool task, concurrent certifyd connections), is
// withdrawn and the caller runs the remaining indices itself, so nesting
// cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace ftsched::campaign {

/// Worker threads to use for `requested`: 0 resolves to the hardware
/// concurrency (at least 1).
[[nodiscard]] unsigned resolve_threads(unsigned requested);

/// Helper threads the process-wide pool has started so far (0 until a call
/// first asks for a helper). For tests and diagnostics.
[[nodiscard]] unsigned pool_size();

namespace detail {

/// The participants of one ordered_for call: who runs which index, and the
/// first failure. It lives on the caller's stack; the pool reaches it only
/// through its queue of open calls, and the caller does not return before
/// every helper that joined has left.
class OrderedLoop {
 public:
  OrderedLoop(unsigned threads, std::size_t n,
              const std::function<bool()>& cancelled);
  OrderedLoop(const OrderedLoop&) = delete;
  OrderedLoop& operator=(const OrderedLoop&) = delete;

  /// min(resolve_threads(threads), n): the caller plus the helpers wanted.
  [[nodiscard]] std::size_t participants() const { return participants_; }

  /// Runs step(slot, i) for every claimed index on the caller (slot 0) and
  /// on the helpers that join (slots 1..), returns once all of them are
  /// done, then rethrows the first exception any of them threw. False when
  /// a cancel stopped the claiming.
  template <class Step>
  bool execute(Step& step) {
    step_ = &step;
    call_ = [](void* f, unsigned slot, std::size_t i) {
      (*static_cast<Step*>(f))(slot, i);
    };
    return execute();
  }

  /// Whether a step threw; read under `mutex`.
  [[nodiscard]] bool failed() const { return error_ != nullptr; }

  /// Guards the caller's window of finished results and the first error.
  std::mutex mutex;
  /// Signalled under `mutex` whenever an emit frees a window slot or a
  /// step fails.
  std::condition_variable window_moved;

 private:
  friend class Pool;

  bool execute();
  /// Claims and runs indices until none is left or the call stops.
  void participate(unsigned slot);
  /// The next index to run; n_ once every index is claimed, a cancel was
  /// seen or a step failed.
  std::size_t claim();

  const std::size_t n_;
  const std::size_t participants_;
  const std::function<bool()>& cancelled_;
  void* step_ = nullptr;
  void (*call_)(void*, unsigned, std::size_t) = nullptr;

  std::atomic<std::size_t> next_{0};
  std::atomic<bool> stop_{false};  // a cancel was seen or a step threw
  std::exception_ptr error_;       // guarded by `mutex`

  // Guarded by the pool's mutex.
  unsigned wanted_ = 0;  // helpers offered to the pool
  unsigned joined_ = 0;  // helpers that took a slot
  unsigned active_ = 0;  // joined helpers not yet gone
  std::condition_variable helpers_left_;
};

}  // namespace detail

/// Runs run(slot, i) for every i in [0, n) and hands each result to
/// emit, in ascending i and never concurrently. The work is spread over
/// the calling thread and at most min(resolve_threads(threads), n) - 1
/// pool helpers; `slot` is 0 on the caller and distinct among one call's
/// participants, below min(resolve_threads(threads), n), so it can index
/// per-participant scratch. `cancelled`, when set, is polled before each
/// claim (possibly from several participants at once): once it returns
/// true no further index is claimed, the indices already claimed still run
/// and are emitted, and the call returns false. When a run or emit throws,
/// claiming stops, nothing more is emitted, and the first exception is
/// rethrown once every helper that joined has returned.
template <class Run, class Emit>
bool ordered_for(unsigned threads, std::size_t n, Run&& run, Emit&& emit,
                 const std::function<bool()>& cancelled = {}) {
  using Result = std::invoke_result_t<Run&, unsigned, std::size_t>;
  detail::OrderedLoop loop(threads, n, cancelled);
  // Guarded by loop.mutex: finished results by index modulo the window
  // size, how many have been emitted, and whether a participant is
  // emitting (one at a time).
  std::vector<std::optional<Result>> window(4 * loop.participants());
  std::size_t emitted = 0;
  bool emitting = false;
  auto step = [&](unsigned slot, std::size_t i) {
    Result result = run(slot, i);
    std::unique_lock<std::mutex> lock(loop.mutex);
    loop.window_moved.wait(lock, [&] {
      return i < emitted + window.size() || loop.failed();
    });
    if (loop.failed()) return;
    window[i % window.size()].emplace(std::move(result));
    if (emitting || i != emitted) return;
    emitting = true;
    for (std::optional<Result>* next = &window[i % window.size()];
         next->has_value() && !loop.failed();
         next = &window[emitted % window.size()]) {
      Result out = std::move(**next);
      next->reset();
      lock.unlock();
      emit(std::move(out));
      lock.lock();
      ++emitted;
      loop.window_moved.notify_all();
    }
    emitting = false;
  };
  return loop.execute(step);
}

}  // namespace ftsched::campaign
