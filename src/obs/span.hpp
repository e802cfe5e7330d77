// Low-overhead profiling spans for the scheduler, simulator, and campaign
// hot paths.
//
//   void Engine::commit(...) {
//     FTSCHED_SPAN("sched.commit");
//     ...
//   }
//
// Three cost tiers:
//  * FTSCHED_OBS=OFF (cmake option): FTSCHED_SPAN expands to nothing —
//    zero code in the hot path, the instrumented binary is bit-equivalent
//    to an uninstrumented one.
//  * compiled in, profiler disabled (the default at runtime): one relaxed
//    atomic load per span.
//  * profiler enabled: two steady_clock reads plus an append to a
//    thread-local buffer, which --trace-out drains into a Chrome trace.
//
// Span records carry a dense per-profiler thread index (registration
// order), which becomes the Chrome-trace tid — one timeline row per worker
// thread. Buffers outlive their threads, so the campaign can drain spans
// after its pool has joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#ifndef FTSCHED_OBS_ENABLED
#define FTSCHED_OBS_ENABLED 1
#endif

namespace ftsched::obs {

/// Monotonic wall clock, nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

struct SpanRecord {
  /// Static string — the FTSCHED_SPAN literal; never freed, never copied.
  const char* name = nullptr;
  /// Dense thread index in profiler registration order.
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

class Profiler {
 public:
  [[nodiscard]] static Profiler& global();

  /// Off by default; campaign_tool --trace-out switches it on around the
  /// region of interest.
  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Appends a finished span to the calling thread's buffer.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  /// All spans recorded so far, grouped by thread index (chronological
  /// within each thread), and clears the buffers. Call after concurrent
  /// recorders have quiesced (e.g. the campaign pool drained).
  [[nodiscard]] std::vector<SpanRecord> drain();

  /// Drops recorded spans without returning them.
  void clear();

 private:
  // Only the process-wide instance exists: the thread-local buffer handle
  // inside local_buffer() is necessarily per-process, not per-instance.
  Profiler() = default;

  struct ThreadBuffer {
    std::mutex mutex;
    std::uint32_t index = 0;
    std::vector<SpanRecord> spans;
  };

  [[nodiscard]] ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  /// Shared ownership with each thread's thread_local handle: buffers of
  /// exited threads stay drainable.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: captures the clock on construction if the global profiler is
/// enabled, records on destruction. `name` must be a static string.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept {
    if (Profiler::global().enabled()) {
      name_ = name;
      start_ns_ = now_ns();
    }
  }

  ~ScopedSpan() {
    if (name_ != nullptr) Profiler::global().record(name_, start_ns_, now_ns());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
};

}  // namespace ftsched::obs

#define FTSCHED_OBS_CONCAT_INNER(a, b) a##b
#define FTSCHED_OBS_CONCAT(a, b) FTSCHED_OBS_CONCAT_INNER(a, b)

#if FTSCHED_OBS_ENABLED
/// Times the enclosing scope under `name` (a string literal).
#define FTSCHED_SPAN(name)                                              \
  ::ftsched::obs::ScopedSpan FTSCHED_OBS_CONCAT(ftsched_obs_span_,      \
                                                __LINE__)(name)
#else
#define FTSCHED_SPAN(name) static_cast<void>(0)
#endif
