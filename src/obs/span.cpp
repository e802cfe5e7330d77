#include "obs/span.hpp"

#include <algorithm>
#include <chrono>

namespace ftsched::obs {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Profiler& Profiler::global() {
  static Profiler profiler;
  return profiler;
}

Profiler::ThreadBuffer& Profiler::local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(mutex_);
    buffer->index = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Profiler::record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns) {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(SpanRecord{name, buffer.index, start_ns, end_ns});
}

std::vector<SpanRecord> Profiler::drain() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::vector<SpanRecord> out;
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  // Buffers are visited in registration order and are chronological
  // within a thread already; make the contract explicit.
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.thread < b.thread;
                   });
  return out;
}

void Profiler::clear() { static_cast<void>(drain()); }

}  // namespace ftsched::obs
