// Spans recorded by the benchmark around each call it makes into a layer.
// A span has a name, a layer, a start and end (ns since the tracer was
// made), the span that encloses it, and the id of the request or job it
// belongs to. Spans are kept in memory and written out once, when the
// workload ends. A disabled tracer records nothing and costs one branch
// per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ftbench {

struct Span {
  std::string name;
  std::string layer;
  std::int64_t op = -1;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double duration_ns() const {
    return static_cast<double>(end_ns - start_ns);
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int open(std::string_view name, std::string_view layer, std::int64_t op);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (ns): each span's duration minus the part its
  /// direct children cover, summed by layer, over the spans accepted by
  /// `root` (a span is accepted when its outermost ancestor's name starts
  /// with `root`; empty accepts all).
  [[nodiscard]] std::map<std::string, double> self_ns_by_layer(
      std::string_view root = {}) const;

  /// Spans whose outermost ancestor's name starts with `root`.
  [[nodiscard]] std::size_t count_under(std::string_view root) const;

  /// One JSON object per line (the span file format; see README.md).
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::string_view layer,
        std::int64_t op = -1)
      : tracer_(tracer), index_(tracer.open(name, layer, op)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace ftbench
