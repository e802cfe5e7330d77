#include "trace.hpp"

#include <fstream>

#include "obs/json_util.hpp"

namespace ftbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::open(std::string_view name, std::string_view layer,
                 std::int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  // A child without its own id inherits the enclosing request's.
  span.op = op >= 0 || span.parent < 0 ? op : spans_[span.parent].op;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[index].end_ns = now_ns();
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::map<std::string, double> Tracer::self_ns_by_layer(
    std::string_view root) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.duration_ns();
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::size_t top = i;
    while (spans_[top].parent >= 0) top = spans_[top].parent;
    if (spans_[top].name.compare(0, root.size(), root) != 0) continue;
    self[spans_[i].layer] += spans_[i].duration_ns() - child_ns[i];
  }
  return self;
}

std::size_t Tracer::count_under(std::string_view root) const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::size_t top = i;
    while (spans_[top].parent >= 0) top = spans_[top].parent;
    count += spans_[top].name.compare(0, root.size(), root) == 0;
  }
  return count;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    file << "{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"op\":" << s.op
         << ",\"name\":" << ftsched::obs::json_string(s.name)
         << ",\"layer\":" << ftsched::obs::json_string(s.layer)
         << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << "}\n";
  }
  return static_cast<bool>(file);
}

}  // namespace ftbench
