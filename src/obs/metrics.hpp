// Metrics as plain values: a run fills one MetricsSnapshot from the counts
// it already keeps (the campaign's folded per-chunk tally, a certify or
// repair report's fields) and exports it as stable JSON. There is no
// process-wide registry and nothing here is shared between threads, so an
// export is a pure function of its run's inputs — byte-identical for any
// thread count. Wall-clock timing lives in the profiling spans
// (obs/span.hpp), never in these values.
//
// Histograms use fixed upper-bound buckets with Prometheus "le" semantics:
// bucket i counts observations x with x <= bounds[i] (first matching
// bucket); an implicit +inf bucket catches the rest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ftsched::obs {

/// Bucket of `x` in `bounds` (ascending upper bounds): the first i with
/// x <= bounds[i], or bounds.size() for the overflow (+inf) bucket.
/// NaN compares false against everything and lands in the overflow bucket.
[[nodiscard]] std::size_t histogram_bucket(const std::vector<double>& bounds,
                                           double x);

struct HistogramSnapshot {
  std::vector<double> bounds;
  /// bounds.size() + 1 entries, last = overflow.
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// One run's metrics, written once from the run's own counts.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  void add_counter(const std::string& name, std::uint64_t n = 1);

  /// Stable JSON: objects keyed by metric name in lexicographic order
  /// (std::map iteration), so two equal snapshots render byte-identically.
  /// The "gauges" object is always empty; it keeps the exported documents'
  /// shape.
  [[nodiscard]] std::string to_json() const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

}  // namespace ftsched::obs
