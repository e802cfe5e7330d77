#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json_util.hpp"

namespace ftsched::obs {

std::size_t histogram_bucket(const std::vector<double>& bounds, double x) {
  // NaN satisfies no "x <= bound" and goes to the overflow bucket. (An
  // explicit check: lower_bound's partition predicate would put NaN in
  // bucket 0, since bound < NaN is false for every bound.)
  if (std::isnan(x)) return bounds.size();
  // Otherwise the first bound >= x — "le" semantics, so an observation
  // exactly on a boundary belongs to that boundary's bucket.
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), x) - bounds.begin());
}

void MetricsSnapshot::add_counter(const std::string& name, std::uint64_t n) {
  counters[name] += n;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    out += "    " + json_string(name) + ": " + json_number(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {},\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    out += first ? "\n" : ",\n";
    out += "    " + json_string(name) + ": {\"bounds\": [";
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_number(hist.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_number(hist.counts[i]);
    }
    out += "], \"total\": " + json_number(hist.total) +
           ", \"sum\": " + json_number(hist.sum) + "}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace ftsched::obs
