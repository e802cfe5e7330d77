// Sample statistics of the benchmark: percentiles, quartiles, and the
// sample-count rule for tail percentiles (a tail percentile is reported only
// when at least ten samples lie beyond it).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace ftbench {

/// The p-th percentile (p in [0, 100]) by linear interpolation between the
/// closest ranks of the sorted samples (rank p/100 * (n-1), the "type 7"
/// estimator). 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Samples strictly beyond the p-th percentile of n samples: the count of
/// ranks above p/100 * (n-1).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

/// The highest of the usual reporting percentiles (50, 90, 99, 99.9) that
/// has at least `min_beyond` samples beyond it; 0 when even the median has
/// fewer.
[[nodiscard]] inline double supported_percentile(std::size_t n,
                                                 std::size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

[[nodiscard]] inline double sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double s : samples) total += s;
  return total;
}

}  // namespace ftbench
