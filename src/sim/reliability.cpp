#include "sim/reliability.hpp"

#include <cmath>

#include "sim/simulator.hpp"

namespace ftsched {

ReliabilityReport analyze_reliability(const Schedule& schedule,
                                      double failure_probability,
                                      ReliabilityOptions options) {
  FTSCHED_REQUIRE(failure_probability >= 0 && failure_probability <= 1,
                  "failure probability must lie in [0, 1]");
  const std::size_t n = schedule.problem().architecture->processor_count();
  FTSCHED_REQUIRE(n <= options.max_processors && n < 64,
                  "architecture too large for exhaustive reliability "
                  "analysis");
  const std::size_t k =
      static_cast<std::size_t>(schedule.failures_tolerated());
  const Simulator simulator(schedule);
  Simulator::Branch branch;
  IterationSummary summary;

  ReliabilityReport report;
  report.masked_by_size.assign(n + 1, {0, 0});

  const double p = failure_probability;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<ProcessorId> subset;
    for (std::size_t bit = 0; bit < n; ++bit) {
      if (mask & (std::size_t{1} << bit)) {
        subset.push_back(
            ProcessorId{static_cast<ProcessorId::underlying_type>(bit)});
      }
    }
    const std::size_t size = subset.size();
    ++report.masked_by_size[size].second;
    if (size > k && !options.exhaustive_beyond_k) continue;

    if (size > 0) {
      simulator.run_summary(FailureScenario::dead_from_start(subset), branch,
                            summary);
      if (!summary.all_outputs_produced) continue;
    }
    ++report.masked_by_size[size].first;

    const double weight = std::pow(p, static_cast<double>(size)) *
                          std::pow(1 - p, static_cast<double>(n - size));
    report.iteration_reliability += weight;
    if (size <= k) report.lower_bound += weight;
  }
  return report;
}

}  // namespace ftsched
