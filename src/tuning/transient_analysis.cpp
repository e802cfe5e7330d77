#include "tuning/transient_analysis.hpp"

#include <algorithm>

#include "sim/simulator.hpp"

namespace ftsched {

std::vector<Time> representative_instants(const Trace& trace, Time min_time) {
  return representative_instants(trace, min_time, {});
}

std::vector<Time> representative_instants(
    const Trace& trace, Time min_time, const std::vector<Time>& extra_dates) {
  std::vector<Time> dates;
  dates.reserve(trace.events().size() + extra_dates.size() + 1);
  for (const TraceEvent& event : trace.events()) {
    dates.push_back(event.time);
  }
  for (const Time date : extra_dates) {
    if (!is_infinite(date)) dates.push_back(date);
  }
  std::sort(dates.begin(), dates.end());
  dates.erase(std::unique(dates.begin(), dates.end(),
                          [](Time a, Time b) { return time_eq(a, b); }),
              dates.end());

  std::vector<Time> instants{min_time};
  for (std::size_t i = 0; i < dates.size(); ++i) {
    if (time_ge(dates[i], min_time)) instants.push_back(dates[i]);
    if (i + 1 < dates.size()) {
      const Time mid = (dates[i] + dates[i + 1]) / 2;
      if (time_ge(mid, min_time)) instants.push_back(mid);
    }
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end(),
                             [](Time a, Time b) { return time_eq(a, b); }),
                 instants.end());
  return instants;
}

TransientReport analyze_transient(const Schedule& schedule) {
  const Simulator simulator(schedule);
  const IterationResult nominal = simulator.run();
  const std::vector<Time> instants =
      representative_instants(nominal.trace, 0);

  TransientReport report;
  report.nominal_response = nominal.response_time;
  const std::size_t procs =
      schedule.problem().architecture->processor_count();
  report.worst_by_victim.assign(procs, 0);

  std::vector<Time> worst(procs, 0);
  Simulator::Branch branch;
  IterationSummary run;
  auto consider = [&](std::size_t p) {
    worst[p] = std::max(worst[p], run.response_time);
    report.worst_timeouts = std::max(report.worst_timeouts, run.timeouts);
  };

  for (std::size_t p = 0; p < procs; ++p) {
    const ProcessorId victim{static_cast<ProcessorId::underlying_type>(p)};
    simulator.run_summary(FailureScenario::dead_from_start({victim}), branch,
                          run);
    consider(p);
  }

  // Shared-prefix sweep: one failure-free cursor advanced monotonically;
  // each (victim, instant) branch copies the paused prefix, without its
  // trace, instead of replaying [0, instant) from scratch.
  Simulator::Branch cursor = simulator.begin();
  for (const Time at : instants) {
    simulator.advance_until(cursor, at);
    for (std::size_t p = 0; p < procs; ++p) {
      const ProcessorId victim{static_cast<ProcessorId::underlying_type>(p)};
      cursor.copy_to(branch, /*trace=*/false);
      simulator.inject(branch, FailureEvent{victim, at});
      simulator.finish(branch, run);
      consider(p);
    }
  }

  for (std::size_t p = 0; p < procs; ++p) {
    const ProcessorId victim{static_cast<ProcessorId::underlying_type>(p)};
    report.worst_by_victim[p] = worst[p];
    if (time_gt(worst[p], report.worst_response) ||
        !report.worst_victim.valid()) {
      report.worst_response = std::max(report.worst_response, worst[p]);
      if (time_eq(report.worst_response, worst[p])) {
        report.worst_victim = victim;
      }
    }
  }
  return report;
}

}  // namespace ftsched
