// The four workloads of the ftsched benchmark and the result they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Worker threads of every layer call: each workload process uses at most
/// this many.
inline constexpr unsigned kThreads = 4;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> lines;
  /// Measured tracing overhead (traced run only).
  double trace_overhead = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] RunResult run_workload(const RunConfig& config);

}  // namespace ftbench
