// ftbench: runs one workload of the ftsched benchmark.
//
//   ftbench --workload NAME --seed N --seconds S --trace 0|1
//           [--spans-out FILE]
//
// Runs one workload in this process and prints human-readable lines, a
// `meta` line (run metadata), and as its last line the JSON result
// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics for
// --trace 0, per-layer metrics for --trace 1. See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "obs/json_util.hpp"
#include "workloads.hpp"

namespace {

using ftsched::obs::json_string;

int usage(const char* message) {
  std::fprintf(stderr,
               "ftbench: %s\nusage: ftbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n"
               "workloads:",
               message);
  for (const std::string& name : ftbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  ftbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number_value = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--spans-out") {
      config.spans_path = value;
    } else if (!parse_number(value, number_value) || number_value < 0) {
      return usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      config.seed = static_cast<std::uint64_t>(number_value);
    } else if (flag == "--seconds") {
      config.seconds = number_value;
    } else if (flag == "--trace") {
      config.trace = number_value != 0;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  ftbench::RunResult result;
  try {
    result = ftbench::run_workload(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ftbench: %s\n", error.what());
    return 1;
  }

  for (const std::string& line : result.lines) {
    std::printf("%s\n", line.c_str());
  }
  const std::string build_type = FTBENCH_BUILD_TYPE;
  const std::string sanitize = FTBENCH_SANITIZE;
  const char* commit = std::getenv("FTBENCH_COMMIT");
  std::string flags;
  if (build_type != "Release") {
    flags += json_string("non-release build (" + build_type + ")");
  }
  if (!sanitize.empty()) {
    if (!flags.empty()) flags += ',';
    flags += json_string("sanitizer build (" + sanitize + ")");
  }
  std::printf(
      "meta {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"threads\":%u,\"hardware_threads\":%u,\"build_type\":%s,"
      "\"commit\":%s,\"trace_overhead\":%s,\"flags\":[%s]}\n",
      json_string(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      number(config.seconds).c_str(), config.trace ? 1 : 0, ftbench::kThreads,
      std::thread::hardware_concurrency(), json_string(build_type).c_str(),
      json_string(commit != nullptr ? commit : "unknown").c_str(),
      config.trace ? number(result.trace_overhead).c_str() : "null",
      flags.c_str());

  bool finite = true;
  std::string metrics;
  for (const ftbench::Metric& metric : result.metrics) {
    if (!metrics.empty()) metrics += ',';
    finite = finite && std::isfinite(metric.value);
    metrics += json_string(metric.name) + ":{\"value\":" +
               (std::isfinite(metric.value) ? number(metric.value) : "0") +
               ",\"unit\":" + json_string(metric.unit) + "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              result.correct && finite ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
