// Campaign engine throughput: scenarios/sec of the parallel fault-injection
// runner over the paper's example-1 solution-1 schedule, swept across
// thread counts — the scaling evidence for the parallel runtime. Also
// cross-checks that every thread count and every repetition reproduces the
// single-thread verdict and coverage bit-exactly (the determinism
// contract). Each configuration is measured as the best of several warm
// repetitions: the campaign is a pure function of (schedule, options), so
// warmup and rep count cannot change any result, only steady the clock on
// noisy shared runners. Results are additionally written to
// BENCH_campaign.json (override with $FTSCHED_BENCH_OUT) for CI archiving;
// each record carries derived scenarios_per_s / scaling_vs_1t /
// hardware_threads fields so compare_bench.py can gate throughput and
// thread scaling directly.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "campaign/runner.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"

using namespace ftsched;

int main() {
  bench::header("C1", "fault-injection campaign throughput scaling");

  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();

  campaign::CampaignOptions options;
  options.scenarios = 4000;
  options.seed = 42;
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;

  const unsigned hardware = std::thread::hardware_concurrency();
  bench::value("hardware threads", std::to_string(hardware));
  bench::value("scenarios", std::to_string(options.scenarios));

  // Warmup: page in code, size allocator arenas. Discarded.
  options.threads = 1;
  (void)campaign::run_campaign(schedule, options);

  bench::section("scenarios/sec by thread count (best of 3 warm reps)");
  constexpr int kReps = 3;
  double base_rate = 0;
  std::size_t reference_violations = 0;
  std::size_t reference_contract = 0;
  bool first_config = true;
  bool deterministic = true;
  std::vector<bench::BenchRecord> records;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    options.threads = threads;
    double best_seconds = 0;
    std::size_t violations = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const campaign::CampaignReport report =
          campaign::run_campaign(schedule, options);
      if (first_config) {
        reference_violations = report.total_violations;
        reference_contract = report.within_contract;
        first_config = false;
      }
      deterministic = deterministic &&
                      report.total_violations == reference_violations &&
                      report.within_contract == reference_contract;
      if (rep == 0 || report.elapsed_seconds < best_seconds) {
        best_seconds = report.elapsed_seconds;
      }
      violations = report.total_violations;
    }
    const double rate =
        best_seconds > 0 ? options.scenarios / best_seconds : 0;
    if (threads == 1) base_rate = rate;
    const double scaling = base_rate > 0 ? rate / base_rate : 0;
    std::printf(
        "threads=%u %10.0f scenarios/s  speedup %.2fx  violations %zu\n",
        threads, rate, scaling, violations);
    bench::BenchRecord record;
    record.name = "campaign_throughput";
    record.params = "threads=" + std::to_string(threads) +
                    ";scenarios=" + std::to_string(options.scenarios);
    record.wall_ms = best_seconds * 1e3;
    record.iters = options.scenarios;
    record.derived.emplace_back("scenarios_per_s", rate);
    record.derived.emplace_back("hardware_threads",
                                static_cast<double>(hardware));
    if (threads > 1) record.derived.emplace_back("scaling_vs_1t", scaling);
    records.push_back(std::move(record));
  }
  bench::value("thread-count deterministic", deterministic ? "yes" : "NO");
  if (!bench::write_bench_json("BENCH_campaign.json", records)) return 1;
  return deterministic ? 0 : 1;
}
