// Frontier sweep throughput: wall time of the full (K, L, S) lattice walk
// over the paper's Fig. 17 / Fig. 22 schedules. Also prints the measured
// certifiable surface beside the static GLS ceiling (the EXPERIMENTS.md
// frontier table) and re-checks determinism: the report JSON must be
// byte-identical across thread counts. Writes BENCH_frontier.json; exit 1
// when a verdict or the byte-identity is wrong — speed is reported, not
// gated.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "campaign/frontier.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"

using namespace ftsched;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string surface_string(const campaign::FrontierReport& report) {
  std::string out;
  for (const campaign::FrontierPoint& p : report.surface) {
    if (!out.empty()) out += ' ';
    out += '(';
    out += std::to_string(p.max_failures);
    out += ',';
    out += std::to_string(p.max_link_failures);
    out += ',';
    out += std::to_string(p.max_silences);
    out += ')';
  }
  return out.empty() ? "(none)" : out;
}

}  // namespace

int main() {
  bench::header("bench_frontier",
                "(K, L, S) certification frontier sweep");

  // Heap-held problems: Schedule keeps a pointer to owned->problem, so
  // the problem must not relocate when the config vector grows.
  struct Config {
    std::string name;
    std::unique_ptr<workload::OwnedProblem> owned;
    Schedule schedule;
  };
  std::vector<Config> configs;
  {
    auto ex = std::make_unique<workload::OwnedProblem>(
        workload::paper_example1());
    Schedule schedule = schedule_solution1(ex->problem).value();
    configs.push_back(
        Config{"fig17_solution1", std::move(ex), std::move(schedule)});
  }
  {
    auto ex = std::make_unique<workload::OwnedProblem>(
        workload::paper_example2());
    Schedule schedule = schedule_solution2(ex->problem).value();
    configs.push_back(
        Config{"fig22_solution2", std::move(ex), std::move(schedule)});
  }

  bool ok = true;
  std::vector<bench::BenchRecord> records;

  for (const Config& config : configs) {
    bench::section(config.name);
    const ArchitectureGraph& arch = *config.owned->problem.architecture;

    const campaign::GlsBounds gls = campaign::gls_bounds(config.schedule);
    bench::value("GLS K ceiling", std::to_string(gls.k_bound));
    bench::value("GLS L ceiling",
                 gls.l_unbounded ? "unbounded" : std::to_string(gls.l_bound));

    campaign::FrontierReport reference;
    const int reps = 3;
    double best = -1;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      campaign::FrontierSpec spec;
      spec.threads = 1;
      reference = campaign::frontier_sweep(config.schedule, spec);
      const double elapsed = seconds_since(start);
      if (best < 0 || elapsed < best) best = elapsed;
    }

    // Determinism gate: the thread count must not change a byte.
    const std::string reference_json = reference.to_json(arch);
    bool identical = true;
    for (const unsigned threads : {0u, 8u}) {
      campaign::FrontierSpec threaded;
      threaded.threads = threads;
      identical = identical &&
                  campaign::frontier_sweep(config.schedule, threaded)
                          .to_json(arch) == reference_json;
    }
    if (!identical) {
      std::fprintf(stderr, "FAIL: %s frontier not byte-identical\n",
                   config.name.c_str());
      ok = false;
    }

    // The surface must respect the static ceiling.
    for (const campaign::FrontierPoint& p : reference.surface) {
      if (p.max_failures > gls.k_bound ||
          (!gls.l_unbounded && p.max_link_failures > gls.l_bound)) {
        std::fprintf(stderr, "FAIL: %s surface exceeds the GLS ceiling\n",
                     config.name.c_str());
        ok = false;
      }
    }

    bench::value("lattice points", std::to_string(reference.points.size()));
    bench::value("explored / implied",
                 std::to_string(reference.points_explored) + " / " +
                     std::to_string(reference.points_implied));
    bench::value("certifiable surface", surface_string(reference));
    bench::value("sweep (1 thread)", std::to_string(best * 1e3) + " ms");

    bench::BenchRecord record;
    record.name = "frontier/" + config.name;
    record.params = "threads=1;reps=" + std::to_string(reps);
    record.wall_ms = best * 1e3;
    record.iters = static_cast<std::uint64_t>(reps);
    record.derived = {
        {"points", static_cast<double>(reference.points.size())},
        {"points_explored", static_cast<double>(reference.points_explored)},
        {"points_implied", static_cast<double>(reference.points_implied)},
        {"surface_points", static_cast<double>(reference.surface.size())},
        {"gls_k_bound", static_cast<double>(gls.k_bound)},
    };
    records.push_back(std::move(record));
  }

  if (!bench::write_bench_json("BENCH_frontier.json", records)) ok = false;
  std::printf("\n%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
