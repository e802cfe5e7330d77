// Counterexample-guided repair throughput: wall time of the full refute →
// repair → re-certify loop on the committed refuted workload (the K=2 bus
// problem judged under K=1 + one link death). Reports rounds and branches
// certified; writes BENCH_repair.json for trend plots. Not baseline-gated
// — exit 1 only when a result is wrong: every repair must certify, and its
// certificate must equal a fresh certify() of the returned schedule.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "campaign/certify.hpp"
#include "campaign/repair.hpp"
#include "sched/heuristics.hpp"
#include "workload/random_arch.hpp"

using namespace ftsched;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

workload::OwnedProblem k2_bus_problem() {
  workload::RandomProblemParams params;
  params.dag.operations = 10;
  params.processors = 4;
  params.failures_to_tolerate = 2;
  params.seed = 11;
  return workload::random_problem(params);
}

}  // namespace

int main() {
  bench::header("bench_repair",
                "counterexample-guided repair loop (refute -> repair -> "
                "re-certify)");

  const workload::OwnedProblem ex = k2_bus_problem();
  bool ok = true;
  std::vector<bench::BenchRecord> records;

  for (const unsigned threads : {1u, 0u}) {
    campaign::RepairSpec spec;
    spec.certify.max_failures = 1;
    spec.certify.max_link_failures = 1;
    spec.certify.threads = threads;

    const int reps = 3;
    double best = -1;
    campaign::RepairReport report;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      report = campaign::repair(ex.problem, HeuristicKind::kSolution2, spec);
      const double elapsed = seconds_since(start);
      if (best < 0 || elapsed < best) best = elapsed;
      // Every repair certifies, and what it reports is exactly what a
      // fresh sweep of the returned schedule proves.
      const ArchitectureGraph& arch = *ex.problem.architecture;
      ok = ok && report.certified && report.schedule.has_value() &&
           report.certificate.has_value() &&
           report.certificate->to_json(arch) ==
               campaign::certify(*report.schedule, spec.certify)
                   .to_json(arch);
    }

    std::size_t branches = 0;
    for (const campaign::RepairRound& round : report.rounds) {
      branches += round.branches;
    }

    const std::string label =
        threads == 1 ? "repair_k1_l1_t1" : "repair_k1_l1_auto";
    bench::section(label);
    bench::value("certified", report.certified ? "yes" : "no");
    bench::value("rounds", std::to_string(report.rounds.size()));
    bench::value("branches certified", std::to_string(branches));
    bench::value("wall seconds (best of 3)", std::to_string(best));

    bench::BenchRecord record;
    record.name = label;
    record.params = "workload=k2_bus;claim_k=1;claim_l=1;threads=" +
                    std::to_string(threads) +
                    ";rounds=" + std::to_string(report.rounds.size()) +
                    ";branches=" + std::to_string(branches);
    record.wall_ms = best * 1000.0;
    record.iters = 1;
    records.push_back(record);
  }

  if (!bench::write_bench_json("BENCH_repair.json", records)) ok = false;
  if (!ok) {
    std::fprintf(stderr, "bench_repair: FAILED correctness check\n");
    return 1;
  }
  std::printf("\nbench_repair: OK\n");
  return 0;
}
