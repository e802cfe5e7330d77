// Deep-budget certification: the certification engine (exact per-victim
// instant dedup + fork sharing) versus the naive brute-force enumerator
// on the budget mixes the ROADMAP calls the combinatorial frontier. Two
// claims gated here (and by the CI perf job via BENCH_certify_deep.json):
//
//   1. The K=2 + S=1 mixed sweep on the paper's Fig. 22 schedule
//      simulates >= 10x fewer branches with dedup than brute-forced
//      (branch_reduction = naive branches / dedup branches).
//   2. Exhaustive K=3 certification completes, delivering the exact
//      verdict with full coverage: on example2 (3 processors, where the
//      model clamps the crash budget to N-1 = 2, so K=3 saturates the
//      admissible pattern space) crash-only, with a link failure, and
//      with a silence window; and on the CI K=2 random workload
//      (4 bus-connected processors, certify_k2.ft's generator) where
//      K=3 binds for real.
//
// Dedup is verdict-exact; this bench additionally cross-checks the
// verdict between the gate sweep and its naive twin. Exit status 1 on any
// mismatch or if the reduction falls short of the 10x gate.
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "campaign/certify.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

using namespace ftsched;

namespace {

struct Budgets {
  int k = 0;
  int l = 0;
  int s = 0;
};

campaign::CertifyReport sweep(const Schedule& schedule, Budgets budgets,
                              bool dedup) {
  campaign::CertifySpec spec;
  spec.max_failures = budgets.k;
  spec.max_link_failures = budgets.l;
  spec.max_silences = budgets.s;
  spec.dedup = dedup;
  spec.threads = 1;
  return campaign::certify(schedule, spec);
}

bench::BenchRecord record(const std::string& config, const std::string& mode,
                          const campaign::CertifyReport& report) {
  bench::BenchRecord r;
  r.name = "certify_deep";
  r.params = "config=" + config + ";mode=" + mode;
  r.wall_ms = report.elapsed_seconds * 1e3;
  r.iters = report.branches;
  r.derived.emplace_back("certified", report.certified ? 1.0 : 0.0);
  return r;
}

}  // namespace

int main() {
  bench::header("C3", "deep-budget certification: dedup vs brute force");

  const workload::OwnedProblem example2 = workload::paper_example2();
  const Schedule schedule = schedule_solution2(example2.problem).value();
  std::vector<bench::BenchRecord> records;
  bool ok = true;

  // --- Gate 1: K=2 + S=1 branch reduction -------------------------------
  bench::section("K=2 + S=1 mixed sweep, brute force vs dedup");
  const Budgets mixed{2, 0, 1};
  // The naive enumerator simulates every representative branch from
  // scratch; one rep is plenty — the gate is a branch count, not a timing.
  const campaign::CertifyReport naive =
      sweep(schedule, mixed, /*dedup=*/false);
  campaign::CertifyReport dedup = sweep(schedule, mixed, /*dedup=*/true);
  for (int rep = 1; rep < 2; ++rep) {
    campaign::CertifyReport again = sweep(schedule, mixed, /*dedup=*/true);
    if (again.elapsed_seconds < dedup.elapsed_seconds)
      dedup = std::move(again);
  }
  // Dedup only merges provably equivalent instants, so the verdict must
  // match the naive enumeration's.
  ok = ok && naive.certified == dedup.certified;
  const double reduction =
      dedup.branches > 0 ? static_cast<double>(naive.branches) /
                               static_cast<double>(dedup.branches)
                         : 0.0;
  const double wall_speedup = dedup.elapsed_seconds > 0
                                  ? naive.elapsed_seconds / dedup.elapsed_seconds
                                  : 0.0;
  std::printf(
      "naive   %8zu branches simulated  %6.2fs\n"
      "dedup   %8zu branches simulated  %6.2fs\n",
      naive.branches, naive.elapsed_seconds, dedup.branches,
      dedup.elapsed_seconds);
  char line[80];
  std::snprintf(line, sizeof line, "%.1fx (gate: >= 10x), wall %.1fx", reduction,
                wall_speedup);
  bench::value("simulated-branch reduction", line);

  records.push_back(record("fig22_k2s1", "naive", naive));
  bench::BenchRecord gate = record("fig22_k2s1", "dedup", dedup);
  gate.derived.emplace_back("branch_reduction", reduction);
  gate.derived.emplace_back("wall_speedup_vs_naive", wall_speedup);
  records.push_back(std::move(gate));

  // --- Gate 2: exhaustive K=3 certification completes -------------------
  bench::section("exhaustive K=3 sweeps (dedup)");
  const std::deque<std::pair<std::string, Budgets>> deep = {
      {"fig22_k3", Budgets{3, 0, 0}},
      {"fig22_k3l1", Budgets{3, 1, 0}},
      {"fig22_k3s1", Budgets{3, 0, 1}},
  };
  for (const auto& [config, budgets] : deep) {
    const campaign::CertifyReport report =
        sweep(schedule, budgets, /*dedup=*/true);
    // The crash-only K=3 tree is small enough to re-certify naively as a
    // verdict cross-check; the mixed trees are covered by gate 1's naive
    // twin at K=2.
    if (budgets.l == 0 && budgets.s == 0) {
      ok = ok && report.certified ==
                     sweep(schedule, budgets, /*dedup=*/false).certified;
    }
    std::printf("%-12s K=%d L=%d S=%d verdict=%-8s %8zu branches %6.2fs\n",
                config.c_str(), budgets.k, budgets.l, budgets.s,
                report.certified ? "certified" : "refuted", report.branches,
                report.elapsed_seconds);
    records.push_back(record(config, "dedup", report));
  }

  // Example2 has 3 processors, so its crash budget clamps at 2; rerun the
  // crash-only K=3 on the CI random workload (4 bus-connected processors,
  // the certify_k2.ft generator) where every crash triple is admissible.
  {
    workload::RandomProblemParams params;
    params.dag.operations = 10;
    params.processors = 4;
    params.failures_to_tolerate = 2;
    params.seed = 11;
    const workload::OwnedProblem random4 = workload::random_problem(params);
    const Schedule random_schedule =
        schedule_solution2(random4.problem).value();
    const Budgets k3{3, 0, 0};
    const campaign::CertifyReport report =
        sweep(random_schedule, k3, /*dedup=*/true);
    std::printf("%-12s K=%d L=%d S=%d verdict=%-8s %8zu branches %6.2fs\n",
                "random_p4_k3", k3.k, k3.l, k3.s,
                report.certified ? "certified" : "refuted", report.branches,
                report.elapsed_seconds);
    records.push_back(record("random_p4_k3", "dedup", report));
  }

  bench::value("verdicts exact (dedup == naive)", ok ? "yes" : "NO");
  if (!bench::write_bench_json("BENCH_certify_deep.json", records)) return 1;
  return ok && reduction >= 10.0 ? 0 : 1;
}
