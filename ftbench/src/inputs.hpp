// Seeded inputs of the four workloads. Everything the program under test
// receives — problem texts, certifyd request lines, job lists — is made
// here from the workload seed, before any timing starts; the same seed
// always yields the same inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/schedule.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftbench {

/// SplitMix64: a small platform-independent stream for input generation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool coin() { return (next() >> 63) != 0; }

 private:
  std::uint64_t state_;
};

/// A problem text plus the heuristic that schedules it.
struct PlanSpec {
  std::string name;
  std::string text;
  ftsched::HeuristicKind kind = ftsched::HeuristicKind::kSolution1;
};

/// A parsed, scheduled plan. Heap-held problem: the schedule points into it.
struct Plan {
  std::string name;
  std::string text;
  ftsched::HeuristicKind kind = ftsched::HeuristicKind::kSolution1;
  std::unique_ptr<ftsched::workload::OwnedProblem> owned;
  std::optional<ftsched::Schedule> schedule;
};

/// Parses and schedules `spec` through the public io and sched entry
/// points; throws std::runtime_error when either fails.
[[nodiscard]] Plan make_plan(const PlanSpec& spec);

[[nodiscard]] const char* heuristic_name(ftsched::HeuristicKind kind);

/// io::write_problem of a generated problem.
[[nodiscard]] std::string problem_text(
    const ftsched::workload::RandomProblemParams& params);

/// The same problem with every operation renamed (`prefix` + old name):
/// an isomorphic plan that schedules identically.
[[nodiscard]] std::string rename_operations(const std::string& text,
                                            const std::string& prefix);

// --- serve_mixed ----------------------------------------------------------

enum class RequestKind { kDesign, kLinkDeath, kK2 };

struct ServeRequest {
  std::string id;
  std::string line;
  /// The plan the line carries (for the traced run's layer probes).
  PlanSpec plan;
  RequestKind kind = RequestKind::kDesign;
  /// Design points must certify; claims above the static GLS ceiling must
  /// be refuted.
  bool expect_certified = true;
  /// Index of the request this one re-submits; -1 for a fresh plan.
  std::int64_t source = -1;
};

/// `count` requests: ~70% design points, ~15% K=1 + one link death above
/// the GLS ceiling, ~15% K=2 design points on 4 processors (stratified in
/// blocks of 20, sizes in fixed strata), every seventh a re-submission of
/// one of the last 96 fresh plans, verbatim or renamed.
[[nodiscard]] std::vector<ServeRequest> serve_requests(std::uint64_t seed,
                                                       std::size_t count);

/// A certifyd submit line.
[[nodiscard]] std::string submit_line(const std::string& id,
                                      const std::string& problem,
                                      ftsched::HeuristicKind kind, int claim_k,
                                      int links);

// --- certify_deep ---------------------------------------------------------

struct DeepSweep {
  std::string name;
  std::size_t plan = 0;  // index into certify_deep_plans()
  int k = 0;
  int l = 0;
  int s = 0;
};

/// The paper's Fig. 22 problem (solution 2) and the 10-op, 4-processor bus
/// DAG of data/certify_k2.ft's generator (seed 11, solution 2). Fixed: the
/// deep sweeps are the same for every seed.
[[nodiscard]] std::vector<PlanSpec> certify_deep_plans();
[[nodiscard]] std::vector<DeepSweep> certify_deep_sweeps();

// --- campaign_large -------------------------------------------------------

/// Three bus200 (bus, solution 1) and three p2p200 (fully connected,
/// solution 2) plans, alternating: 200 operations on 8 processors, K = 1,
/// generated from the seed. Three of each kind average out how much one
/// random graph's size moves the throughput.
[[nodiscard]] std::vector<PlanSpec> campaign_plans(std::uint64_t seed);

// --- repair_frontier ------------------------------------------------------

struct Job {
  enum class Kind { kRepair, kFrontier };
  Kind kind = Kind::kRepair;
  PlanSpec plan;
};

/// Alternating repair and frontier jobs: 24 repairs of K=1 + one link death
/// claims (solution 2, generated 10-op 4-processor bus problems, K = 2,
/// drawn from generator seeds the repair loop is known to certify) and 24
/// frontier walks (the two paper schedules and 22 generated 3-processor
/// problems: 6-8-op bus with solution 1 or 6-op fully connected with
/// solution 2), walks in seeded order.
[[nodiscard]] std::vector<Job> repair_frontier_jobs(std::uint64_t seed);

}  // namespace ftbench
