// Parallel fault-injection campaign runner: fans N generated scenarios
// out in chunks through ordered_for (campaign/work_pool.hpp), judges every
// mission with the oracle, and aggregates a report with scenario-space
// coverage counters.
//
// Determinism contract: the report is a pure function of
// (schedule, options) — independent of thread count and scheduling order.
// Scenarios are drawn by random access (ScenarioGenerator::scenario(i) is
// pure), and each chunk's tally is folded as ordered_for emits it, in
// chunk-index order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/oracle.hpp"
#include "campaign/scenario_gen.hpp"
#include "obs/metrics.hpp"

namespace ftsched::campaign {

struct CampaignOptions {
  std::size_t scenarios = 1000;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  std::uint64_t seed = 0;
  CampaignSpec spec;
  OracleSpec oracle;
};

/// Crash-instant histogram resolution over [0, horizon).
inline constexpr std::size_t kCrashTimeBuckets = 10;

/// Which corners of the scenario space the campaign actually hit.
struct CampaignCoverage {
  /// Per processor: scenarios that faulted it (crash or dead at start).
  std::vector<std::size_t> processor_faults;
  /// Per link: scenarios that killed it.
  std::vector<std::size_t> link_faults;
  /// Mid-run crash instants, bucketed over [0, horizon).
  std::vector<std::size_t> crash_time_buckets;
  std::size_t dead_at_start_events = 0;
  std::size_t crash_events = 0;
  std::size_t silence_events = 0;
  std::size_t suspect_events = 0;
  std::size_t multi_iteration_missions = 0;

  void merge(const CampaignCoverage& other);
};

struct CampaignViolation {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  /// The violating plan; empty (default) past the report's first 32
  /// violations, which alone keep their plans.
  MissionPlan plan;
  std::vector<std::string> details;
};

struct CampaignReport {
  std::size_t scenarios_run = 0;
  /// Scenarios inside the claimed fault budget — the ones the oracle
  /// holds to the masking contract.
  std::size_t within_contract = 0;
  /// Over-budget / link-faulted scenarios that lost outputs: the expected
  /// observation, evidence the campaign's attacks have teeth.
  std::size_t expected_losses = 0;
  /// Oracle violations, ascending scenario index. Empty == the schedule
  /// survived the campaign.
  std::vector<CampaignViolation> violations;
  std::size_t total_violations = 0;
  /// Distinct canonical fault patterns among the generated scenarios
  /// (campaign/canonical.hpp): the campaign's real coverage, as opposed to
  /// its raw draw count. Counted over exact canonical fingerprints, so it
  /// is thread-count independent like every other field.
  std::size_t unique_scenarios = 0;
  /// Draws whose canonical pattern had already been generated.
  std::size_t duplicate_scenarios = 0;
  CampaignCoverage coverage;
  /// Domain metrics of the whole campaign (verdict counters, injected
  /// faults per class, per-iteration timeout/election/transfer counts,
  /// response-time-vs-bound histogram). Read off the same folded chunk
  /// tally as the counts and coverage above, so — like every other report
  /// field — it is a pure function of (schedule, options), bit-identical
  /// for any thread count. Deliberately excludes wall-clock data (that
  /// lives in elapsed_seconds and the profiling spans). Export with
  /// metrics.to_json() / campaign_tool --metrics-out.
  obs::MetricsSnapshot metrics;
  /// Resolved oracle envelope, for the report header.
  int claimed_tolerance = 0;
  Time response_bound = 0;
  Time horizon = 0;
  unsigned threads_used = 1;
  double elapsed_seconds = 0;

  [[nodiscard]] double scenarios_per_second() const {
    return elapsed_seconds > 0
               ? static_cast<double>(scenarios_run) / elapsed_seconds
               : 0.0;
  }

  /// Human-readable summary: verdict, throughput, coverage tables.
  [[nodiscard]] std::string to_text(const ArchitectureGraph& arch) const;
};

/// Runs the campaign. Throws nothing campaign-specific; propagates the
/// first worker exception (none expected — simulator runs are total).
[[nodiscard]] CampaignReport run_campaign(const Schedule& schedule,
                                          const CampaignOptions& options);

}  // namespace ftsched::campaign
