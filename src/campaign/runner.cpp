#include "campaign/runner.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <utility>

#include "campaign/canonical.hpp"
#include "campaign/work_pool.hpp"
#include "core/text.hpp"
#include "obs/span.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"

namespace ftsched::campaign {

namespace {

/// Exact string set specialized for canonical fingerprints: keys live in an
/// append-only arena next to their FNV-1a hashes, so an insert costs one
/// open-addressing probe plus an arena append — no per-key node
/// allocation — and the index-order merge re-inserts a chunk's keys with
/// their stored hashes, no re-hash. Equality still compares full key
/// bytes, so the unique count is exact.
class FingerprintSet {
 public:
  /// True when `key` was new. `hash` must be fingerprint_hash(key).
  bool insert(std::uint64_t hash, std::string_view key) {
    if ((size() + 1) * 2 > index_.size()) grow();
    std::size_t probe = hash & mask_;
    while (true) {
      const std::uint32_t slot = index_[probe];
      if (slot == 0) {
        index_[probe] = static_cast<std::uint32_t>(size() + 1);
        hashes_.push_back(hash);
        arena_.append(key);
        ends_.push_back(static_cast<std::uint32_t>(arena_.size()));
        return true;
      }
      if (hashes_[slot - 1] == hash && key_at(slot - 1) == key) return false;
      probe = (probe + 1) & mask_;
    }
  }

  [[nodiscard]] std::size_t size() const { return hashes_.size(); }
  [[nodiscard]] std::uint64_t hash_at(std::size_t i) const {
    return hashes_[i];
  }
  [[nodiscard]] std::string_view key_at(std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(arena_).substr(begin, ends_[i] - begin);
  }

 private:
  void grow() {
    const std::size_t capacity = index_.empty() ? 128 : index_.size() * 2;
    index_.assign(capacity, 0);
    mask_ = capacity - 1;
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      std::size_t probe = hashes_[i] & mask_;
      while (index_[probe] != 0) probe = (probe + 1) & mask_;
      index_[probe] = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::string arena_;                  // concatenated keys
  std::vector<std::uint32_t> ends_;    // arena end offset of each key
  std::vector<std::uint64_t> hashes_;  // caller-supplied FNV-1a per key
  std::vector<std::uint32_t> index_;   // open addressing: entry index + 1
  std::size_t mask_ = 0;
};

/// Everything one chunk of scenario indices contributes; merged in index
/// order so the report is independent of which thread ran which chunk.
struct Partial {
  std::size_t within_contract = 0;
  std::size_t expected_losses = 0;
  std::size_t total_violations = 0;
  std::vector<CampaignViolation> violations;
  /// Canonical fingerprints of this chunk's scenarios; the global union
  /// gives the unique-coverage count, independent of chunk-to-thread
  /// assignment.
  FingerprintSet fingerprints;
  CampaignCoverage coverage;
  obs::MetricsSnapshot metrics;
};

/// Response times, relative to the oracle's static bound: everything at or
/// under 1 honours the envelope, the 2+ overflow bucket is pathological.
const std::vector<double>& response_ratio_bounds() {
  static const std::vector<double> bounds = {0.25, 0.5, 0.75, 1.0,
                                             1.25, 1.5,  2.0};
  return bounds;
}

/// Injected events per mission plan (the shrinker's search-space size).
const std::vector<double>& plan_event_bounds() {
  static const std::vector<double> bounds = {0, 1, 2, 4, 8, 16};
  return bounds;
}

/// Plain-integer per-chunk metric accumulator. The domain metrics used to
/// be counted straight into the partial's MetricsSnapshot — ~15 string-map
/// lookups per scenario, a sizeable slice of the per-scenario budget. The
/// tally keeps the hot loop lookup-free and is flushed into the snapshot
/// once per chunk; every chunk's histogram sums accumulate in the same
/// scenario order as before and chunks still merge in index order, so the
/// flushed snapshot is bit-identical to per-scenario counting (conditional
/// keys are only created when their tally is nonzero, matching the old
/// path's create-on-first-touch).
struct ChunkTally {
  std::uint64_t scenarios = 0;
  std::uint64_t within_contract = 0;
  std::uint64_t expected_losses = 0;
  std::uint64_t violations = 0;
  std::uint64_t faults_crashes = 0;
  std::uint64_t faults_dead_at_start = 0;
  std::uint64_t faults_links = 0;
  std::uint64_t faults_silences = 0;
  std::uint64_t faults_suspects = 0;
  std::uint64_t iterations = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t elections = 0;
  std::uint64_t transfers = 0;
  std::uint64_t iterations_outputs_lost = 0;
  /// response_ratio_bounds() buckets + overflow.
  std::array<std::uint64_t, 8> response_ratio{};
  std::uint64_t response_ratio_total = 0;
  double response_ratio_sum = 0;
  /// plan_event_bounds() buckets + overflow.
  std::array<std::uint64_t, 7> plan_events{};
  std::uint64_t plan_events_total = 0;
  double plan_events_sum = 0;
};

void count_metrics(const CampaignScenario& scenario,
                   const MissionResult& result, const Verdict& verdict,
                   Time response_bound, ChunkTally& tally) {
  const MissionPlan& plan = scenario.plan;
  tally.scenarios += 1;
  if (verdict.within_contract) tally.within_contract += 1;
  if (!verdict.within_contract && verdict.outputs_lost) {
    tally.expected_losses += 1;
  }
  if (!verdict.ok()) tally.violations += 1;
  tally.faults_crashes += plan.failures.size();
  tally.faults_dead_at_start += plan.dead_at_start.size();
  tally.faults_links +=
      plan.link_failures.size() + plan.dead_links_at_start.size();
  tally.faults_silences += plan.silences.size();
  tally.faults_suspects += plan.suspected_at_start.size();
  tally.iterations += result.iterations.size();
  for (const MissionIteration& iteration : result.iterations) {
    tally.timeouts += iteration.timeouts;
    tally.elections += iteration.elections;
    tally.transfers += iteration.transfers;
    if (is_infinite(iteration.response_time)) {
      tally.iterations_outputs_lost += 1;
    } else if (response_bound > 0) {
      const double ratio = iteration.response_time / response_bound;
      tally.response_ratio[obs::histogram_bucket(response_ratio_bounds(),
                                                 ratio)] += 1;
      tally.response_ratio_total += 1;
      tally.response_ratio_sum += ratio;
    }
  }
  const double events = static_cast<double>(plan.event_count());
  tally.plan_events[obs::histogram_bucket(plan_event_bounds(), events)] += 1;
  tally.plan_events_total += 1;
  tally.plan_events_sum += events;
}

void flush_histogram(obs::MetricsSnapshot& metrics, const std::string& name,
                     const std::vector<double>& bounds,
                     const std::uint64_t* counts, std::size_t n_counts,
                     std::uint64_t total, double sum) {
  obs::HistogramSnapshot histogram;
  histogram.bounds = bounds;
  histogram.counts.assign(counts, counts + n_counts);
  histogram.total = total;
  histogram.sum = sum;
  metrics.histograms.emplace(name, std::move(histogram));
}

void flush_tally(const ChunkTally& tally, obs::MetricsSnapshot& metrics) {
  metrics.add_counter("campaign.scenarios", tally.scenarios);
  if (tally.within_contract > 0) {
    metrics.add_counter("campaign.within_contract", tally.within_contract);
  }
  if (tally.expected_losses > 0) {
    metrics.add_counter("campaign.expected_losses", tally.expected_losses);
  }
  if (tally.violations > 0) {
    metrics.add_counter("campaign.violations", tally.violations);
  }
  metrics.add_counter("campaign.faults.crashes", tally.faults_crashes);
  metrics.add_counter("campaign.faults.dead_at_start",
                      tally.faults_dead_at_start);
  metrics.add_counter("campaign.faults.links", tally.faults_links);
  metrics.add_counter("campaign.faults.silences", tally.faults_silences);
  metrics.add_counter("campaign.faults.suspects", tally.faults_suspects);
  metrics.add_counter("campaign.iterations", tally.iterations);
  metrics.add_counter("campaign.timeouts", tally.timeouts);
  metrics.add_counter("campaign.elections", tally.elections);
  metrics.add_counter("campaign.transfers", tally.transfers);
  if (tally.iterations_outputs_lost > 0) {
    metrics.add_counter("campaign.iterations_outputs_lost",
                        tally.iterations_outputs_lost);
  }
  if (tally.response_ratio_total > 0) {
    flush_histogram(metrics, "campaign.response_ratio",
                    response_ratio_bounds(), tally.response_ratio.data(),
                    tally.response_ratio.size(), tally.response_ratio_total,
                    tally.response_ratio_sum);
  }
  flush_histogram(metrics, "campaign.plan_events", plan_event_bounds(),
                  tally.plan_events.data(), tally.plan_events.size(),
                  tally.plan_events_total, tally.plan_events_sum);
}

void count_coverage(const CampaignScenario& scenario, Time horizon,
                    CampaignCoverage& coverage) {
  const MissionPlan& plan = scenario.plan;
  for (const ProcessorId proc : plan.dead_at_start) {
    coverage.processor_faults[proc.index()] += 1;
    coverage.dead_at_start_events += 1;
  }
  for (const MissionFailure& failure : plan.failures) {
    coverage.processor_faults[failure.event.processor.index()] += 1;
    coverage.crash_events += 1;
    const double fraction =
        horizon > 0 ? failure.event.time / horizon : 0.0;
    std::size_t bucket = static_cast<std::size_t>(
        fraction * static_cast<double>(kCrashTimeBuckets));
    bucket = std::min(bucket, kCrashTimeBuckets - 1);
    coverage.crash_time_buckets[bucket] += 1;
  }
  for (const LinkId link : plan.dead_links_at_start) {
    coverage.link_faults[link.index()] += 1;
  }
  for (const MissionLinkFailure& failure : plan.link_failures) {
    coverage.link_faults[failure.event.link.index()] += 1;
  }
  coverage.silence_events += plan.silences.size();
  coverage.suspect_events += plan.suspected_at_start.size();
  if (plan.iterations > 1) coverage.multi_iteration_missions += 1;
}

/// One participant's working set: sampler/fingerprint/mission buffers that
/// every scenario of its chunks reuses (the amortization that took the
/// per-scenario cost from malloc-bound to simulation-bound). It survives
/// from chunk to chunk, and with it the mission scratch's discrete-
/// iteration memo, the campaign's only reuse path. The memo is a
/// pure-function cache (scenario -> IterationSummary), so which participant
/// runs a chunk cannot change any result, only how many simulations are
/// skipped; at 1 thread the memo is campaign-global.
struct ChunkScratch {
  CampaignScenario scenario;
  ScenarioScratch gen;
  CanonicalScratch canon;
  MissionScratch mission;
  std::string key;
};

}  // namespace

void CampaignCoverage::merge(const CampaignCoverage& other) {
  auto add = [](std::vector<std::size_t>& into,
                const std::vector<std::size_t>& from) {
    into.resize(std::max(into.size(), from.size()), 0);
    for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
  };
  add(processor_faults, other.processor_faults);
  add(link_faults, other.link_faults);
  add(crash_time_buckets, other.crash_time_buckets);
  dead_at_start_events += other.dead_at_start_events;
  crash_events += other.crash_events;
  silence_events += other.silence_events;
  suspect_events += other.suspect_events;
  multi_iteration_missions += other.multi_iteration_missions;
}

CampaignReport run_campaign(const Schedule& schedule,
                            const CampaignOptions& options) {
  FTSCHED_SPAN("campaign.run");
  const auto wall_start = std::chrono::steady_clock::now();

  const ScenarioGenerator generator(schedule, options.spec, options.seed);
  const Oracle oracle(schedule, options.oracle);
  const Simulator simulator(schedule);
  const ArchitectureGraph& arch = *schedule.problem().architecture;

  CampaignReport report;
  report.claimed_tolerance = oracle.claimed_tolerance();
  report.response_bound = oracle.response_bound();
  report.horizon = generator.horizon();
  report.scenarios_run = options.scenarios;

  auto blank_coverage = [&] {
    CampaignCoverage coverage;
    coverage.processor_faults.assign(arch.processor_count(), 0);
    coverage.link_faults.assign(arch.link_count(), 0);
    coverage.crash_time_buckets.assign(kCrashTimeBuckets, 0);
    return coverage;
  };
  report.coverage = blank_coverage();

  // A structurally invalid schedule poisons every scenario; surface the
  // validator findings once, as a violation at the front of the list.
  if (!oracle.static_violations().empty()) {
    CampaignViolation violation;
    violation.index = 0;
    violation.seed = options.seed;
    violation.details = oracle.static_violations();
    report.violations.push_back(std::move(violation));
    report.total_violations += 1;
  }

  const unsigned threads = resolve_threads(options.threads);
  report.threads_used = threads;
  if (options.scenarios == 0) {
    report.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return report;
  }

  // Chunky tasks amortize the runtime's per-task cost; several chunks per
  // participant balance uneven chunks. The partition is deliberately
  // independent of the thread count: per-chunk metrics carry floating-point
  // histogram sums, and addition order — fixed by (partition, index-order
  // merge), not by which thread ran what — must not change with --threads
  // for the merged snapshot to stay bit-identical.
  const std::size_t chunk = std::max<std::size_t>(1, options.scenarios / 64);
  const std::size_t chunks = (options.scenarios + chunk - 1) / chunk;
  std::vector<ChunkScratch> scratch(std::min<std::size_t>(threads, chunks));

  auto evaluate = [&](unsigned slot, std::size_t c) {
    FTSCHED_SPAN("campaign.chunk");
    Partial partial;
    partial.coverage = blank_coverage();
    ChunkTally tally;
    ChunkScratch& chunk_scratch = scratch[slot];
    CampaignScenario& scenario = chunk_scratch.scenario;
    const std::size_t end = std::min(options.scenarios, (c + 1) * chunk);
    for (std::size_t i = c * chunk; i < end; ++i) {
      generator.scenario_into(i, scenario, chunk_scratch.gen);
      count_coverage(scenario, generator.horizon(), partial.coverage);
      canonical_fingerprint_into(scenario.plan, chunk_scratch.canon,
                                 chunk_scratch.key);
      partial.fingerprints.insert(fingerprint_hash(chunk_scratch.key),
                                  chunk_scratch.key);
      const MissionResult result =
          run_mission(simulator, scenario.plan, chunk_scratch.mission);
      const Verdict verdict = oracle.judge(scenario.plan, result);
      count_metrics(scenario, result, verdict, oracle.response_bound(),
                    tally);
      if (verdict.within_contract) partial.within_contract += 1;
      if (!verdict.within_contract && verdict.outputs_lost) {
        partial.expected_losses += 1;
      }
      if (!verdict.ok()) {
        partial.total_violations += 1;
        CampaignViolation violation;
        violation.index = scenario.index;
        violation.seed = scenario.seed;
        violation.plan = scenario.plan;
        violation.details = verdict.violations;
        partial.violations.push_back(std::move(violation));
      }
    }
    flush_tally(tally, partial.metrics);
    return partial;
  };

  // Chunks merge as they are emitted, in index order: identical report
  // for any thread count.
  FingerprintSet fingerprints;
  auto merge = [&](Partial&& partial) {
    FTSCHED_SPAN("campaign.merge");
    report.within_contract += partial.within_contract;
    report.expected_losses += partial.expected_losses;
    report.total_violations += partial.total_violations;
    for (std::size_t i = 0; i < partial.fingerprints.size(); ++i) {
      fingerprints.insert(partial.fingerprints.hash_at(i),
                          partial.fingerprints.key_at(i));
    }
    report.coverage.merge(partial.coverage);
    report.metrics.merge(partial.metrics);
    for (CampaignViolation& violation : partial.violations) {
      if (report.violations.size() < options.max_recorded_violations) {
        report.violations.push_back(std::move(violation));
      } else {
        CampaignViolation stub;
        stub.index = violation.index;
        stub.seed = violation.seed;
        stub.details = std::move(violation.details);
        report.violations.push_back(std::move(stub));
      }
    }
  };
  ordered_for(threads, chunks, evaluate, merge);

  report.unique_scenarios = fingerprints.size();
  report.duplicate_scenarios = report.scenarios_run - report.unique_scenarios;
  report.metrics.add_counter("campaign.unique_scenarios",
                             report.unique_scenarios);

  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

std::string CampaignReport::to_text(const ArchitectureGraph& arch) const {
  std::string out;
  out += "campaign: ";
  out += std::to_string(scenarios_run);
  out += " scenarios, ";
  out += std::to_string(within_contract);
  out += " within claimed K=";
  out += std::to_string(claimed_tolerance);
  out += ", ";
  out += std::to_string(expected_losses);
  out += " expected over-budget losses\n";
  out += "verdict:  " +
         (total_violations == 0
              ? std::string("no oracle violations")
              : std::to_string(total_violations) + " VIOLATIONS") +
         "\n";
  out += "bound:    response <= " + time_to_string(response_bound) +
         ", crash horizon " + time_to_string(horizon) + "\n";
  out += "coverage: " + std::to_string(unique_scenarios) +
         " unique fault patterns (" + std::to_string(duplicate_scenarios) +
         " duplicate draws)\n";
  char rate[64];
  std::snprintf(rate, sizeof rate, "%.0f scenarios/s on %u thread%s\n",
                scenarios_per_second(), threads_used,
                threads_used == 1 ? "" : "s");
  out += "rate:     ";
  out += rate;

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"processor", "faulted"});
  for (const Processor& proc : arch.processors()) {
    rows.push_back({proc.name,
                    std::to_string(coverage.processor_faults[proc.id.index()])});
  }
  out += render_table(rows);

  if (arch.link_count() > 0) {
    rows.clear();
    rows.push_back({"link", "killed"});
    for (const Link& link : arch.links()) {
      rows.push_back(
          {link.name, std::to_string(coverage.link_faults[link.id.index()])});
    }
    out += render_table(rows);
  }

  rows.clear();
  rows.push_back({"crash bucket", "hits"});
  for (std::size_t b = 0; b < coverage.crash_time_buckets.size(); ++b) {
    const double lo = static_cast<double>(b) /
                      static_cast<double>(kCrashTimeBuckets) * horizon;
    const double hi = static_cast<double>(b + 1) /
                      static_cast<double>(kCrashTimeBuckets) * horizon;
    std::string bucket = "[";
    bucket += time_to_string(lo);
    bucket += ", ";
    bucket += time_to_string(hi);
    bucket += ")";
    rows.push_back({std::move(bucket),
                    std::to_string(coverage.crash_time_buckets[b])});
  }
  out += render_table(rows);

  rows.clear();
  rows.push_back({"event class", "count"});
  rows.push_back({"dead at start", std::to_string(coverage.dead_at_start_events)});
  rows.push_back({"mid-run crashes", std::to_string(coverage.crash_events)});
  rows.push_back({"silent windows", std::to_string(coverage.silence_events)});
  rows.push_back({"wrong suspicions", std::to_string(coverage.suspect_events)});
  rows.push_back({"multi-iteration missions",
                  std::to_string(coverage.multi_iteration_missions)});
  out += render_table(rows);
  return out;
}

}  // namespace ftsched::campaign
