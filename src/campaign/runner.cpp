#include "campaign/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string_view>
#include <utility>

#include "campaign/canonical.hpp"
#include "campaign/work_pool.hpp"
#include "core/text.hpp"
#include "obs/span.hpp"
#include "sched/validate.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"

namespace ftsched::campaign {

namespace {

/// Exact string set specialized for canonical fingerprints: keys live in an
/// append-only arena next to their FNV-1a hashes, so an insert costs one
/// open-addressing probe plus an arena append — no per-key node
/// allocation — and the index-order fold re-inserts a chunk's keys with
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

/// Violating plans kept with full detail in the report. Every violation is
/// still counted; past the cap only index, seed and details survive (any
/// index can be regenerated from the seed).
constexpr std::size_t kMaxRecordedViolations = 32;

/// Response times, relative to the oracle's response bound: everything at
/// or under 1 honours the envelope, the 2+ overflow bucket is pathological.
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

obs::HistogramSnapshot blank_histogram(const std::vector<double>& bounds) {
  obs::HistogramSnapshot histogram;
  histogram.bounds = bounds;
  histogram.counts.assign(bounds.size() + 1, 0);
  return histogram;
}

void observe(obs::HistogramSnapshot& histogram, double x) {
  histogram.counts[obs::histogram_bucket(histogram.bounds, x)] += 1;
  histogram.total += 1;
  histogram.sum += x;
}

void fold_histogram(obs::HistogramSnapshot& into,
                    const obs::HistogramSnapshot& from) {
  for (std::size_t i = 0; i < into.counts.size(); ++i) {
    into.counts[i] += from.counts[i];
  }
  into.total += from.total;
  into.sum += from.sum;
}

/// Everything one chunk of scenario indices contributes, in plain values:
/// the one place the campaign counts anything. Chunks fold into one tally
/// in index order, and the report's counts, coverage and metrics are all
/// read off the folded tally, so none of them depends on which thread ran
/// which chunk. The histogram sums are floating point: each chunk sums its
/// scenarios in index order and the fold adds the chunk sums in index
/// order, so their bits are fixed by the chunk partition alone.
struct ChunkTally {
  std::uint64_t scenarios = 0;
  std::uint64_t within_contract = 0;
  std::uint64_t expected_losses = 0;
  std::uint64_t violations = 0;
  std::uint64_t iterations = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t elections = 0;
  std::uint64_t transfers = 0;
  std::uint64_t iterations_outputs_lost = 0;
  CampaignCoverage coverage;
  obs::HistogramSnapshot response_ratio =
      blank_histogram(response_ratio_bounds());
  obs::HistogramSnapshot plan_events = blank_histogram(plan_event_bounds());
  /// This chunk's violating scenarios, ascending index, full detail.
  std::vector<CampaignViolation> violating;
  /// Canonical fingerprints of this chunk's scenarios; the union over
  /// chunks gives the unique-coverage count.
  FingerprintSet fingerprints;

  void count(const CampaignScenario& scenario, const MissionResult& result,
             const Verdict& verdict, Time response_bound, Time horizon);
  /// Adds a later chunk's counts, coverage, histograms and fingerprints;
  /// its violations are the caller's to record.
  void fold(const ChunkTally& chunk);
  /// The campaign.* metrics of these counts.
  [[nodiscard]] obs::MetricsSnapshot metrics() const;
};

void ChunkTally::count(const CampaignScenario& scenario,
                       const MissionResult& result, const Verdict& verdict,
                       Time response_bound, Time horizon) {
  const MissionPlan& plan = scenario.plan;
  scenarios += 1;
  if (verdict.within_contract) within_contract += 1;
  if (!verdict.within_contract && verdict.outputs_lost) expected_losses += 1;
  if (!verdict.ok()) {
    violations += 1;
    CampaignViolation violation;
    violation.index = scenario.index;
    violation.seed = scenario.seed;
    violation.plan = plan;
    violation.details = verdict.violations;
    violating.push_back(std::move(violation));
  }

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

  iterations += result.iterations.size();
  for (const MissionIteration& iteration : result.iterations) {
    timeouts += iteration.timeouts;
    elections += iteration.elections;
    transfers += iteration.transfers;
    if (is_infinite(iteration.response_time)) {
      iterations_outputs_lost += 1;
    } else if (response_bound > 0) {
      observe(response_ratio, iteration.response_time / response_bound);
    }
  }
  observe(plan_events, static_cast<double>(plan.event_count()));
}

void ChunkTally::fold(const ChunkTally& chunk) {
  scenarios += chunk.scenarios;
  within_contract += chunk.within_contract;
  expected_losses += chunk.expected_losses;
  violations += chunk.violations;
  iterations += chunk.iterations;
  timeouts += chunk.timeouts;
  elections += chunk.elections;
  transfers += chunk.transfers;
  iterations_outputs_lost += chunk.iterations_outputs_lost;
  coverage.merge(chunk.coverage);
  fold_histogram(response_ratio, chunk.response_ratio);
  fold_histogram(plan_events, chunk.plan_events);
  for (std::size_t i = 0; i < chunk.fingerprints.size(); ++i) {
    fingerprints.insert(chunk.fingerprints.hash_at(i),
                        chunk.fingerprints.key_at(i));
  }
}

obs::MetricsSnapshot ChunkTally::metrics() const {
  obs::MetricsSnapshot metrics;
  // Verdict and loss counters, like the response-ratio histogram, appear
  // only once something was counted.
  auto add_nonzero = [&](const char* name, std::uint64_t n) {
    if (n > 0) metrics.add_counter(name, n);
  };
  metrics.add_counter("campaign.scenarios", scenarios);
  add_nonzero("campaign.within_contract", within_contract);
  add_nonzero("campaign.expected_losses", expected_losses);
  add_nonzero("campaign.violations", violations);
  metrics.add_counter("campaign.faults.crashes", coverage.crash_events);
  metrics.add_counter("campaign.faults.dead_at_start",
                      coverage.dead_at_start_events);
  metrics.add_counter("campaign.faults.links",
                      std::accumulate(coverage.link_faults.begin(),
                                      coverage.link_faults.end(),
                                      std::uint64_t{0}));
  metrics.add_counter("campaign.faults.silences", coverage.silence_events);
  metrics.add_counter("campaign.faults.suspects", coverage.suspect_events);
  metrics.add_counter("campaign.iterations", iterations);
  metrics.add_counter("campaign.timeouts", timeouts);
  metrics.add_counter("campaign.elections", elections);
  metrics.add_counter("campaign.transfers", transfers);
  add_nonzero("campaign.iterations_outputs_lost", iterations_outputs_lost);
  metrics.add_counter("campaign.unique_scenarios", fingerprints.size());
  if (response_ratio.total > 0) {
    metrics.histograms.emplace("campaign.response_ratio", response_ratio);
  }
  metrics.histograms.emplace("campaign.plan_events", plan_events);
  return metrics;
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

  // A structurally invalid schedule poisons every scenario; surface the
  // validator findings once, as a violation at the front of the list.
  std::size_t static_violations = 0;
  if (std::vector<std::string> findings = validate(schedule);
      !findings.empty()) {
    for (std::string& finding : findings) {
      finding.insert(0, "static validator: ");
    }
    CampaignViolation violation;
    violation.index = 0;
    violation.seed = options.seed;
    violation.details = std::move(findings);
    report.violations.push_back(std::move(violation));
    static_violations = 1;
  }

  auto blank_tally = [&] {
    ChunkTally tally;
    tally.coverage.processor_faults.assign(arch.processor_count(), 0);
    tally.coverage.link_faults.assign(arch.link_count(), 0);
    tally.coverage.crash_time_buckets.assign(kCrashTimeBuckets, 0);
    return tally;
  };

  // Chunky tasks amortize the runtime's per-task cost; several chunks per
  // participant balance uneven chunks. The partition is deliberately
  // independent of the thread count: the tally's floating-point histogram
  // sums are added in (partition, index-order fold) order, which must not
  // change with --threads for the metrics to stay bit-identical.
  const unsigned threads = resolve_threads(options.threads);
  report.threads_used = threads;
  const std::size_t chunk = std::max<std::size_t>(1, options.scenarios / 64);
  const std::size_t chunks = (options.scenarios + chunk - 1) / chunk;
  std::vector<ChunkScratch> scratch(std::min<std::size_t>(threads, chunks));

  auto evaluate = [&](unsigned slot, std::size_t c) {
    FTSCHED_SPAN("campaign.chunk");
    ChunkTally tally = blank_tally();
    ChunkScratch& chunk_scratch = scratch[slot];
    CampaignScenario& scenario = chunk_scratch.scenario;
    const std::size_t end = std::min(options.scenarios, (c + 1) * chunk);
    for (std::size_t i = c * chunk; i < end; ++i) {
      generator.scenario_into(i, scenario, chunk_scratch.gen);
      canonical_fingerprint_into(scenario.plan, chunk_scratch.canon,
                                 chunk_scratch.key);
      tally.fingerprints.insert(fingerprint_hash(chunk_scratch.key),
                                chunk_scratch.key);
      const MissionResult result =
          run_mission(simulator, scenario.plan, chunk_scratch.mission);
      const Verdict verdict = oracle.judge(scenario.plan, result);
      tally.count(scenario, result, verdict, oracle.response_bound(),
                  generator.horizon());
    }
    return tally;
  };

  // Chunks fold as they are emitted, in index order: identical report for
  // any thread count.
  ChunkTally total = blank_tally();
  auto fold = [&](ChunkTally&& tally) {
    FTSCHED_SPAN("campaign.merge");
    total.fold(tally);
    for (CampaignViolation& violation : tally.violating) {
      if (report.violations.size() < kMaxRecordedViolations) {
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
  ordered_for(threads, chunks, evaluate, fold);

  report.within_contract = total.within_contract;
  report.expected_losses = total.expected_losses;
  report.total_violations = static_violations + total.violations;
  report.unique_scenarios = total.fingerprints.size();
  report.duplicate_scenarios = report.scenarios_run - report.unique_scenarios;
  // An empty campaign exports no metrics at all. Read them off the tally
  // before its coverage moves into the report.
  if (options.scenarios > 0) {
    report.metrics = total.metrics();
  }
  report.coverage = std::move(total.coverage);

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
