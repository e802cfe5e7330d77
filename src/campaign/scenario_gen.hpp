// Seeded adversarial scenario sampler — the random half of the
// fault-injection campaign (DESIGN.md §7). Following Goemans/Lynch/Saias'
// framing of fault tolerance as a game against an adversary who picks the
// worst failure pattern, the generator plays a randomized adversary: it
// draws multi-iteration MissionPlans mixing every fault class the
// simulator models — mid-run crashes with jittered instants, processors
// dead from mission start, fail-silent windows, link deaths, and
// carried-over detection mistakes — both inside the schedule's tolerated
// budget (where the oracle demands masking) and deliberately beyond it
// (where losing outputs is the expected observation).
//
// Determinism contract: scenario(i) is a pure function of
// (spec, campaign seed, i). Same seed + same spec => byte-identical
// scenario stream, on any platform — the sampler uses its own bounded-draw
// helpers instead of std::uniform_*_distribution, whose outputs are
// implementation-defined. Random access is what lets the parallel runner
// fan indices across threads with no shared RNG state and lets the
// shrinker replay a single index in isolation.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sched/schedule.hpp"
#include "sim/mission.hpp"

namespace ftsched::campaign {

struct CampaignSpec {
  /// Fault budget of within-contract scenarios: max distinct processor
  /// faults drawn per scenario. -1 derives the schedule's tolerated K.
  int max_processor_failures = -1;
  /// Fraction of scenarios that deliberately exceed the budget, by one
  /// extra processor fault (expected-failure testing: the oracle only
  /// requires that such runs terminate sanely).
  double over_budget_fraction = 0.0;
  /// Probability that an injected processor fault is dead-from-start
  /// (the paper's settled "subsequent iteration" regime) rather than a
  /// mid-run crash (the "transient iteration" regime).
  double dead_at_start_probability = 0.35;
  /// Per-scenario probability of one fail-silent window on a healthy
  /// processor (§6.1 item 3 — masked for free, outside the fault budget).
  double silence_probability = 0.0;
  /// Per-scenario probability of one wrongly suspected healthy processor
  /// at mission start (detection-mistake carryover).
  double suspect_probability = 0.0;
  /// Per-scenario probability of one link fault (outside the paper's
  /// failure hypothesis: scenarios with link faults are never
  /// within-contract).
  double link_failure_probability = 0.0;
  /// Mission length, drawn uniformly in [1, max_iterations]. Crash
  /// instants are drawn from [0, 1.25 * makespan) of the iteration they
  /// strike — past-makespan instants probe the idle tail.
  int max_iterations = 1;
};

struct CampaignScenario {
  std::size_t index = 0;
  /// Derived per-scenario stream seed (mix of campaign seed and index).
  std::uint64_t seed = 0;
  MissionPlan plan;
};

/// SplitMix64-style avalanche of (campaign seed, scenario index) into the
/// per-scenario stream seed. Public so tests can pin the derivation.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// Reusable draw buffers for the batched sampling path (scenario_into):
/// one per worker amortizes the sampler's temporary allocations across a
/// whole chunk of scenarios. Treat as opaque.
struct ScenarioScratch {
  std::vector<std::size_t> victims;
  std::vector<std::size_t> pool;
};

/// Closing edge substituted when a silent-window draw degenerates to zero
/// length (both edges drew the same instant): widen by a sliver of the
/// horizon, clamped so the repaired window never escapes [0, horizon] —
/// every non-degenerate draw lies inside it, and a past-horizon edge would
/// be unreproducible by re-drawing. Public because the repair only fires
/// on a draw collision, which sampled tests cannot reach; consumes no RNG
/// draws, so seeded corpora reproduce unchanged.
[[nodiscard]] Time repaired_window_end(Time from, Time horizon);

class ScenarioGenerator {
 public:
  /// The schedule must outlive the generator. Spec fields are clamped to
  /// sane ranges (probabilities into [0,1], iterations >= 1, budget into
  /// [0, processor_count - 1]).
  ScenarioGenerator(const Schedule& schedule, CampaignSpec spec,
                    std::uint64_t seed);

  /// The index-th scenario of the stream. Pure: any index, any order, any
  /// thread, same result.
  [[nodiscard]] CampaignScenario scenario(std::size_t index) const;

  /// Batched variant: builds the index-th scenario into `out`, reusing
  /// `out`'s plan vectors and `scratch`'s draw buffers. Produces exactly
  /// scenario(index) — the campaign runner's hot path.
  void scenario_into(std::size_t index, CampaignScenario& out,
                     ScenarioScratch& scratch) const;

  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Resolved within-contract fault budget (spec or schedule K).
  [[nodiscard]] int budget() const noexcept { return budget_; }
  /// Resolved crash-instant horizon (1.25 * makespan).
  [[nodiscard]] Time horizon() const noexcept { return horizon_; }

 private:
  const Schedule* schedule_;
  CampaignSpec spec_;
  std::uint64_t seed_ = 0;
  int budget_ = 0;
  Time horizon_ = 0;
};

}  // namespace ftsched::campaign
