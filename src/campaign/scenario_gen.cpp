#include "campaign/scenario_gen.hpp"

#include <algorithm>

#include "arch/architecture_graph.hpp"
#include "core/error.hpp"
#include "core/mt64.hpp"

namespace ftsched::campaign {

namespace {

/// Unbiased-enough bounded draw with a platform-independent mapping
/// (multiply-shift, Lemire); std::uniform_int_distribution is
/// implementation-defined and would break the cross-platform determinism
/// contract.
std::uint64_t draw_below(LazyMt64& rng, std::uint64_t bound) {
  if (bound <= 1) return 0;
  const unsigned __int128 wide =
      static_cast<unsigned __int128>(rng()) * bound;
  return static_cast<std::uint64_t>(wide >> 64);
}

/// Uniform in [0, 1) with 53 significant bits.
double draw_unit(LazyMt64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

bool draw_chance(LazyMt64& rng, double probability) {
  return draw_unit(rng) < probability;
}

/// First `count` entries of a deterministic Fisher-Yates shuffle of
/// 0..size-1 — a uniform random subset in random order, built in `out`
/// (storage reused across calls).
void draw_subset(LazyMt64& rng, std::size_t size, std::size_t count,
                 std::vector<std::size_t>& out) {
  out.resize(size);
  for (std::size_t i = 0; i < size; ++i) out[i] = i;
  count = std::min(count, size);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + draw_below(rng, size - i);
    std::swap(out[i], out[j]);
  }
  out.resize(count);
}

double clamp_probability(double p) { return std::clamp(p, 0.0, 1.0); }

}  // namespace

Time repaired_window_end(Time from, Time horizon) {
  return std::min(from + horizon / 16, horizon);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  // SplitMix64 finalizer over the combined state; full avalanche, so
  // consecutive indices yield unrelated mt19937_64 streams.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ScenarioGenerator::ScenarioGenerator(const Schedule& schedule,
                                     CampaignSpec spec, std::uint64_t seed)
    : schedule_(&schedule), spec_(spec), seed_(seed) {
  const std::size_t procs =
      schedule.problem().architecture->processor_count();
  FTSCHED_REQUIRE(procs > 0, "campaign needs at least one processor");

  spec_.over_budget_fraction = clamp_probability(spec_.over_budget_fraction);
  spec_.dead_at_start_probability =
      clamp_probability(spec_.dead_at_start_probability);
  spec_.silence_probability = clamp_probability(spec_.silence_probability);
  spec_.suspect_probability = clamp_probability(spec_.suspect_probability);
  spec_.link_failure_probability =
      clamp_probability(spec_.link_failure_probability);
  spec_.max_iterations = std::max(spec_.max_iterations, 1);

  budget_ = spec_.max_processor_failures >= 0
                ? spec_.max_processor_failures
                : schedule.failures_tolerated();
  // Killing every processor proves nothing; keep one survivor.
  budget_ = std::min(budget_, static_cast<int>(procs) - 1);
  budget_ = std::max(budget_, 0);

  horizon_ = 1.25 * schedule.makespan();
  if (horizon_ <= 0) horizon_ = schedule.makespan();
}

CampaignScenario ScenarioGenerator::scenario(std::size_t index) const {
  CampaignScenario out;
  ScenarioScratch scratch;
  scenario_into(index, out, scratch);
  return out;
}

void ScenarioGenerator::scenario_into(std::size_t index, CampaignScenario& out,
                                      ScenarioScratch& scratch) const {
  const ArchitectureGraph& arch = *schedule_->problem().architecture;
  const std::size_t procs = arch.processor_count();

  out.index = index;
  out.seed = mix_seed(seed_, index);
  // The sampler draws ~10-20 words per scenario from a freshly seeded
  // engine; LazyMt64 produces the exact std::mt19937_64 stream while only
  // seeding the state prefix those draws reach.
  LazyMt64 rng(out.seed);

  MissionPlan& plan = out.plan;
  plan.failures.clear();
  plan.silences.clear();
  plan.link_failures.clear();
  plan.dead_at_start.clear();
  plan.dead_links_at_start.clear();
  plan.suspected_at_start.clear();
  plan.iterations =
      1 + static_cast<int>(draw_below(
              rng, static_cast<std::uint64_t>(spec_.max_iterations)));
  auto draw_iteration = [&] {
    return static_cast<int>(
        draw_below(rng, static_cast<std::uint64_t>(plan.iterations)));
  };
  auto draw_instant = [&] { return draw_unit(rng) * horizon_; };

  // Processor faults: a distinct victim set of the drawn size, each victim
  // either settled dead-from-start or crashing at a jittered instant of a
  // random iteration.
  int faults = static_cast<int>(
      draw_below(rng, static_cast<std::uint64_t>(budget_) + 1));
  if (draw_chance(rng, spec_.over_budget_fraction)) {
    faults = std::min(budget_ + 1, static_cast<int>(procs) - 1);
  }
  std::vector<std::size_t>& victims = scratch.victims;
  draw_subset(rng, procs, static_cast<std::size_t>(faults), victims);
  for (const std::size_t victim : victims) {
    const ProcessorId proc(static_cast<ProcessorId::underlying_type>(victim));
    if (draw_chance(rng, spec_.dead_at_start_probability)) {
      plan.dead_at_start.push_back(proc);
    } else {
      plan.failures.push_back(
          MissionFailure{draw_iteration(), FailureEvent{proc, draw_instant()}});
    }
  }

  // One fail-silent window on a processor that is not genuinely faulted —
  // silencing a corpse adds nothing.
  if (draw_chance(rng, spec_.silence_probability) &&
      victims.size() < procs) {
    std::size_t healthy = draw_below(rng, procs - victims.size());
    std::vector<std::size_t>& alive = scratch.pool;
    alive.clear();
    for (std::size_t p = 0; p < procs; ++p) {
      if (std::find(victims.begin(), victims.end(), p) == victims.end()) {
        alive.push_back(p);
      }
    }
    const ProcessorId proc(
        static_cast<ProcessorId::underlying_type>(alive[healthy]));
    Time from = draw_instant();
    Time to = draw_instant();
    if (to < from) std::swap(from, to);
    if (time_eq(from, to)) to = repaired_window_end(from, horizon_);
    plan.silences.push_back(
        MissionSilence{draw_iteration(), SilentWindow{proc, from, to}});
  }

  // One carried-over detection mistake: a processor not dead at mission
  // start that everyone wrongly flags.
  if (draw_chance(rng, spec_.suspect_probability)) {
    std::vector<std::size_t>& candidates = scratch.pool;
    candidates.clear();
    for (std::size_t p = 0; p < procs; ++p) {
      const ProcessorId proc(static_cast<ProcessorId::underlying_type>(p));
      if (std::find(plan.dead_at_start.begin(), plan.dead_at_start.end(),
                    proc) == plan.dead_at_start.end()) {
        candidates.push_back(p);
      }
    }
    if (!candidates.empty()) {
      plan.suspected_at_start.push_back(
          ProcessorId(static_cast<ProcessorId::underlying_type>(
              candidates[draw_below(rng, candidates.size())])));
    }
  }

  // One link fault (always outside the paper's contract).
  if (arch.link_count() > 0 &&
      draw_chance(rng, spec_.link_failure_probability)) {
    const LinkId link(static_cast<LinkId::underlying_type>(
        draw_below(rng, arch.link_count())));
    if (draw_chance(rng, spec_.dead_at_start_probability)) {
      plan.dead_links_at_start.push_back(link);
    } else {
      plan.link_failures.push_back(MissionLinkFailure{
          draw_iteration(), LinkFailureEvent{link, draw_instant()}});
    }
  }
}

}  // namespace ftsched::campaign
