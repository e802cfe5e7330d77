// Exact large-plan goldens: FNV-1a digests over the raw bits of every trace
// event, every IterationResult field and every IterationSummary field the
// simulator produces on three 200-operation plans — an 8-processor bus
// under solution 1 (watch chains, elections, backup sends), a fully
// connected architecture under solution 2 (replicated sends) and an
// 8-processor ring whose transfers relay over several hops. Trace::to_text
// rounds instants to four decimals, so it cannot see an ulp move; these
// digests can. Plans go through the `.ft` text round trip, as the
// benchmark's do: its four-decimal times make sums coincide, which is
// what exposes the epsilon-early time guards (a watcher timeout or a slot
// passing at a batch up to kTimeEpsilon before its own deadline).
//
// Scenarios: campaign draws of the benchmark's large-campaign spec, each
// mission replayed iteration by iteration; hand-placed mid-hop crashes,
// link deaths, silent windows, suspects and instants a hair before a slot
// or a timeout; and forked branches advanced, injected and finished at
// several instants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/scenario_gen.hpp"
#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "sim/simulator.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_time(Time t) {
    std::uint64_t bits;
    std::memcpy(&bits, &t, sizeof bits);
    add(bits);
  }
  void add_procs(const std::vector<ProcessorId>& procs) {
    add(procs.size());
    for (ProcessorId p : procs) add(static_cast<std::uint64_t>(p.value()));
  }
  void add_times(const std::vector<Time>& times) {
    add(times.size());
    for (Time t : times) add_time(t);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_result(Fnv& h, const IterationResult& r) {
  h.add(r.trace.events().size());
  for (const TraceEvent& e : r.trace.events()) {
    h.add(static_cast<std::uint64_t>(e.kind));
    h.add_time(e.time);
    h.add(static_cast<std::uint64_t>(e.proc.value()));
    h.add(static_cast<std::uint64_t>(e.peer.value()));
    h.add(static_cast<std::uint64_t>(e.op.value()));
    h.add(static_cast<std::uint64_t>(e.rank));
    h.add(static_cast<std::uint64_t>(e.dep.value()));
    h.add(static_cast<std::uint64_t>(e.link.value()));
  }
  h.add(r.events_executed);
  h.add(r.all_outputs_produced ? 1 : 0);
  h.add_time(r.response_time);
  h.add_procs(r.detected_failures);
  h.add_time(r.silence_deferral);
  h.add_times(r.op_completions);
}

void hash_summary(Fnv& h, const IterationSummary& s) {
  h.add(s.all_outputs_produced ? 1 : 0);
  h.add_time(s.response_time);
  h.add(s.events_executed);
  h.add(s.timeouts);
  h.add(s.elections);
  h.add(s.transfer_starts);
  h.add_procs(s.detected_failures);
  h.add_time(s.silence_deferral);
  h.add_times(s.op_completions);
}

/// Runs `scenario` through run() and run_summary() and hashes both.
IterationResult hash_run(Fnv& h, const Simulator& simulator,
                         const FailureScenario& scenario,
                         Simulator::Scratch& scratch) {
  IterationResult result = simulator.run(scenario);
  hash_result(h, result);
  IterationSummary summary;
  simulator.run_summary(scenario, scratch, summary);
  hash_summary(h, summary);
  return result;
}

bool contains(const std::vector<ProcessorId>& procs, ProcessorId p) {
  return std::find(procs.begin(), procs.end(), p) != procs.end();
}

/// Replays a mission iteration by iteration with traces: the knowledge
/// each iteration's survivors end with (dead and known, or suspected) seeds
/// the next, and processors that died undetected crash again at t = 0.
void hash_mission(Fnv& h, const Simulator& simulator, const MissionPlan& plan,
                  Simulator::Scratch& scratch) {
  auto as_set = [](std::vector<ProcessorId> procs) {
    std::sort(procs.begin(), procs.end());
    procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
    return procs;
  };
  std::vector<ProcessorId> dead = as_set(plan.dead_at_start);
  std::vector<ProcessorId> known = dead;
  std::vector<ProcessorId> suspected = as_set(plan.suspected_at_start);
  std::erase_if(suspected, [&](ProcessorId p) { return contains(dead, p); });
  std::vector<LinkId> dead_links = plan.dead_links_at_start;
  for (int i = 0; i < plan.iterations; ++i) {
    FailureScenario scenario;
    scenario.failed_at_start = known;
    scenario.suspected_at_start = suspected;
    scenario.failed_links_at_start = dead_links;
    for (ProcessorId p : dead) {
      if (!contains(known, p)) scenario.events.push_back({p, 0});
    }
    for (const MissionFailure& f : plan.failures) {
      if (f.iteration == i) scenario.events.push_back(f.event);
    }
    for (const MissionSilence& s : plan.silences) {
      if (s.iteration == i) scenario.silent_windows.push_back(s.window);
    }
    for (const MissionLinkFailure& f : plan.link_failures) {
      if (f.iteration == i) scenario.link_events.push_back(f.event);
    }
    const IterationResult result = hash_run(h, simulator, scenario, scratch);
    for (const FailureEvent& e : scenario.events) {
      if (!contains(dead, e.processor)) dead.push_back(e.processor);
    }
    for (const LinkFailureEvent& e : scenario.link_events) {
      if (std::find(dead_links.begin(), dead_links.end(), e.link) ==
          dead_links.end()) {
        dead_links.push_back(e.link);
      }
    }
    known.clear();
    suspected.clear();
    for (ProcessorId p : result.detected_failures) {
      (contains(dead, p) ? known : suspected).push_back(p);
    }
  }
}

/// Faults placed against the fault-free trace: the feeding processor or
/// the link of every `stride`-th hop dies mid-frame; an unrelated
/// processor crashes, or the sender's silent window closes, half an
/// epsilon before a slot or a timeout (the batch passes that guard early);
/// silent windows span a quarter of the makespan, alone or overlapping a
/// crash; suspects start flagged.
std::vector<FailureScenario> placed_scenarios(const Schedule& schedule,
                                              const IterationResult& free) {
  const Problem& problem = schedule.problem();
  const std::size_t procs = problem.architecture->processor_count();
  const Time makespan = schedule.makespan();
  auto proc = [](std::size_t i) {
    return ProcessorId{static_cast<ProcessorId::underlying_type>(i)};
  };
  std::vector<const TraceEvent*> starts;
  for (const TraceEvent& e : free.trace.events()) {
    if (e.kind == TraceEvent::Kind::kTransferStart) starts.push_back(&e);
  }
  std::vector<FailureScenario> out;
  const std::size_t stride = std::max<std::size_t>(1, starts.size() / 6);
  for (std::size_t i = stride / 2; i < starts.size(); i += stride) {
    const TraceEvent& e = *starts[i];
    const Time mid = e.time + problem.comm->duration(e.dep, e.link) / 2;
    out.push_back(FailureScenario::crash(e.proc, mid));
    FailureScenario link;
    link.link_events.push_back({e.link, mid});
    out.push_back(link);
    // A crash of another processor half an epsilon before this slot, and
    // a silent window on the sender closing there.
    out.push_back(FailureScenario::crash(
        proc((e.proc.index() + procs / 2) % procs), e.time - 5e-10));
    FailureScenario hush;
    hush.silent_windows.push_back({e.proc, e.time / 2, e.time - 5e-10});
    out.push_back(hush);
  }
  for (std::size_t p = 0; p < procs; p += 4) {
    FailureScenario silent;
    silent.silent_windows.push_back(
        {proc(p), makespan * 0.2, makespan * 0.45});
    out.push_back(silent);
    FailureScenario both = silent;
    both.silent_windows.push_back(
        {proc((p + 1) % procs), makespan * 0.3, makespan * 0.6});
    both.events.push_back({proc((p + 2) % procs), makespan * 0.35});
    out.push_back(both);
    FailureScenario suspect;
    suspect.suspected_at_start.push_back(proc(p));
    suspect.events.push_back({proc((p + 5) % procs), makespan * 0.5});
    out.push_back(suspect);
  }
  // Every fifth of the first twenty timeouts a mid-run crash causes,
  // re-run with an unrelated crash half an epsilon before its deadline.
  const ProcessorId victim = proc(1);
  const IterationResult crashed =
      Simulator(schedule).run(FailureScenario::crash(victim, makespan * 0.3));
  std::size_t timeouts = 0;
  for (const TraceEvent& e : crashed.trace.events()) {
    if (e.kind != TraceEvent::Kind::kTimeout) continue;
    if (timeouts == 20) break;
    if (timeouts++ % 5 != 0) continue;
    FailureScenario early = FailureScenario::crash(victim, makespan * 0.3);
    const ProcessorId other = proc((e.proc.index() + 3) % procs) == victim
                                  ? proc((e.proc.index() + 4) % procs)
                                  : proc((e.proc.index() + 3) % procs);
    early.events.push_back({other, e.time - 5e-10});
    out.push_back(early);
  }
  FailureScenario two;
  two.events.push_back({proc(0), makespan * 0.4});
  two.events.push_back({proc(procs - 1), makespan * 0.4});
  two.failed_links_at_start.push_back(
      LinkId{static_cast<LinkId::underlying_type>(
          problem.architecture->link_count() - 1)});
  out.push_back(two);
  return out;
}

/// Branches forked off one paused prefix at several instants, each given
/// different remaining faults, plus a begin/advance/inject/finish chain.
void hash_forks(Fnv& h, const Simulator& simulator, const Schedule& schedule) {
  const std::size_t procs = schedule.problem().architecture->processor_count();
  const std::size_t links = schedule.problem().architecture->link_count();
  const Time makespan = schedule.makespan();
  auto proc = [](std::size_t i) {
    return ProcessorId{static_cast<ProcessorId::underlying_type>(i)};
  };
  Simulator::Branch prefix = simulator.begin();
  for (const double f : {0.1, 0.3, 0.5, 0.7}) {
    const Time t = makespan * f;
    simulator.advance_until(prefix, t);
    const std::size_t k = static_cast<std::size_t>(f * 10);

    Simulator::Branch crash = prefix.fork();
    simulator.inject(crash, FailureEvent{proc(k % procs), t});
    simulator.advance_until(crash, t + makespan * 0.1);
    simulator.inject(crash,
                     FailureEvent{proc((k + 3) % procs), t + makespan * 0.1});
    hash_result(h, simulator.finish(std::move(crash)));

    Simulator::Branch link = prefix.fork();
    simulator.inject(
        link, LinkFailureEvent{
                  LinkId{static_cast<LinkId::underlying_type>(k % links)}, t});
    hash_result(h, simulator.finish(std::move(link)));

    Simulator::Branch silent = prefix.fork();
    simulator.inject(silent, SilentWindow{proc((k + 1) % procs), t,
                                          t + makespan * 0.2});
    simulator.inject(silent, FailureEvent{proc((k + 2) % procs),
                                          t + makespan * 0.05});
    hash_result(h, simulator.finish(std::move(silent)));
  }
  hash_result(h, simulator.finish(std::move(prefix)));
}

struct GoldenPlan {
  const char* name;
  workload::ArchKind arch;
  HeuristicKind kind;
  std::uint64_t seed;
  std::size_t draws;
  std::uint64_t campaign, placed, forks;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(Golden, LargePlanTraces) {
  // bus200a and p2p200a of the benchmark's large campaign at seed 1; the
  // campaign seed is that campaign's round 0. Draw 86 of bus200a crashes
  // P4 at an instant where a watcher timeout passes early.
  constexpr std::uint64_t kCampaignSeed = 0x9e3779b97f4a7c15ULL;
  const std::vector<GoldenPlan> plans = {
      {"bus200a solution1", workload::ArchKind::kBus,
       HeuristicKind::kSolution1, 2958363945952731309ULL, 90,
       0x898e22a1217ea594ULL, 0x24d7ae129acea846ULL, 0x02b4eab7ac4a0275ULL},
      {"p2p200a solution2", workload::ArchKind::kFullyConnected,
       HeuristicKind::kSolution2, 7503068027490337465ULL, 20,
       0xe4247ec74903aca3ULL, 0xbe362089bbf97ce2ULL, 0x0ab1ebabe9c7269fULL},
      {"ring200 solution1", workload::ArchKind::kRing,
       HeuristicKind::kSolution1, 5, 12, 0x2b20e77ea22fe4f4ULL,
       0xf443f234c5df746dULL, 0x394c83d982e09ff7ULL},
  };
  campaign::CampaignSpec spec;
  spec.max_iterations = 3;
  spec.over_budget_fraction = 0.15;
  spec.silence_probability = 0.10;
  spec.suspect_probability = 0.10;
  for (const GoldenPlan& g : plans) {
    workload::RandomProblemParams params;
    params.dag.operations = 200;
    params.processors = 8;
    params.failures_to_tolerate = 1;
    params.arch_kind = g.arch;
    params.seed = g.seed;
    const std::string text =
        io::write_problem(workload::random_problem(params).problem);
    Expected<OwnedProblem> parsed = io::read_problem(text);
    ASSERT_TRUE(parsed.has_value()) << g.name;
    const OwnedProblem owned = std::move(parsed).value();
    const Schedule schedule = ftsched::schedule(owned.problem, g.kind).value();
    const Simulator simulator(schedule);
    Simulator::Scratch scratch;

    Fnv campaign;
    const campaign::ScenarioGenerator generator(schedule, spec, kCampaignSeed);
    for (std::size_t i = 0; i < g.draws; ++i) {
      hash_mission(campaign, simulator, generator.scenario(i).plan, scratch);
    }

    Fnv placed;
    const IterationResult free =
        hash_run(placed, simulator, FailureScenario{}, scratch);
    for (const FailureScenario& scenario : placed_scenarios(schedule, free)) {
      hash_run(placed, simulator, scenario, scratch);
    }

    Fnv forks;
    hash_forks(forks, simulator, schedule);

    EXPECT_EQ(hex(campaign.value()), hex(g.campaign)) << g.name;
    EXPECT_EQ(hex(placed.value()), hex(g.placed)) << g.name;
    EXPECT_EQ(hex(forks.value()), hex(g.forks)) << g.name;
  }
}

TEST(Golden, SmallPlanTraces) {
  // The same digests on small plans: the paper's two examples under each
  // heuristic that schedules them (23 to 64 expected events per iteration)
  // and the 14-operation, 4-processor random plans of summary_equiv_test
  // (92 to 133). At these sizes every campaign draw, placed fault and fork
  // lands in a handful of queue buckets, so equal-time batches, ties and
  // out-of-horizon events dominate.
  constexpr std::uint64_t kCampaignSeed = 0x9e3779b97f4a7c15ULL;
  const OwnedProblem ex1 = workload::paper_example1();
  const OwnedProblem ex2 = workload::paper_example2();
  auto random14 = [](std::uint64_t seed) {
    workload::RandomProblemParams params;
    params.dag.operations = 14;
    params.processors = 4;
    params.failures_to_tolerate = 1;
    params.seed = seed;
    return workload::random_problem(params);
  };
  const OwnedProblem seed3 = random14(3);
  const OwnedProblem seed21 = random14(21);
  struct SmallPlan {
    const char* name;
    const Problem* problem;
    HeuristicKind kind;
    std::uint64_t campaign, placed, forks;
  };
  using enum HeuristicKind;
  const std::vector<SmallPlan> plans = {
      {"example1 base", &ex1.problem, kBase,
       0x6ee0482a7b5899ebULL, 0x20204d53eae5ad3fULL,
       0x5cd882ab84ae72feULL},
      {"example2 base", &ex2.problem, kBase,
       0x25ce2b388de53f6eULL, 0x973f2fc7139956d0ULL,
       0x9296d6d5babaeb5bULL},
      {"example1 solution1", &ex1.problem, kSolution1,
       0xa38282dec31a23e3ULL, 0x2ccb5ede53832bd5ULL,
       0x5904422068094c11ULL},
      {"example1 solution2", &ex1.problem, kSolution2,
       0x84c2d94263d94a1fULL, 0x7136578208b96d99ULL,
       0xbe41198d22c99c65ULL},
      {"example2 solution2", &ex2.problem, kSolution2,
       0xe57b47c393bdab54ULL, 0x004f47aa3b0cb4d3ULL,
       0x9acd70863ee8e396ULL},
      {"example2 solution1", &ex2.problem, kSolution1,
       0xdfdc5fd6029408f0ULL, 0x5f3648c2e27d8f66ULL,
       0x79b786f5b42b6431ULL},
      {"random14 seed 3 solution1", &seed3.problem, kSolution1,
       0x8f5df4db39bf043fULL, 0x78580ee253362bd5ULL,
       0x0f134bede05430ebULL},
      {"random14 seed 3 solution2", &seed3.problem, kSolution2,
       0x63095293727ec886ULL, 0x7a7734727cb8418bULL,
       0xa13601fbd38f7f1eULL},
      {"random14 seed 21 solution1", &seed21.problem, kSolution1,
       0x440eac15a8f88e81ULL, 0x0abee367778db18eULL,
       0x02927515afbfdbd3ULL},
      {"random14 seed 21 solution2", &seed21.problem, kSolution2,
       0xc3ca5223f873125cULL, 0x889ad65149908618ULL,
       0xdbf7e3186f2aebe1ULL},
  };
  campaign::CampaignSpec spec;
  spec.max_iterations = 3;
  spec.over_budget_fraction = 0.15;
  spec.silence_probability = 0.10;
  spec.suspect_probability = 0.10;
  spec.link_failure_probability = 0.10;
  for (const SmallPlan& g : plans) {
    const Schedule schedule = ftsched::schedule(*g.problem, g.kind).value();
    const Simulator simulator(schedule);
    Simulator::Scratch scratch;

    Fnv campaign;
    const campaign::ScenarioGenerator generator(schedule, spec, kCampaignSeed);
    for (std::size_t i = 0; i < 300; ++i) {
      hash_mission(campaign, simulator, generator.scenario(i).plan, scratch);
    }

    Fnv placed;
    const IterationResult free =
        hash_run(placed, simulator, FailureScenario{}, scratch);
    for (const FailureScenario& scenario : placed_scenarios(schedule, free)) {
      hash_run(placed, simulator, scenario, scratch);
    }

    Fnv forks;
    hash_forks(forks, simulator, schedule);

    EXPECT_EQ(hex(campaign.value()), hex(g.campaign)) << g.name;
    EXPECT_EQ(hex(placed.value()), hex(g.placed)) << g.name;
    EXPECT_EQ(hex(forks.value()), hex(g.forks)) << g.name;
  }
}

}  // namespace
}  // namespace ftsched
