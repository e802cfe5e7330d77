#include "probes.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "campaign/oracle.hpp"
#include "campaign/scenario_gen.hpp"
#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/stream.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"

namespace ftbench {

namespace campaign = ftsched::campaign;
namespace service = ftsched::service;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// Runs `fn` under a span and returns its wall time in ns.
template <typename Fn>
double timed(Tracer& tracer, std::string_view name, std::string_view layer,
             std::int64_t op, Fn&& fn) {
  const Scope scope(tracer, name, layer, op);
  const auto start = Clock::now();
  fn();
  return ns_since(start);
}

}  // namespace

const std::vector<double>& Samples::get(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = values.find(name);
  return it == values.end() ? kEmpty : it->second;
}

void probe_plan_layers(const std::vector<const Plan*>& plans, unsigned threads,
                       Tracer& tracer, Samples& samples) {
  constexpr int kReps = 3;
  for (const Plan* plan : plans) {
    const Scope root(tracer, "probe.plan", "bench");
    const ftsched::Schedule& schedule = *plan->schedule;
    for (int rep = 0; rep < kReps; ++rep) {
      samples.add("io.read_problem_us",
                  timed(tracer, "io.read_problem", "io", -1, [&] {
                    if (!ftsched::io::read_problem(plan->text).has_value()) {
                      throw std::runtime_error(plan->name + ": unreadable");
                    }
                  }) / 1e3);
      samples.add("sched.schedule_us",
                  timed(tracer, "sched.schedule", "sched", -1, [&] {
                    (void)ftsched::schedule(plan->owned->problem, plan->kind);
                  }) / 1e3);
      samples.add("sim.plan_build_us",
                  timed(tracer, "sim.plan_build", "sim", -1, [&] {
                    const ftsched::Simulator built(schedule);
                  }) / 1e3);
      const std::string line = submit_line(
          "probe", plan->text, plan->kind, schedule.failures_tolerated(), 0);
      samples.add("service.parse_request_us",
                  timed(tracer, "service.parse_request", "service", -1, [&] {
                    if (!service::parse_request(line).has_value()) {
                      throw std::runtime_error(plan->name + ": bad request");
                    }
                  }) / 1e3);
    }

    // Event core: fault-free summary runs, repeated until ~2 ms of work.
    const ftsched::Simulator sim(schedule);
    ftsched::Simulator::Scratch scratch;
    ftsched::IterationSummary summary;
    const ftsched::FailureScenario none;
    sim.run_summary(none, scratch, summary);
    const auto events = static_cast<double>(summary.events_executed);
    samples.add("sim.events_per_iteration", events);
    for (int rep = 0; rep < kReps; ++rep) {
      std::size_t runs = 0;
      const double ns = timed(tracer, "sim.run_summary", "sim", -1, [&] {
        const auto start = Clock::now();
        do {
          sim.run_summary(none, scratch, summary);
          ++runs;
        } while (ns_since(start) < 2e6);
      });
      samples.add("sim.event_ns", ns / (static_cast<double>(runs) * events));
    }

    // Branch paused mid-makespan: fork it, then finish the fork.
    ftsched::Simulator::Branch paused = sim.begin();
    sim.advance_until(paused, schedule.makespan() / 2);
    for (int rep = 0; rep < kReps; ++rep) {
      std::optional<ftsched::Simulator::Branch> fork;
      samples.add("sim.fork_us", timed(tracer, "sim.fork", "sim", -1, [&] {
                    fork.emplace(paused.fork());
                  }) / 1e3);
      samples.add("sim.finish_us", timed(tracer, "sim.finish", "sim", -1, [&] {
                    (void)sim.finish(std::move(*fork));
                  }) / 1e3);
    }

    campaign::CertifySpec zero;
    zero.max_failures = 0;
    zero.threads = threads;
    for (int rep = 0; rep < kReps; ++rep) {
      samples.add("certify.fixed_ms",
                  timed(tracer, "certify.zero_budget", "campaign.certify", -1,
                        [&] { (void)campaign::certify(schedule, zero); }) /
                      1e6);
    }
  }
}

std::size_t replay_campaign(const Plan& plan,
                            const campaign::CampaignOptions& options,
                            std::size_t count, Tracer& tracer,
                            Samples& samples) {
  const Scope root(tracer, "probe.campaign", "bench");
  const ftsched::Schedule& schedule = *plan.schedule;
  const campaign::ScenarioGenerator generator(schedule, options.spec,
                                              options.seed);
  const ftsched::Simulator sim(schedule);
  const campaign::Oracle oracle(schedule, options.oracle);
  ftsched::MissionScratch scratch;
  std::size_t violations = 0;
  for (std::size_t i = 0; i < count; ++i) {
    campaign::CampaignScenario scenario;
    ftsched::MissionResult result;
    samples.add("campaign.scenario_us",
                timed(tracer, "campaign.scenario", "campaign.runner", -1, [&] {
                  scenario = generator.scenario(i);
                }) / 1e3);
    samples.add("campaign.mission_us",
                timed(tracer, "sim.run_mission", "sim", -1, [&] {
                  result = ftsched::run_mission(sim, scenario.plan, scratch);
                }) / 1e3);
    campaign::Verdict verdict;
    samples.add("campaign.oracle_us",
                timed(tracer, "campaign.oracle", "campaign.runner", -1, [&] {
                  verdict = oracle.judge(scenario.plan, result);
                }) / 1e3);
    if (verdict.within_contract && !verdict.ok()) ++violations;
  }
  return violations;
}

ShardPass certify_pass(const ftsched::Schedule& schedule,
                       const campaign::CertifySpec& spec, Tracer& tracer,
                       Samples& samples) {
  ShardPass pass;
  campaign::CertifySweep sweep;
  (void)timed(tracer, "certify.sweep", "campaign.certify", -1,
              [&] { sweep = campaign::certify_sweep(schedule, spec); });
  pass.tasks = sweep.tasks;
  campaign::CertifyMerger merger(sweep, spec);
  double merge_ns = 0;
  std::vector<double> task_ns;
  // The emit callback may run off this thread, so it records plain
  // timings and opens no spans.
  (void)timed(tracer, "certify.shard", "campaign.certify", -1, [&] {
    auto last = Clock::now();
    campaign::certify_shard(
        schedule, spec, campaign::CertifyShardSpec{},
        [&](campaign::CertifyTaskPartial&& partial) {
          const auto start = Clock::now();
          task_ns.push_back(
              std::chrono::duration<double, std::nano>(start - last).count());
          merger.add(std::move(partial));
          merge_ns += ns_since(start);
          last = Clock::now();
        });
  });
  campaign::CertifyReport report;
  merge_ns += timed(tracer, "certify.merge", "campaign.certify", -1,
                    [&] { report = merger.finish(); });
  samples.add("certify.merge_us", merge_ns / 1e3);
  samples.add("certify.to_json_us",
              timed(tracer, "certify.to_json", "campaign.certify", -1, [&] {
                pass.certificate =
                    report.to_json(*schedule.problem().architecture);
              }) / 1e3);
  if (spec.threads == 1) {
    for (const double ns : task_ns) samples.add("certify.task_ms", ns / 1e6);
  }
  pass.certified = report.certified;
  pass.branches = report.branches;
  pass.forks = report.forks;
  pass.events_simulated = report.events_simulated;
  pass.memo_probes = report.memo_probes;
  pass.memo_hits = report.memo_hits;
  return pass;
}

RequestReplay replay_request(std::string_view line, unsigned threads, bool hit,
                             std::int64_t op, Tracer& tracer, Samples& samples,
                             std::string_view root) {
  RequestReplay out;
  const Scope root_span(tracer, root, "bench", op);
  std::optional<service::Request> request;
  double ns = timed(tracer, "service.parse_request", "service", op, [&] {
    auto parsed = service::parse_request(line);
    if (parsed.has_value()) request.emplace(std::move(parsed).value());
  });
  samples.add("service.parse_request_us", ns / 1e3);
  out.stages_ns += ns;
  if (!request.has_value()) return out;
  const service::SubmitRequest& submit = request->submit;

  std::optional<ftsched::workload::OwnedProblem> owned;
  ns = timed(tracer, "io.read_problem", "io", op, [&] {
    auto parsed = ftsched::io::read_problem(submit.problem_inline);
    if (parsed.has_value()) owned.emplace(std::move(parsed).value());
  });
  samples.add("io.read_problem_us", ns / 1e3);
  out.stages_ns += ns;
  if (!owned.has_value()) return out;

  ftsched::HeuristicKind kind = ftsched::HeuristicKind::kSolution1;
  if (submit.heuristic == "solution2") kind = ftsched::HeuristicKind::kSolution2;
  if (submit.heuristic == "base") kind = ftsched::HeuristicKind::kBase;
  std::optional<ftsched::Schedule> schedule;
  ns = timed(tracer, "sched.schedule", "sched", op, [&] {
    auto scheduled = ftsched::schedule(owned->problem, kind);
    if (scheduled.has_value()) schedule.emplace(std::move(scheduled).value());
  });
  samples.add("sched.schedule_us", ns / 1e3);
  out.stages_ns += ns;
  if (!schedule.has_value()) return out;

  campaign::CertifySpec spec;
  spec.max_failures = submit.claim_k;
  spec.max_link_failures = submit.links;
  spec.max_silences = submit.silences;
  spec.response_bound = submit.response_bound;
  spec.threads = submit.threads != 0 ? submit.threads : threads;
  out.stages_ns += timed(tracer, "service.plan_key", "service", op, [&] {
    out.plan_key = service::plan_key_string(*schedule, spec);
  });
  if (hit) {
    out.stages_ns += timed(tracer, "certify.sweep", "campaign.certify", op,
                           [&] { (void)campaign::certify_sweep(*schedule, spec); });
  } else {
    const auto start = Clock::now();
    out.pass = certify_pass(*schedule, spec, tracer, samples);
    out.stages_ns += ns_since(start);
  }
  out.ok = true;
  return out;
}

void probe_service(const std::vector<const Plan*>& plans, unsigned threads,
                   Tracer& tracer, Samples& samples) {
  service::ServeOptions options;
  options.progress = false;
  options.threads = threads;
  service::CertifyService certifyd(options);
  std::int64_t op = 0;
  for (const Plan* plan : plans) {
    const std::string line =
        submit_line("probe" + std::to_string(op), plan->text, plan->kind,
                    /*claim_k=*/0, /*links=*/0);
    for (const bool hit : {false, true}) {
      service::StringSink sink;
      const double served_ns =
          timed(tracer, "service.handle_line", "service", op,
                [&] { (void)certifyd.handle_line(line, sink); });
      const RequestReplay replay = replay_request(
          line, threads, hit, op, tracer, samples, "probe.request");
      samples.add("service.self_ms", (served_ns - replay.stages_ns) / 1e6);
      if (hit) samples.add("service.hit_ms", served_ns / 1e6);
    }
    ++op;
  }
}

}  // namespace ftbench
