// Per-layer measurements of the traced run. Each probe calls one layer's
// public entry points on the workload's own plans, under spans, and
// collects samples by metric name. None of this runs in an untraced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/certify.hpp"
#include "campaign/runner.hpp"
#include "inputs.hpp"
#include "trace.hpp"

namespace ftbench {

/// Samples per metric name.
struct Samples {
  std::map<std::string, std::vector<double>> values;

  void add(const std::string& name, double value) {
    values[name].push_back(value);
  }
  [[nodiscard]] const std::vector<double>& get(const std::string& name) const;
};

/// io.read_problem_us, sched.schedule_us, sim.plan_build_us, sim.event_ns,
/// sim.events_per_iteration, sim.fork_us, sim.finish_us, certify.fixed_ms
/// and service.parse_request_us on each plan.
void probe_plan_layers(const std::vector<const Plan*>& plans, unsigned threads,
                       Tracer& tracer, Samples& samples);

/// campaign.scenario_us / mission_us / oracle_us: the first `count`
/// scenarios of `options` replayed through the calls the campaign runner
/// makes (ScenarioGenerator::scenario, run_mission, Oracle::judge), one
/// thread. Returns the number of oracle violations among them.
std::size_t replay_campaign(const Plan& plan,
                            const ftsched::campaign::CampaignOptions& options,
                            std::size_t count, Tracer& tracer,
                            Samples& samples);

/// What one certify_shard pass produced.
struct ShardPass {
  bool certified = false;
  std::size_t tasks = 0;
  std::size_t branches = 0;
  std::size_t forks = 0;
  std::size_t events_simulated = 0;
  std::size_t memo_probes = 0;
  std::size_t memo_hits = 0;
  std::string certificate;
};

/// One sweep through certify_shard + CertifyMerger + to_json, as certifyd
/// runs it. With spec.threads == 1 the gaps between task emits are the
/// task durations (certify.task_ms samples); merge and rendering times go
/// to certify.merge_us and certify.to_json_us.
ShardPass certify_pass(const ftsched::Schedule& schedule,
                       const ftsched::campaign::CertifySpec& spec,
                       Tracer& tracer, Samples& samples);

/// A certifyd submit replayed stage by stage through the public calls the
/// server makes: parse_request, read_problem, schedule, plan_key_string,
/// certify_sweep, then — for a miss — certify_shard with CertifyMerger and
/// to_json. Each stage is a span carrying `op`, under a root span named
/// `root`.
struct RequestReplay {
  bool ok = false;
  double stages_ns = 0;  // summed stage durations
  std::string plan_key;
  ShardPass pass;        // miss only
};

RequestReplay replay_request(std::string_view line, unsigned threads, bool hit,
                             std::int64_t op, Tracer& tracer, Samples& samples,
                             std::string_view root = "replay.request");

/// service.self_ms and service.hit_ms on workloads that do not serve
/// requests: each plan is submitted twice at a zero fault budget (a miss,
/// then a hit) to a fresh CertifyService, and each submit is replayed.
void probe_service(const std::vector<const Plan*>& plans, unsigned threads,
                   Tracer& tracer, Samples& samples);

}  // namespace ftbench
