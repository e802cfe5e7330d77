#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "campaign/certify.hpp"
#include "campaign/frontier.hpp"
#include "campaign/repair.hpp"
#include "campaign/runner.hpp"
#include "expected.hpp"
#include "inputs.hpp"
#include "probes.hpp"
#include "service/server.hpp"
#include "service/stream.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace ftbench {

namespace campaign = ftsched::campaign;
namespace service = ftsched::service;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a, the digest of the committed known answers.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash = kFnvBasis) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Taken during static initialization, i.e. at process start.
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Adds the process CPU time of its scope to `total`.
class CpuTimer {
 public:
  explicit CpuTimer(double& total) : total_(total), start_(cpu_seconds()) {}
  ~CpuTimer() { total_ += cpu_seconds() - start_; }
  CpuTimer(const CpuTimer&) = delete;
  CpuTimer& operator=(const CpuTimer&) = delete;

 private:
  double& total_;
  double start_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

/// Per-operation pass/fail bookkeeping: an operation fails when any of its
/// output checks does; global checks (committed digests) clear `correct`.
class Checks {
 public:
  std::size_t begin_op() {
    failed_.push_back(false);
    return failed_.size() - 1;
  }
  void expect(bool ok, std::size_t op, const std::string& what) {
    if (ok) return;
    failed_[op] = true;
    note("op " + std::to_string(op) + ": " + what);
  }
  void expect_global(bool ok, const std::string& what) {
    if (ok) return;
    global_ok_ = false;
    note(what);
  }
  void fill(RunResult& result) const {
    result.attempted = failed_.size();
    result.failed = static_cast<std::uint64_t>(
        std::count(failed_.begin(), failed_.end(), true));
    result.correct = global_ok_ && result.failed == 0 && result.attempted > 0;
  }

 private:
  void note(const std::string& what) {
    if (++notes_ <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  std::vector<bool> failed_;
  bool global_ok_ = true;
  std::size_t notes_ = 0;
};

/// Everything a workload hands back besides its checks.
struct Context {
  const RunConfig& config;
  Tracer tracer;
  Checks checks;
  Samples samples;
  /// Per-layer counts and fractions by metric name (absent = 0).
  std::map<std::string, double> counts;
  RunResult result;
  double setup_s = 0;

  explicit Context(const RunConfig& c) : config(c), tracer(c.trace) {}
};

constexpr int kSetupReps = 5;

/// Builds the workload's inputs kSetupReps times and keeps the last; the
/// set-up time is the median build, the first one timed from process start.
template <typename Build>
auto timed_setup(Build&& build, double& setup_s) {
  std::vector<double> times;
  auto inputs = build();
  times.push_back(seconds_since(kProcessStart));
  for (int rep = 1; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    inputs = build();
    times.push_back(seconds_since(start));
  }
  setup_s = median(times);
  return inputs;
}

struct Phases {
  /// Latency (ms) of each untraced operation, and the loop's wall time.
  std::vector<double> op_ms;
  double wall_s = 0;
  /// Traced run: summed op-span time of the same operations, traced.
  double traced_op_s = 0;
};

/// The timed loop. Untraced: operations run back to back on `untraced`
/// until the next one would likely end past --seconds (at least one).
/// Traced: that loop gets half the time, then the same operations run again
/// on the fresh `traced` state under op spans; `after` runs outside the op
/// span (replays and checks that need the traced state).
/// `op(state, i, check_handle, tracer)` returns the operation's latency in
/// ms.
template <typename State, typename Op, typename After>
Phases run_phases(Context& ctx, State& untraced, State& traced, Op&& op,
                  After&& after) {
  Phases phases;
  Tracer off(false);
  const double budget =
      ctx.config.trace ? ctx.config.seconds / 2 : ctx.config.seconds;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (i > 0 && elapsed + elapsed / static_cast<double>(i) > budget) break;
    phases.op_ms.push_back(op(untraced, i, ctx.checks.begin_op(), off));
  }
  phases.wall_s = seconds_since(start);
  if (!ctx.config.trace) return phases;
  for (std::size_t i = 0; i < phases.op_ms.size(); ++i) {
    const std::size_t handle = ctx.checks.begin_op();
    const int span =
        ctx.tracer.open("op", "bench", static_cast<std::int64_t>(i));
    (void)op(traced, i, handle, ctx.tracer);
    ctx.tracer.close(span);
    phases.traced_op_s += ctx.tracer.spans()[span].duration_ns() / 1e9;
    after(traced, i, handle, ctx.tracer);
  }
  return phases;
}

template <typename State, typename Op>
Phases run_phases(Context& ctx, State& untraced, State& traced, Op&& op) {
  return run_phases(ctx, untraced, traced, op,
                    [](State&, std::size_t, std::size_t, Tracer&) {});
}

void add_end_to_end(Context& ctx, const Phases& phases) {
  const auto n = static_cast<double>(phases.op_ms.size());
  ctx.result.metrics = {
      {"setup_s", ctx.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ops_per_s", n / phases.wall_s, "1/s"},
      {"op_p50_ms", percentile(phases.op_ms, 50), "ms"},
      {"op_p90_ms", percentile(phases.op_ms, 90), "ms"},
  };
  const double tail = supported_percentile(phases.op_ms.size());
  ctx.result.lines.push_back(
      "ops " + std::to_string(phases.op_ms.size()) + " in " +
      fmt("%.3f", phases.wall_s) +
      " s; highest percentile with >= 10 samples beyond it: " +
      (tail > 0 ? "p" + fmt("%g", tail) : std::string("none")));
}

/// Layers of the self-time table, in print order.
const std::vector<std::string>& layers() {
  static const std::vector<std::string> kLayers = {
      "bench", "io", "service", "sched", "sim", "campaign.runner",
      "campaign.certify", "campaign.repair", "campaign.frontier"};
  return kLayers;
}

/// The per-layer metrics of the traced run, and the self-time table of its
/// traced operations (`self_ns`: summed self time per layer).
void add_per_layer(Context& ctx, const Phases& phases,
                   const std::map<std::string, double>& self_ns) {
  const Samples& s = ctx.samples;
  const auto med = [&](const char* name) { return median(s.get(name)); };
  const auto count = [&](const char* name) {
    const auto it = ctx.counts.find(name);
    return it == ctx.counts.end() ? 0.0 : it->second;
  };
  const std::vector<double>& tasks = s.get("certify.task_ms");
  std::vector<Metric>& m = ctx.result.metrics;
  m = {
      {"io.read_problem_us", med("io.read_problem_us"), "us"},
      {"service.parse_request_us", med("service.parse_request_us"), "us"},
      {"service.self_ms", med("service.self_ms"), "ms"},
      {"service.hit_p50_ms", med("service.hit_ms"), "ms"},
      {"service.cache_hit_frac", count("service.cache_hit_frac"), "frac"},
      {"sched.schedule_us", med("sched.schedule_us"), "us"},
      {"sim.plan_build_us", med("sim.plan_build_us"), "us"},
      {"sim.event_ns", med("sim.event_ns"), "ns"},
      {"sim.events_per_iteration", med("sim.events_per_iteration"), "count"},
      {"sim.fork_us", med("sim.fork_us"), "us"},
      {"sim.finish_us", med("sim.finish_us"), "us"},
      {"certify.fixed_ms", med("certify.fixed_ms"), "ms"},
      {"certify.branches", count("certify.branches"), "count"},
      {"certify.forks", count("certify.forks"), "count"},
      {"certify.events_simulated", count("certify.events_simulated"), "count"},
      {"certify.tasks", count("certify.tasks"), "count"},
      {"certify.task_p50_ms", median(tasks), "ms"},
      {"certify.task_max_ms",
       tasks.empty() ? 0.0 : *std::max_element(tasks.begin(), tasks.end()),
       "ms"},
      {"certify.cpu_util", count("certify.cpu_util"), "frac"},
      {"certify.memo_hit_frac", count("certify.memo_hit_frac"), "frac"},
      {"certify.merge_us", med("certify.merge_us"), "us"},
      {"certify.to_json_us", med("certify.to_json_us"), "us"},
      {"campaign.scenario_us", med("campaign.scenario_us"), "us"},
      {"campaign.mission_us", med("campaign.mission_us"), "us"},
      {"campaign.oracle_us", med("campaign.oracle_us"), "us"},
      {"campaign.unique_frac", count("campaign.unique_frac"), "frac"},
      {"campaign.cpu_util", count("campaign.cpu_util"), "frac"},
      {"repair.rounds", count("repair.rounds"), "count"},
      {"repair.candidates_tried", count("repair.candidates_tried"), "count"},
      {"repair.branches", count("repair.branches"), "count"},
      {"repair.shrink_sims", count("repair.shrink_sims"), "count"},
      {"frontier.points_explored", count("frontier.points_explored"), "count"},
      {"frontier.points_implied", count("frontier.points_implied"), "count"},
      {"frontier.branches", count("frontier.branches"), "count"},
  };

  double total_ns = 0;
  for (const auto& [layer, ns] : self_ns) total_ns += ns;
  const double ops = static_cast<double>(phases.op_ms.size());
  const double untraced_ms = sum(phases.op_ms) / ops;
  ctx.result.trace_overhead = phases.traced_op_s * 1e3 / ops / untraced_ms - 1;
  m.push_back({"trace_overhead", ctx.result.trace_overhead, "frac"});
  std::vector<std::string>& lines = ctx.result.lines;
  lines.push_back("layer self time per traced op (ms, share):");
  for (const std::string& layer : layers()) {
    const auto it = self_ns.find(layer);
    const double ns = it == self_ns.end() ? 0.0 : it->second;
    const double share = total_ns > 0 ? ns / total_ns : 0.0;
    m.push_back({"self." + layer, share, "frac"});
    lines.push_back("  " + layer + std::string(20 - layer.size(), ' ') +
                    fmt("%12.4f", ns / 1e6 / ops) + fmt("  %6.3f", share));
  }
  lines.push_back("self times sum to " + fmt("%.4f", total_ns / 1e6 / ops) +
                  " ms/op traced; untraced " + fmt("%.4f", untraced_ms) +
                  " ms/op; tracing overhead " +
                  fmt("%+.2f%%", ctx.result.trace_overhead * 100) +
                  " (traced vs untraced pass over the same operations)");
  // What the spans themselves cost: the measured overhead above is mostly
  // run-to-run noise when this share is small.
  Tracer scratch(true);
  constexpr int kSpans = 20000;
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) scratch.close(scratch.open("s", "l", i));
  const double span_ns = seconds_since(start) * 1e9 / kSpans;
  const double spans_per_op =
      static_cast<double>(ctx.tracer.count_under("op")) / ops;
  lines.push_back("span cost " + fmt("%.0f", span_ns) + " ns x " +
                  fmt("%.1f", spans_per_op) + " spans/op = " +
                  fmt("%.4f%%", span_ns * spans_per_op / (untraced_ms * 1e4)) +
                  " of an untraced op");
}

/// Per-sweep means of a set of 1-thread certify passes, and the memo's hit
/// share over them.
void add_pass_counts(Context& ctx, const std::vector<ShardPass>& passes) {
  double branches = 0, forks = 0, events = 0, tasks = 0, probes = 0, hits = 0;
  for (const ShardPass& pass : passes) {
    branches += static_cast<double>(pass.branches);
    forks += static_cast<double>(pass.forks);
    events += static_cast<double>(pass.events_simulated);
    tasks += static_cast<double>(pass.tasks);
    probes += static_cast<double>(pass.memo_probes);
    hits += static_cast<double>(pass.memo_hits);
  }
  const double n = passes.empty() ? 1.0 : static_cast<double>(passes.size());
  ctx.counts["certify.branches"] = branches / n;
  ctx.counts["certify.forks"] = forks / n;
  ctx.counts["certify.events_simulated"] = events / n;
  ctx.counts["certify.tasks"] = tasks / n;
  ctx.counts["certify.memo_hit_frac"] = probes > 0 ? hits / probes : 0.0;
}

/// The campaign spec of bench_campaign_throughput: up to 3 iterations, 15%
/// over budget, 10% silences, 10% suspects.
campaign::CampaignOptions campaign_options(std::uint64_t seed,
                                           std::size_t scenarios,
                                           unsigned threads) {
  campaign::CampaignOptions options;
  options.scenarios = scenarios;
  options.seed = seed;
  options.threads = threads;
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;
  return options;
}

/// Layer probes on the workload's own plans: plan-level io/sched/sim/
/// certify costs, a one-thread campaign replay and (unless the workload
/// serves real requests) a certifyd round trip.
void probe_common(Context& ctx, const std::vector<const Plan*>& plans,
                  bool service_probe) {
  probe_plan_layers(plans, kThreads, ctx.tracer, ctx.samples);
  for (const Plan* plan : plans) {
    const std::size_t op = ctx.checks.begin_op();
    const std::size_t scenarios =
        plan->schedule->operations().size() > 200 ? 50 : 200;
    const std::size_t violations = replay_campaign(
        *plan, campaign_options(ctx.config.seed, scenarios, 1), scenarios,
        ctx.tracer, ctx.samples);
    ctx.checks.expect(violations == 0, op,
                      plan->name + ": replayed campaign has violations");
  }
  if (service_probe) {
    probe_service(plans, kThreads, ctx.tracer, ctx.samples);
  }
}

std::vector<const Plan*> pointers(const std::vector<Plan>& plans,
                                  std::size_t limit = SIZE_MAX) {
  std::vector<const Plan*> out;
  for (const Plan& plan : plans) {
    if (out.size() == limit) break;
    out.push_back(&plan);
  }
  return out;
}

/// Compares a digest with its committed value at the default seed.
void check_digest(Context& ctx, const char* name, std::uint64_t digest,
                  std::uint64_t committed, bool complete) {
  ctx.result.lines.push_back(std::string("digest ") + name + " " + hex(digest));
  if (ctx.config.seed != kDefaultSeed) return;
  ctx.checks.expect_global(complete, std::string(name) +
                                         ": too few operations to digest");
  ctx.checks.expect_global(!complete || digest == committed,
                           std::string(name) + " digest " + hex(digest) +
                               " != committed " + hex(committed));
}

// --- serve_mixed ----------------------------------------------------------

/// The result record without its request id and cache origin: a hit must
/// match the miss that filled its entry byte for byte.
std::string result_payload(const std::string& records) {
  const std::size_t at = records.find("{\"type\":\"result\"");
  if (at == std::string::npos) return {};
  std::string line = records.substr(at, records.find('\n', at) - at);
  const std::size_t key = line.find("\"plan_key\"");
  if (key != std::string::npos) line.erase(0, key);
  for (const std::string origin : {"\"cache\":\"hit\",", "\"cache\":\"miss\","}) {
    const std::size_t pos = line.find(origin);
    if (pos != std::string::npos) line.erase(pos, origin.size());
  }
  return line;
}

/// The plan key of a payload ("plan_key":"<key>",...).
std::string plan_key_of(const std::string& payload) {
  const std::size_t start = payload.find(":\"");
  if (start == std::string::npos) return {};
  return payload.substr(start + 2, payload.find('"', start + 2) - start - 2);
}

void serve_mixed(Context& ctx) {
  constexpr std::size_t kRequests = 600;
  const RunConfig& config = ctx.config;
  const std::vector<ServeRequest> requests = timed_setup(
      [&] {
        std::vector<ServeRequest> generated =
            serve_requests(config.seed, kRequests);
        service::ServeOptions options;
        options.progress = false;
        service::CertifyService warm(options);
        for (std::size_t i = 0; i < 5; ++i) {
          service::StringSink sink;
          (void)warm.handle_line(generated[i].line, sink);
        }
        return generated;
      },
      ctx.setup_s);

  // The daemon's defaults (64 cache entries; hardware threads, which is
  // kThreads on the 4-thread box the benchmark targets, pinned so no box
  // runs more); progress records off.
  struct State {
    State() : certifyd(options()) {}
    static service::ServeOptions options() {
      service::ServeOptions o;
      o.progress = false;
      o.threads = kThreads;
      return o;
    }
    service::CertifyService certifyd;
    std::map<std::string, std::string> payload_by_key;
    std::map<std::string, std::uint64_t> certificate_by_key;
    std::uint64_t digest = kFnvBasis;
    bool last_hit = false;
    double last_ns = 0;
    double miss_cpu_s = 0;
    double miss_wall_s = 0;
  };
  State untraced;
  State traced;
  const auto op = [&](State& state, std::size_t i, std::size_t handle,
                      Tracer& tracer) {
    const ServeRequest& request = requests[i % requests.size()];
    service::StringSink sink;
    const double cpu0 = tracer.enabled() ? cpu_seconds() : 0.0;
    const auto start = Clock::now();
    {
      const Scope span(tracer, "service.handle_line", "service");
      (void)state.certifyd.handle_line(request.line, sink);
    }
    const double ms = seconds_since(start) * 1e3;
    const std::string& records = sink.text();
    const std::string payload = result_payload(records);
    state.last_hit = records.find("\"cache\":\"hit\"") != std::string::npos;
    state.last_ns = ms * 1e6;
    if (tracer.enabled() && !state.last_hit) {
      state.miss_cpu_s += cpu_seconds() - cpu0;
      state.miss_wall_s += ms / 1e3;
    }
    Checks& checks = ctx.checks;
    checks.expect(!payload.empty(), handle, request.id + ": no result record");
    const bool certified =
        payload.find("\"certified\":true") != std::string::npos;
    checks.expect(certified == request.expect_certified, handle,
                  request.id + (request.expect_certified
                                    ? ": design point not certified"
                                    : ": claim above the GLS ceiling certified"));
    if (!request.expect_certified && !state.last_hit) {
      checks.expect(
          records.find("\"type\":\"counterexample\"") != std::string::npos,
          handle, request.id + ": refutation streamed no counterexample");
    }
    const std::string key = plan_key_of(payload);
    if (state.last_hit) {
      checks.expect(state.payload_by_key[key] == payload, handle,
                    request.id + ": cache hit differs from its miss");
    } else {
      state.payload_by_key[key] = payload;
    }
    if (i < kServeDigestRequests) state.digest = fnv1a(records, state.digest);
    return ms;
  };
  const auto after = [&](State& state, std::size_t i, std::size_t handle,
                         Tracer& tracer) {
    const ServeRequest& request = requests[i % requests.size()];
    const RequestReplay replay =
        replay_request(request.line, kThreads, state.last_hit,
                       static_cast<std::int64_t>(i), tracer, ctx.samples);
    ctx.checks.expect(replay.ok, handle, request.id + ": replay failed");
    ctx.samples.add("service.self_ms",
                    (state.last_ns - replay.stages_ns) / 1e6);
    if (state.last_hit) ctx.samples.add("service.hit_ms", state.last_ns / 1e6);
    // The replayed certificate equals the served one: the cache holds the
    // served bytes, and looking the entry up right after its request
    // leaves the LRU order as it was.
    const auto cached = state.certifyd.cache().get(replay.plan_key);
    ctx.checks.expect(cached.has_value(), handle, request.id + ": not cached");
    if (!cached.has_value()) return;
    const std::uint64_t served = fnv1a(cached->certificate_json);
    if (state.last_hit) {
      ctx.checks.expect(state.certificate_by_key[replay.plan_key] == served,
                        handle,
                        request.id + ": cached certificate differs from its miss");
    } else {
      ctx.checks.expect(replay.pass.certificate == cached->certificate_json,
                        handle, request.id + ": replayed certificate differs");
      state.certificate_by_key[replay.plan_key] = served;
    }
  };
  const Phases phases = run_phases(ctx, untraced, traced, op, after);
  const std::size_t served = phases.op_ms.size();
  check_digest(ctx, "serve_records", untraced.digest, kServeDigest,
               served >= kServeDigestRequests);

  if (!config.trace) {
    add_end_to_end(ctx, phases);
    const double n = static_cast<double>(served);
    std::vector<std::string>& lines = ctx.result.lines;
    lines.push_back("requests_per_s " + fmt("%.3f", n / phases.wall_s) +
                    " req/s");
    lines.push_back("request_p50_ms " +
                    fmt("%.4f", percentile(phases.op_ms, 50)) + " ms");
    lines.push_back("request_p90_ms " +
                    fmt("%.4f", percentile(phases.op_ms, 90)) + " ms (n=" +
                    std::to_string(served) + ")");
    const char* kinds[] = {"design", "link_death", "k2"};
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<double> ms;
      for (std::size_t i = 0; i < served; ++i) {
        if (static_cast<int>(requests[i % requests.size()].kind) == kind) {
          ms.push_back(phases.op_ms[i]);
        }
      }
      lines.push_back(std::string("  ") + kinds[kind] + ": n=" +
                      std::to_string(ms.size()) + " p50 " +
                      fmt("%.3f", median(ms)) + " ms, p90 " +
                      fmt("%.3f", percentile(ms, 90)) + " ms, share of time " +
                      fmt("%.3f", sum(ms) / sum(phases.op_ms)));
    }
    return;
  }

  const service::ServiceStats stats = traced.certifyd.stats();
  ctx.counts["service.cache_hit_frac"] =
      stats.submits > 0 ? static_cast<double>(stats.cache_hits) /
                              static_cast<double>(stats.submits)
                        : 0.0;
  ctx.result.lines.push_back(
      "service.cache_hit_frac base: " + std::to_string(stats.cache_hits) +
      " hits of " + std::to_string(stats.submits) + " submits");
  ctx.counts["certify.cpu_util"] =
      traced.miss_wall_s > 0
          ? traced.miss_cpu_s / (traced.miss_wall_s * kThreads)
          : 0.0;
  // Task times come from 1-thread replays of the first fresh requests.
  std::vector<ShardPass> passes;
  std::vector<Plan> plans;
  for (const ServeRequest& request : requests) {
    if (request.source >= 0) continue;
    if (plans.size() == 24) break;
    plans.push_back(make_plan(request.plan));
    passes.push_back(replay_request(request.line, 1, false, -1, ctx.tracer,
                                    ctx.samples, "probe.request")
                         .pass);
  }
  add_pass_counts(ctx, passes);
  probe_common(ctx, pointers(plans), /*service_probe=*/false);
  // Each served handle_line splits into its replayed stages plus the
  // service's own remainder.
  std::map<std::string, double> self_ns = ctx.tracer.self_ns_by_layer("op");
  std::map<std::string, double> stages =
      ctx.tracer.self_ns_by_layer("replay.");
  stages.erase("bench");
  for (const auto& [layer, ns] : stages) {
    self_ns["service"] -= ns;
    self_ns[layer] += ns;
  }
  add_per_layer(ctx, phases, self_ns);
}

// --- repair and frontier jobs ---------------------------------------------

/// The repair claim of the repair jobs: K=1 + one link death.
campaign::RepairSpec repair_spec(unsigned threads) {
  campaign::RepairSpec spec;
  spec.certify.max_failures = 1;
  spec.certify.max_link_failures = 1;
  spec.certify.threads = threads;
  return spec;
}

void count_repair(std::map<std::string, double>& counts,
                  const campaign::RepairReport& report) {
  counts["repair.rounds"] += static_cast<double>(report.rounds.size());
  for (const campaign::RepairRound& round : report.rounds) {
    counts["repair.candidates_tried"] +=
        static_cast<double>(round.candidates_tried);
    counts["repair.branches"] += static_cast<double>(round.branches);
    counts["repair.shrink_sims"] +=
        static_cast<double>(round.shrink_simulations);
  }
}

void count_frontier(std::map<std::string, double>& counts,
                    const campaign::FrontierReport& report) {
  counts["frontier.points_explored"] +=
      static_cast<double>(report.points_explored);
  counts["frontier.points_implied"] +=
      static_cast<double>(report.points_implied);
  for (const campaign::FrontierPoint& point : report.points) {
    counts["frontier.branches"] += static_cast<double>(point.branches);
  }
}

/// True when every surface point lies under the static GLS ceiling.
bool under_gls(const campaign::FrontierReport& report) {
  for (const campaign::FrontierPoint& point : report.surface) {
    if (point.max_failures > report.gls.k_bound ||
        (!report.gls.l_unbounded &&
         point.max_link_failures > report.gls.l_bound)) {
      return false;
    }
  }
  return true;
}

// --- certify_deep ---------------------------------------------------------

void certify_deep(Context& ctx) {
  const RunConfig& config = ctx.config;
  const std::vector<DeepSweep> sweeps = certify_deep_sweeps();
  const std::vector<Plan> plans = timed_setup(
      [&] {
        std::vector<Plan> built;
        for (const PlanSpec& spec : certify_deep_plans()) {
          built.push_back(make_plan(spec));
        }
        campaign::CertifySpec warm;
        warm.max_failures = 1;
        warm.threads = kThreads;
        (void)campaign::certify(*built[0].schedule, warm);
        return built;
      },
      ctx.setup_s);
  const auto spec_of = [&](const DeepSweep& sweep, unsigned threads) {
    campaign::CertifySpec spec;
    spec.max_failures = sweep.k;
    spec.max_link_failures = sweep.l;
    spec.max_silences = sweep.s;
    spec.threads = threads;
    return spec;
  };

  struct State {
    std::map<std::string, std::vector<double>> sweep_s;
    std::vector<std::string> certificates;  // first pass
    double cpu_s = 0;
    double wall_s = 0;
  };
  State untraced;
  State traced;
  const auto op = [&](State& state, std::size_t i, std::size_t handle,
                      Tracer& tracer) {
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    for (std::size_t k = 0; k < sweeps.size(); ++k) {
      const DeepSweep& sweep = sweeps[k];
      const Plan& plan = plans[sweep.plan];
      const auto sweep_start = Clock::now();
      campaign::CertifyReport report;
      std::string certificate;
      {
        const Scope span(tracer, "certify." + sweep.name, "campaign.certify");
        report = campaign::certify(*plan.schedule, spec_of(sweep, kThreads));
        certificate = report.to_json(*plan.owned->problem.architecture);
      }
      state.sweep_s[sweep.name].push_back(seconds_since(sweep_start));
      const DeepAnswer& answer = kDeepAnswers[k];
      ctx.checks.expect(report.branches == answer.branches &&
                            report.certified == answer.certified,
                        handle,
                        sweep.name + ": " + std::to_string(report.branches) +
                            " branches, " +
                            (report.certified ? "certified" : "refuted"));
      if (i == 0) state.certificates.push_back(std::move(certificate));
    }
    const double seconds = seconds_since(start);
    state.cpu_s += cpu_seconds() - cpu0;
    state.wall_s += seconds;
    return seconds * 1e3;
  };
  const Phases phases = run_phases(ctx, untraced, traced, op);
  std::uint64_t digest = kFnvBasis;
  for (const std::string& certificate : untraced.certificates) {
    digest = fnv1a(certificate, digest);
  }
  ctx.result.lines.push_back("digest deep_certificates " + hex(digest));
  ctx.checks.expect_global(digest == kDeepDigest,
                           "certify_deep certificate digest " + hex(digest) +
                               " != committed " + hex(kDeepDigest));

  if (!config.trace) {
    add_end_to_end(ctx, phases);
    ctx.result.lines.push_back(
        "verdict_s " + fmt("%.4f", percentile(phases.op_ms, 50) / 1e3) +
        " s (median of " + std::to_string(phases.op_ms.size()) + " passes)");
    for (const DeepSweep& sweep : sweeps) {
      ctx.result.lines.push_back(
          "  " + sweep.name + " " +
          fmt("%.4f", median(untraced.sweep_s[sweep.name])) + " s");
    }
    return;
  }

  ctx.counts["certify.cpu_util"] =
      traced.cpu_s / (traced.wall_s * kThreads);
  for (const DeepSweep& sweep : sweeps) {
    ctx.result.lines.push_back(
        "certify.sweep_s." + sweep.name + " " +
        fmt("%.4f", median(traced.sweep_s[sweep.name])) + " s");
  }
  // The 1-thread pass: per-task times from certify_shard's emits, the
  // memo's hit share, merge and rendering; its certificates must equal the
  // 4-thread ones.
  std::vector<ShardPass> passes;
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    const std::size_t handle = ctx.checks.begin_op();
    const Scope root(ctx.tracer, "probe.certify_1t", "bench");
    passes.push_back(certify_pass(*plans[sweeps[k].plan].schedule,
                                  spec_of(sweeps[k], 1), ctx.tracer,
                                  ctx.samples));
    ctx.checks.expect(passes.back().certificate == untraced.certificates[k],
                      handle,
                      sweeps[k].name + ": 1-thread certificate differs");
  }
  add_pass_counts(ctx, passes);
  std::size_t probes = 0;
  std::size_t hits = 0;
  for (const ShardPass& pass : passes) {
    probes += pass.memo_probes;
    hits += pass.memo_hits;
  }
  ctx.result.lines.push_back("certify.memo_hit_frac base: " +
                             std::to_string(hits) + " hits of " +
                             std::to_string(probes) + " probes (1 thread)");
  probe_common(ctx, pointers(plans), /*service_probe=*/true);

  // The repair and frontier layers, which this workload's timed loop does
  // not cross: one repair of the rand4 plan's K=1 + link claim (bench_repair's
  // workload) and one frontier walk of the Fig. 22 schedule.
  {
    const Scope root(ctx.tracer, "probe.repair_frontier", "bench");
    const std::size_t handle = ctx.checks.begin_op();
    auto start = Clock::now();
    campaign::RepairReport repaired;
    {
      const Scope span(ctx.tracer, "campaign.repair", "campaign.repair");
      repaired = campaign::repair(plans[1].owned->problem,
                                  ftsched::HeuristicKind::kSolution2,
                                  repair_spec(kThreads));
    }
    const double repair_ms = seconds_since(start) * 1e3;
    ctx.checks.expect(repaired.certified, handle,
                      "rand4 repair did not certify: " + repaired.failure);
    count_repair(ctx.counts, repaired);
    start = Clock::now();
    campaign::FrontierReport walk;
    {
      const Scope span(ctx.tracer, "campaign.frontier_sweep",
                       "campaign.frontier");
      campaign::FrontierSpec spec;
      spec.threads = kThreads;
      walk = campaign::frontier_sweep(*plans[0].schedule, spec);
    }
    const double walk_ms = seconds_since(start) * 1e3;
    ctx.checks.expect(under_gls(walk), handle,
                      "fig22 frontier surface above the GLS ceiling");
    count_frontier(ctx.counts, walk);
    ctx.result.lines.push_back("repair.p50_ms " + fmt("%.3f", repair_ms) +
                               " ms (n=1, rand4 K=1+L=1)");
    ctx.result.lines.push_back("frontier.p50_ms " + fmt("%.3f", walk_ms) +
                               " ms (n=1, fig22)");
  }
  add_per_layer(ctx, phases, ctx.tracer.self_ns_by_layer("op"));
}

// --- campaign_large -------------------------------------------------------

void campaign_large(Context& ctx) {
  constexpr std::size_t kScenarios = 400;
  const RunConfig& config = ctx.config;
  const std::vector<Plan> plans = timed_setup(
      [&] {
        std::vector<Plan> built;
        for (const PlanSpec& spec : campaign_plans(config.seed)) {
          built.push_back(make_plan(spec));
        }
        (void)campaign::run_campaign(
            *built.front().schedule,
            campaign_options(config.seed, 100, kThreads));
        return built;
      },
      ctx.setup_s);

  struct State {
    std::uint64_t digest = kFnvBasis;
    std::size_t scenarios = 0;
    std::size_t unique = 0;
    double campaign_s = 0;
    double cpu_s = 0;
  };
  State untraced;
  State traced;
  const auto op = [&](State& state, std::size_t i, std::size_t handle,
                      Tracer& tracer) {
    const auto start = Clock::now();
    for (const Plan& plan : plans) {
      const campaign::CampaignOptions options = campaign_options(
          config.seed * 0x9e3779b97f4a7c15ULL + i, kScenarios, kThreads);
      const double cpu0 = cpu_seconds();
      const auto campaign_start = Clock::now();
      campaign::CampaignReport report;
      {
        const Scope span(tracer, "campaign.run", "campaign.runner");
        report = campaign::run_campaign(*plan.schedule, options);
      }
      state.campaign_s += seconds_since(campaign_start);
      state.cpu_s += cpu_seconds() - cpu0;
      state.scenarios += report.scenarios_run;
      state.unique += report.unique_scenarios;
      ctx.checks.expect(report.scenarios_run == kScenarios &&
                            report.total_violations == 0,
                        handle,
                        plan.name + ": " +
                            std::to_string(report.total_violations) +
                            " oracle violations");
      if (i == 0) {
        state.digest = fnv1a(std::to_string(report.within_contract) + "," +
                                 std::to_string(report.expected_losses) + "," +
                                 std::to_string(report.unique_scenarios) + ";",
                             state.digest);
      }
    }
    return seconds_since(start) * 1e3;
  };
  const Phases phases = run_phases(ctx, untraced, traced, op);
  check_digest(ctx, "campaign_counts", untraced.digest, kCampaignDigest, true);

  if (!config.trace) {
    add_end_to_end(ctx, phases);
    ctx.result.lines.push_back(
        "scenarios_per_s " +
        fmt("%.1f", static_cast<double>(untraced.scenarios) /
                        untraced.campaign_s) +
        " scenarios/s (" + std::to_string(untraced.scenarios) +
        " scenarios over all rounds)");
    return;
  }

  ctx.counts["campaign.unique_frac"] =
      static_cast<double>(traced.unique) / static_cast<double>(traced.scenarios);
  ctx.counts["campaign.cpu_util"] =
      traced.cpu_s / (traced.campaign_s * kThreads);
  ctx.result.lines.push_back("campaign.unique_frac base: " +
                             std::to_string(traced.unique) + " unique of " +
                             std::to_string(traced.scenarios) + " scenarios");
  std::vector<ShardPass> passes;
  for (const Plan& plan : plans) {
    campaign::CertifySpec zero;
    zero.max_failures = 0;
    zero.threads = 1;
    const Scope root(ctx.tracer, "probe.certify_1t", "bench");
    passes.push_back(certify_pass(*plan.schedule, zero, ctx.tracer, ctx.samples));
  }
  add_pass_counts(ctx, passes);
  probe_common(ctx, pointers(plans, 2), /*service_probe=*/true);
  add_per_layer(ctx, phases, ctx.tracer.self_ns_by_layer("op"));
}

// --- repair_frontier ------------------------------------------------------

void repair_frontier(Context& ctx) {
  const RunConfig& config = ctx.config;
  const std::vector<Job> jobs = repair_frontier_jobs(config.seed);
  const std::vector<Plan> plans = timed_setup(
      [&] {
        std::vector<Plan> built;
        for (const Job& job : jobs) built.push_back(make_plan(job.plan));
        campaign::FrontierSpec warm;
        warm.threads = kThreads;
        for (const Plan& plan : built) {
          if (plan.name == "fig17") {
            (void)campaign::frontier_sweep(*plan.schedule, warm);
          }
        }
        return built;
      },
      ctx.setup_s);
  struct State {
    /// Per job: the final schedule hash of a repair, the digest of a
    /// frontier report's JSON.
    std::map<std::size_t, std::uint64_t> output;
    std::vector<std::optional<ftsched::Schedule>> repaired;
    std::uint64_t digest = kFnvBasis;
    std::vector<double> job_ms;
    std::vector<double> repair_ms;
    std::vector<double> frontier_ms;
    std::map<std::string, double> counts;
    double repairs = 0;
    double walks = 0;
    double cpu_s = 0;
  };
  State untraced;
  State traced;
  untraced.repaired.resize(jobs.size());
  traced.repaired.resize(jobs.size());
  // A job's output must be the same every time it runs; the first
  // kJobsDigestOps outputs make the committed digest. True on a job's
  // first run. `n` counts jobs from the start of the loop.
  const auto record = [&](State& state, std::size_t n, std::size_t handle,
                          std::uint64_t output) {
    const std::size_t j = n % jobs.size();
    const auto [seen, first] = state.output.emplace(j, output);
    ctx.checks.expect(seen->second == output, handle,
                      plans[j].name + ": output changed between runs");
    if (n < kJobsDigestOps) state.digest = fnv1a(hex(output), state.digest);
    return first;
  };
  const auto run_job = [&](State& state, std::size_t n, std::size_t handle,
                           Tracer& tracer) {
    const std::size_t j = n % jobs.size();
    const Job& job = jobs[j];
    const Plan& plan = plans[j];
    const CpuTimer cpu(state.cpu_s);
    const auto start = Clock::now();
    if (job.kind == Job::Kind::kRepair) {
      campaign::RepairReport report;
      {
        const Scope span(tracer, "campaign.repair", "campaign.repair");
        report = campaign::repair(plan.owned->problem,
                                  ftsched::HeuristicKind::kSolution2,
                                  repair_spec(kThreads));
      }
      const double ms = seconds_since(start) * 1e3;
      state.repair_ms.push_back(ms);
      const bool ok = report.certified && report.schedule.has_value();
      ctx.checks.expect(ok, handle,
                        plan.name + ": repair did not certify: " +
                            report.failure);
      if (!ok) return ms;
      if (record(state, n, handle, ftsched::schedule_hash(*report.schedule))) {
        state.repaired[j].emplace(*report.schedule);
      }
      state.repairs += 1;
      count_repair(state.counts, report);
      return ms;
    }
    campaign::FrontierReport report;
    std::string json;
    {
      const Scope span(tracer, "campaign.frontier_sweep", "campaign.frontier");
      campaign::FrontierSpec spec;
      spec.threads = kThreads;
      report = campaign::frontier_sweep(*plan.schedule, spec);
      json = report.to_json(*plan.owned->problem.architecture);
    }
    const double ms = seconds_since(start) * 1e3;
    state.frontier_ms.push_back(ms);
    ctx.checks.expect(under_gls(report), handle,
                      plan.name + ": surface above the GLS ceiling");
    (void)record(state, n, handle, fnv1a(json));
    state.walks += 1;
    count_frontier(state.counts, report);
    return ms;
  };
  // One operation is a repair and the walk after it: job times fall in two
  // clusters (repairs below ~130 ms, walks above), so a per-job median
  // would sit in the gap between them and jump with the mix.
  const auto op = [&](State& state, std::size_t i, std::size_t handle,
                      Tracer& tracer) {
    double ms = 0;
    for (const std::size_t n : {2 * i, 2 * i + 1}) {
      state.job_ms.push_back(run_job(state, n, handle, tracer));
      ms += state.job_ms.back();
    }
    return ms;
  };
  const Phases phases = run_phases(ctx, untraced, traced, op);
  check_digest(ctx, "jobs", untraced.digest, kJobsDigest,
               untraced.job_ms.size() >= kJobsDigestOps);

  if (!config.trace) {
    add_end_to_end(ctx, phases);
    const std::vector<double>& job_ms = untraced.job_ms;
    ctx.result.lines.push_back(
        "jobs_per_s " +
        fmt("%.3f", static_cast<double>(job_ms.size()) / phases.wall_s) +
        " jobs/s");
    ctx.result.lines.push_back("job_p50_ms " + fmt("%.3f", median(job_ms)) +
                               " ms (n=" + std::to_string(job_ms.size()) + ")");
    std::vector<std::pair<double, std::string>> slowest;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      std::vector<double> ms;
      for (std::size_t n = j; n < job_ms.size(); n += jobs.size()) {
        ms.push_back(job_ms[n]);
      }
      if (!ms.empty()) slowest.emplace_back(median(ms), plans[j].name);
    }
    std::sort(slowest.rbegin(), slowest.rend());
    for (std::size_t k = 0; k < std::min<std::size_t>(3, slowest.size()); ++k) {
      ctx.result.lines.push_back("  slow job " + slowest[k].second + " " +
                                 fmt("%.3f", slowest[k].first) + " ms");
    }
    return;
  }

  // Every job is a chain of certify sweeps.
  ctx.counts["certify.cpu_util"] =
      traced.cpu_s / (phases.traced_op_s * kThreads);
  for (const auto& [name, total] : traced.counts) {
    const bool repair = name.rfind("repair.", 0) == 0;
    ctx.counts[name] = total / std::max(1.0, repair ? traced.repairs
                                                    : traced.walks);
  }
  ctx.result.lines.push_back("repair.p50_ms " +
                             fmt("%.3f", median(traced.repair_ms)) + " ms (n=" +
                             std::to_string(traced.repair_ms.size()) + ")");
  ctx.result.lines.push_back("frontier.p50_ms " +
                             fmt("%.3f", median(traced.frontier_ms)) +
                             " ms (n=" +
                             std::to_string(traced.frontier_ms.size()) + ")");
  // The repaired schedules, re-certified once each at one thread: task
  // times, merge and rendering of the medium sweeps repair runs.
  std::vector<ShardPass> passes;
  for (const std::optional<ftsched::Schedule>& schedule : traced.repaired) {
    if (!schedule.has_value()) continue;
    const std::size_t handle = ctx.checks.begin_op();
    const Scope root(ctx.tracer, "probe.certify_1t", "bench");
    passes.push_back(certify_pass(*schedule, repair_spec(1).certify,
                                  ctx.tracer, ctx.samples));
    ctx.checks.expect(passes.back().certified, handle,
                      "repaired schedule does not re-certify");
  }
  add_pass_counts(ctx, passes);
  std::vector<const Plan*> walks;
  for (std::size_t j = 0; j < jobs.size() && walks.size() < 6; ++j) {
    if (jobs[j].kind == Job::Kind::kFrontier) walks.push_back(&plans[j]);
  }
  probe_common(ctx, walks, /*service_probe=*/true);
  add_per_layer(ctx, phases, ctx.tracer.self_ns_by_layer("op"));
}

struct Entry {
  const char* name;
  void (*run)(Context&);
};

const Entry kWorkloads[] = {
    {"serve_mixed", serve_mixed},
    {"certify_deep", certify_deep},
    {"campaign_large", campaign_large},
    {"repair_frontier", repair_frontier},
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Entry& entry : kWorkloads) names.emplace_back(entry.name);
    return names;
  }();
  return kNames;
}

RunResult run_workload(const RunConfig& config) {
  for (const Entry& entry : kWorkloads) {
    if (config.workload != entry.name) continue;
    Context ctx(config);
    entry.run(ctx);
    ctx.checks.fill(ctx.result);
    const double failed_frac =
        static_cast<double>(ctx.result.failed) /
        static_cast<double>(std::max<std::uint64_t>(1, ctx.result.attempted));
    ctx.result.lines.push_back("failed_frac " + fmt("%.6f", failed_frac) +
                               " failed/attempted (" +
                               std::to_string(ctx.result.failed) + " of " +
                               std::to_string(ctx.result.attempted) + ")");
    if (config.trace && !config.spans_path.empty() &&
        !ctx.tracer.write_jsonl(config.spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", config.spans_path.c_str());
    }
    return std::move(ctx.result);
  }
  throw std::invalid_argument("unknown workload " + config.workload);
}

}  // namespace ftbench
