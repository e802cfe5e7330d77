// campaign_tool: the adversarial fault-injection campaign as a shell
// command — load a problem, build a schedule, hammer it with seeded random
// failure scenarios in parallel, and shrink any oracle violation to a
// minimal serialized reproducer:
//
//   ./campaign_tool --example1 --solution1 --seed 42 --scenarios 5000
//   ./campaign_tool --example1 --solution1 --scenarios 20000 --threads 8
//   ./campaign_tool --example1 --base --claim-k 1 --shrink    # has to fail
//   ./campaign_tool problem.ft --solution2 --links --iterations 4
//   ./campaign_tool --example1 --solution1 --replay repro.scenario
//   ./campaign_tool --example1 --solution1 --certify --certify-out cert.json
//   ./campaign_tool --example1 --solution1 --certify --certify-links 1
//   ./campaign_tool --example1 --solution1 --certify-silences 1
//                   --response-bound 42.5
//   ./campaign_tool problem.ft --solution2 --claim-k 1 --certify-links 1
//                   --repair --repair-out repair.json
//
// --certify switches from random sampling to the exhaustive certifier
// (campaign/certify.hpp): every dead-at-start subset and every
// representative mid-run fault sequence within the budgets is simulated
// via shared-prefix forking. --certify-links L and --certify-silences S
// (each implies --certify) extend the sweep beyond the paper's §5.1
// processor contract with up to L link deaths and S fail-silent windows;
// --response-bound tightens the response envelope the oracle and the
// certifier check (a branch's envelope widens by the longest injected
// silent window). Counterexamples are shrunk to a minimal serialized
// reproducer automatically.
//
// Certification as a service (src/service):
//
//   ./campaign_tool problem.ft --solution2 --plan-key
//   ./campaign_tool problem.ft --solution2 --certify-shard 0/2
//                   --stream-out shard0.ndjson
//   ./campaign_tool problem.ft --solution2 --merge-stream shard0.ndjson
//                   --merge-stream shard1.ndjson --certify-out cert.json
//   ./campaign_tool --serve --cache-size 64            # stdin/stdout pipe
//   ./campaign_tool --serve-socket /tmp/certifyd.sock  # certifyd daemon
//
// --plan-key prints the canonical plan fingerprint — the cache identity a
// certifyd server would use for this (schedule, budgets) pair — so users
// can check cache identity offline. --certify-shard I/N runs only the
// tasks with index % N == I and streams partial-certificate NDJSON
// records; --merge-stream folds complete worker streams back into a
// certificate byte-identical to single-process --certify. --serve /
// --serve-socket run the long-lived certifyd loop: line-delimited JSON
// requests (submit/status/shutdown), streamed progress/counterexample/
// result records, LRU plan-key result cache, per-request deadlines, and
// graceful SIGINT drain.
//
// --repair runs the counterexample-guided repair loop (campaign/repair.hpp)
// instead of certifying once: refute, shrink, localize the root blocker,
// apply one targeted scheduling-constraint move, re-certify incrementally
// through the replay cache — until the schedule certifies or the move/round
// budget runs out. The JSON repair log (--repair-out) records every move
// and its re-certification verdict and is byte-identical for any --threads.
//
// Exit status: 0 = campaign clean (replay satisfied the oracle / schedule
// certified / repair converged), 1 = oracle violations (certification or
// repair refuted), 2 = usage error, 3 = input file unreadable or malformed
// (diagnostic names the file and the offending line).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <exception>

#include "campaign/certify.hpp"
#include "campaign/frontier.hpp"
#include "campaign/repair.hpp"
#include "campaign/runner.hpp"
#include "campaign/shrink.hpp"
#include "io/cli_util.hpp"
#include "io/problem_format.hpp"
#include "io/scenario_format.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"
#include "sched/heuristics.hpp"
#include "service/cache.hpp"
#include "service/server.hpp"
#include "service/shard.hpp"
#include "service/stream.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"

using namespace ftsched;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: campaign_tool <file | --example1 | --example2>\n"
      "                     [--base | --solution1 | --solution2]\n"
      "                     [--seed N] [--scenarios N] [--threads N]\n"
      "                     [--claim-k K] [--iterations MAX]\n"
      "                     [--overbudget FRACTION] [--links] [--silence]\n"
      "                     [--suspects] [--shrink] [--replay FILE]\n"
      "                     [--certify] [--certify-out FILE]\n"
      "                     [--certify-links L] [--certify-silences S]\n"
      "                     [--response-bound T]\n"
      "                     [--latency NAME:SRC:SINK:BOUND]...\n"
      "                     [--frontier] [--frontier-k K]\n"
      "                     [--frontier-links L] [--frontier-silences S]\n"
      "                     [--frontier-out FILE]\n"
      "                     [--repair] [--repair-rounds N]\n"
      "                     [--repair-out FILE]\n"
      "                     [--metrics-out FILE] [--trace-out FILE]\n"
      "                     [--plan-key] [--certify-shard I/N]\n"
      "                     [--stream-out FILE] [--merge-stream FILE]...\n"
      "                     [--serve | --serve-socket PATH]\n"
      "                     [--cache-size N] [--serve-threads N]\n"
      "\n"
      "--certify exhaustively certifies the schedule against every\n"
      "failure pattern of size <= K (--claim-k, default the schedule's\n"
      "own tolerance) and writes the machine-readable certificate or\n"
      "refutation to --certify-out. --certify-links L adds up to L link\n"
      "deaths per branch (budgeted separately from K), --certify-silences\n"
      "S adds up to S fail-silent windows; --response-bound T makes both\n"
      "the certifier and the oracle enforce response <= T (+ the longest\n"
      "injected silent window).\n"
      "--latency NAME:SRC:SINK:BOUND (repeatable) adds a named chain\n"
      "constraint — every surviving replica path from SRC's operation to\n"
      "SINK's must complete within BOUND — checked by the oracle, the\n"
      "certifier, the shrinker, repair and certifyd alongside the global\n"
      "response bound; refuting branches name the violated constraints.\n"
      "--frontier sweeps the (K, L, S) budget lattice outward from\n"
      "(0,0,0) up to --frontier-k/--frontier-links/--frontier-silences\n"
      "(defaults: the schedule's own tolerance + 1, 1, 1), certifying\n"
      "each point and reporting the maximal certifiable surface, the\n"
      "first refuting counterexample at each boundary point and the\n"
      "Goemans-Lynch-Saias upper bounds; --frontier-out writes the JSON\n"
      "report (byte-identical for any --threads).\n"
      "--repair turns a refuted schedule into a certified one by\n"
      "counterexample-guided repair under the same budgets: each round\n"
      "shrinks a counterexample, applies one targeted move (re-place a\n"
      "replica, re-route a send, widen a timeout chain) and re-certifies\n"
      "the result. --repair-rounds caps the accepted moves; --repair-out\n"
      "writes the JSON repair log (byte-identical for any --threads).\n"
      "--plan-key prints the canonical plan fingerprint for the certify\n"
      "budgets in effect (--claim-k/--certify-links/--certify-silences/\n"
      "--response-bound) — the key certifyd's result cache uses, so two\n"
      "problems printing the same key are isomorphic plans that share a\n"
      "cache entry. --certify-shard I/N certifies only task indices\n"
      "congruent to I mod N and streams NDJSON partial-certificate\n"
      "records to --stream-out (default stdout); --merge-stream (repeat\n"
      "per worker stream) validates and merges complete shard streams\n"
      "into a certificate byte-identical to single-process --certify.\n"
      "--serve reads line-delimited JSON requests from stdin (CI pipe\n"
      "mode); --serve-socket listens on a Unix-domain socket; both keep\n"
      "an LRU result cache of --cache-size plans (0 disables) and drain\n"
      "gracefully on SIGINT. --serve-threads N serves up to N socket\n"
      "connections concurrently (default 1, sequential) against the one\n"
      "shared cache; service.* metrics merge per request, so totals are\n"
      "independent of how connections interleave.\n"
      "--metrics-out writes the campaign's merged domain metrics as JSON\n"
      "(deterministic for a given seed, any thread count); --trace-out\n"
      "writes the run's profiling spans as Chrome trace-event JSON (open\n"
      "in chrome://tracing or https://ui.perfetto.dev).\n"
      "\n"
      "exit status: 0 clean/certified/repaired, 1 refuted, 2 usage error,\n"
      "3 input file unreadable or malformed (diagnostic names the file\n"
      "and the offending line).\n");
  return 2;
}

using io::write_file;

/// Out-of-range operands ride the tool's existing exit-3 diagnostic path:
/// main() catches, prints "campaign_tool: <reason>" and returns 3 — the
/// same treatment a malformed input file gets, because the operand LOOKED
/// numeric and silently saturating it is the bug these wrappers fix.
[[noreturn]] void out_of_range(const char* flag, const char* text) {
  throw std::invalid_argument(std::string(flag) + " operand \"" + text +
                              "\" is out of range");
}

bool parse_number(const char* flag, const char* text, long& out) {
  switch (io::parse_number(text, out)) {
    case io::ParseStatus::kOk: return true;
    case io::ParseStatus::kOutOfRange: out_of_range(flag, text);
    case io::ParseStatus::kMalformed: break;
  }
  return false;
}

bool parse_fraction(const char* flag, const char* text, double& out) {
  switch (io::parse_fraction(text, out)) {
    case io::ParseStatus::kOk: return true;
    case io::ParseStatus::kOutOfRange: out_of_range(flag, text);
    case io::ParseStatus::kMalformed: break;
  }
  return false;
}

bool parse_time(const char* flag, const char* text, double& out) {
  switch (io::parse_time(text, out)) {
    case io::ParseStatus::kOk: return true;
    case io::ParseStatus::kOutOfRange: out_of_range(flag, text);
    case io::ParseStatus::kMalformed: break;
  }
  return false;
}

/// Parses a "--certify-shard I/N" operand.
bool parse_shard(const char* text, campaign::CertifyShardSpec& out) {
  std::size_t index = 0;
  std::size_t count = 1;
  switch (io::parse_shard(text, index, count)) {
    case io::ParseStatus::kOk:
      out.shard_index = index;
      out.shard_count = count;
      return true;
    case io::ParseStatus::kOutOfRange: out_of_range("--certify-shard", text);
    case io::ParseStatus::kMalformed: break;
  }
  return false;
}

/// Parses a "--latency NAME:SRC:SINK:BOUND" operand (names resolve against
/// the schedule's algorithm graph later, like every certifier entry point).
bool parse_latency(const char* text, campaign::LatencyConstraint& out) {
  const std::string s = text;
  const std::size_t a = s.find(':');
  if (a == std::string::npos) return false;
  const std::size_t b = s.find(':', a + 1);
  if (b == std::string::npos) return false;
  const std::size_t c = s.find(':', b + 1);
  if (c == std::string::npos) return false;
  out.name = s.substr(0, a);
  out.source_op = s.substr(a + 1, b - a - 1);
  out.sink_op = s.substr(b + 1, c - b - 1);
  if (out.name.empty() || out.source_op.empty() || out.sink_op.empty()) {
    return false;
  }
  double bound = 0;
  if (!parse_time("--latency", s.c_str() + c + 1, bound)) return false;
  out.bound = bound;
  return true;
}

/// SIGINT sets the flag; certifyd drains the in-flight request and exits.
/// Installed WITHOUT SA_RESTART so blocking reads return EINTR and the
/// serve loops re-check the flag.
std::atomic<bool> g_stop{false};

extern "C" void handle_sigint(int) { g_stop.store(true); }

void install_sigint_drain() {
  struct sigaction action {};
  action.sa_handler = handle_sigint;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
}

/// Input-file failure (unreadable or malformed): one line naming the file
/// and — for parse errors — the offending line, distinct exit code 3 so
/// scripts can tell "bad input" from "schedule refuted" (1) and "bad
/// usage" (2).
int input_error(const std::string& path, const std::string& message) {
  std::fprintf(stderr, "campaign_tool: %s: %s\n", path.c_str(),
               message.c_str());
  return 3;
}

int run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    // Belt and braces: anything a malformed input drives the library to
    // throw still exits with the input-error code and a one-line reason.
    std::fprintf(stderr, "campaign_tool: %s\n", error.what());
    return 3;
  }
}

namespace {

int run(int argc, char** argv) {
  std::string input;
  std::string replay_file;
  std::string metrics_out;
  std::string trace_out;
  HeuristicKind kind = HeuristicKind::kSolution1;
  bool example1 = false;
  bool example2 = false;
  bool do_shrink = false;
  bool do_certify = false;
  bool do_repair = false;
  long certify_links = 0;
  long certify_silences = 0;
  long repair_rounds = campaign::RepairSpec{}.max_rounds;
  std::string certify_out;
  std::string repair_out;
  bool do_frontier = false;
  long frontier_k = -1;
  long frontier_links = campaign::FrontierSpec{}.max_link_failures;
  long frontier_silences = campaign::FrontierSpec{}.max_silences;
  std::string frontier_out;
  campaign::LatencyConstraint latency;
  std::vector<campaign::LatencyConstraint> latency_constraints;
  bool do_plan_key = false;
  bool do_shard = false;
  bool do_serve = false;
  campaign::CertifyShardSpec shard;
  std::string stream_out;
  std::vector<std::string> merge_streams;
  std::string serve_socket_path;
  long cache_size = 64;
  long serve_threads = 1;
  campaign::CampaignOptions options;
  // An interesting default mix: short missions, some over-budget attacks,
  // occasional benign silences and wrong suspicions. Link faults stay
  // opt-in (--links) — they are outside the paper's failure hypothesis.
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long number = 0;
    double fraction = 0;
    if (arg == "--example1") {
      example1 = true;
    } else if (arg == "--example2") {
      example2 = true;
    } else if (arg == "--base") {
      kind = HeuristicKind::kBase;
    } else if (arg == "--solution1") {
      kind = HeuristicKind::kSolution1;
    } else if (arg == "--solution2") {
      kind = HeuristicKind::kSolution2;
    } else if (arg == "--seed" && i + 1 < argc &&
               parse_number("--seed", argv[++i], number)) {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (arg == "--scenarios" && i + 1 < argc &&
               parse_number("--scenarios", argv[++i], number)) {
      options.scenarios = static_cast<std::size_t>(number);
    } else if (arg == "--threads" && i + 1 < argc &&
               parse_number("--threads", argv[++i], number)) {
      options.threads = static_cast<unsigned>(number);
    } else if (arg == "--claim-k" && i + 1 < argc &&
               parse_number("--claim-k", argv[++i], number)) {
      options.oracle.claimed_tolerance = static_cast<int>(number);
      options.spec.max_processor_failures = static_cast<int>(number);
    } else if (arg == "--iterations" && i + 1 < argc &&
               parse_number("--iterations", argv[++i], number) &&
               number >= 1) {
      options.spec.max_iterations = static_cast<int>(number);
    } else if (arg == "--overbudget" && i + 1 < argc &&
               parse_fraction("--overbudget", argv[++i], fraction)) {
      options.spec.over_budget_fraction = fraction;
    } else if (arg == "--links") {
      options.spec.link_failure_probability = 0.25;
    } else if (arg == "--silence") {
      options.spec.silence_probability = 0.25;
    } else if (arg == "--suspects") {
      options.spec.suspect_probability = 0.25;
    } else if (arg == "--shrink") {
      do_shrink = true;
    } else if (arg == "--certify") {
      do_certify = true;
    } else if (arg == "--certify-links" && i + 1 < argc &&
               parse_number("--certify-links", argv[++i], number)) {
      certify_links = number;
      do_certify = true;
    } else if (arg == "--certify-silences" && i + 1 < argc &&
               parse_number("--certify-silences", argv[++i], number)) {
      certify_silences = number;
      do_certify = true;
    } else if (arg == "--response-bound" && i + 1 < argc &&
               parse_time("--response-bound", argv[++i], fraction)) {
      options.oracle.response_bound = fraction;
    } else if (arg == "--latency" && i + 1 < argc &&
               parse_latency(argv[++i], latency)) {
      latency_constraints.push_back(latency);
    } else if (arg == "--certify-out" && i + 1 < argc) {
      certify_out = argv[++i];
    } else if (arg == "--repair") {
      do_repair = true;
    } else if (arg == "--repair-rounds" && i + 1 < argc &&
               parse_number("--repair-rounds", argv[++i], number)) {
      repair_rounds = number;
      do_repair = true;
    } else if (arg == "--repair-out" && i + 1 < argc) {
      repair_out = argv[++i];
      do_repair = true;
    } else if (arg == "--frontier") {
      do_frontier = true;
    } else if (arg == "--frontier-k" && i + 1 < argc &&
               parse_number("--frontier-k", argv[++i], number)) {
      frontier_k = number;
      do_frontier = true;
    } else if (arg == "--frontier-links" && i + 1 < argc &&
               parse_number("--frontier-links", argv[++i], number)) {
      frontier_links = number;
      do_frontier = true;
    } else if (arg == "--frontier-silences" && i + 1 < argc &&
               parse_number("--frontier-silences", argv[++i], number)) {
      frontier_silences = number;
      do_frontier = true;
    } else if (arg == "--frontier-out" && i + 1 < argc) {
      frontier_out = argv[++i];
      do_frontier = true;
    } else if (arg == "--plan-key") {
      do_plan_key = true;
    } else if (arg == "--certify-shard" && i + 1 < argc &&
               parse_shard(argv[++i], shard)) {
      do_shard = true;
    } else if (arg == "--stream-out" && i + 1 < argc) {
      stream_out = argv[++i];
    } else if (arg == "--merge-stream" && i + 1 < argc) {
      merge_streams.emplace_back(argv[++i]);
    } else if (arg == "--serve") {
      do_serve = true;
    } else if (arg == "--serve-socket" && i + 1 < argc) {
      serve_socket_path = argv[++i];
      do_serve = true;
    } else if (arg == "--cache-size" && i + 1 < argc &&
               parse_number("--cache-size", argv[++i], number)) {
      cache_size = number;
    } else if (arg == "--serve-threads" && i + 1 < argc &&
               parse_number("--serve-threads", argv[++i], number) &&
               number >= 1) {
      serve_threads = number;
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_file = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      input = arg;
    } else {
      return usage();
    }
  }

  if (do_serve) {
    service::ServeOptions serve_options;
    serve_options.cache_capacity = static_cast<std::size_t>(cache_size);
    serve_options.threads = options.threads;
    serve_options.serve_threads = static_cast<unsigned>(serve_threads);
    serve_options.stop = &g_stop;
    install_sigint_drain();
    if (!serve_socket_path.empty()) {
      return service::serve_socket(serve_socket_path, serve_options);
    }
    return service::serve_lines(std::cin, std::cout, serve_options);
  }

  workload::OwnedProblem owned;
  if (example1) {
    owned = workload::paper_example1();
  } else if (example2) {
    owned = workload::paper_example2();
  } else if (!input.empty()) {
    std::ifstream file(input);
    if (!file) {
      return input_error(input, "cannot open file");
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    Expected<workload::OwnedProblem> parsed = io::read_problem(buffer.str());
    if (!parsed) {
      return input_error(input, parsed.error().message);
    }
    owned = std::move(parsed).value();
  } else {
    return usage();
  }

  const Expected<Schedule> result = schedule(owned.problem, kind);
  if (!result) {
    std::fprintf(stderr, "scheduling failed (%s): %s\n",
                 to_string(result.error().code).c_str(),
                 result.error().message.c_str());
    return 2;
  }
  const Schedule& sched = result.value();
  const ArchitectureGraph& arch = *owned.problem.architecture;

  // Chain constraints apply everywhere a verdict is formed: the replay /
  // shrink oracle, certification, repair screening, and the service modes.
  options.oracle.latency_constraints = latency_constraints;

  // The certification budgets the service modes key/shard/merge against —
  // identical to what --certify below builds, so --plan-key prints exactly
  // the key a certifyd submission with these flags would look up.
  campaign::CertifySpec service_spec;
  service_spec.max_failures = options.oracle.claimed_tolerance;
  service_spec.max_link_failures = static_cast<int>(certify_links);
  service_spec.max_silences = static_cast<int>(certify_silences);
  service_spec.response_bound = options.oracle.response_bound;
  service_spec.latency_constraints = latency_constraints;
  service_spec.threads = options.threads;

  if (do_plan_key) {
    // Bare key on stdout: scripts compare two problems' cache identity.
    std::printf("%s\n", service::plan_key_string(sched, service_spec).c_str());
    return 0;
  }

  if (!do_shard) {
    // Shard mode keeps stdout clean: with no --stream-out the NDJSON
    // records themselves go there.
    std::printf("schedule: %s, K=%d, makespan %s\n",
                to_string(sched.kind()).c_str(), sched.failures_tolerated(),
                time_to_string(sched.makespan()).c_str());
  }

  if (do_shard) {
    std::ofstream file;
    std::ostream* out = &std::cout;
    if (!stream_out.empty()) {
      file.open(stream_out);
      if (!file) {
        std::fprintf(stderr, "cannot write %s\n", stream_out.c_str());
        return 2;
      }
      out = &file;
    }
    service::OstreamSink sink(*out);
    const service::StreamShardResult shard_result =
        service::certify_stream(sched, service_spec, shard, sink);
    std::fprintf(stderr, "shard %zu/%zu: %zu tasks streamed\n",
                 shard.shard_index, shard.shard_count,
                 shard_result.tasks_emitted);
    return shard_result.completed ? 0 : 1;
  }

  if (!merge_streams.empty()) {
    std::vector<std::string> streams;
    for (const std::string& path : merge_streams) {
      std::ifstream file(path);
      if (!file) {
        return input_error(path, "cannot open file");
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      streams.push_back(buffer.str());
    }
    const Expected<campaign::CertifyReport> merged =
        service::merge_streams(sched, service_spec, streams);
    if (!merged) {
      return input_error(merge_streams.front(), merged.error().message);
    }
    const campaign::CertifyReport& report = merged.value();
    std::fputs(report.to_text(arch).c_str(), stdout);
    if (!certify_out.empty() &&
        !write_file(certify_out, report.to_json(arch))) {
      return 2;
    }
    return report.certified ? 0 : 1;
  }

  if (do_frontier) {
    campaign::FrontierSpec fspec;
    fspec.max_failures = static_cast<int>(frontier_k);
    fspec.max_link_failures = static_cast<int>(frontier_links);
    fspec.max_silences = static_cast<int>(frontier_silences);
    fspec.response_bound = options.oracle.response_bound;
    fspec.latency_constraints = latency_constraints;
    fspec.threads = options.threads;
    const campaign::FrontierReport report =
        campaign::frontier_sweep(sched, fspec);
    std::fputs(report.to_text(arch).c_str(), stdout);
    if (!frontier_out.empty() &&
        !write_file(frontier_out, report.to_json(arch))) {
      return 2;
    }
    // The frontier is a capability map, not a pass/fail gate; the exit
    // code reports only whether the fault-free baseline (0, 0, 0) holds.
    return !report.points.empty() && report.points.front().certified ? 0 : 1;
  }

  if (!replay_file.empty()) {
    std::ifstream file(replay_file);
    if (!file) {
      return input_error(replay_file, "cannot open file");
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const Expected<MissionPlan> plan =
        io::read_scenario(buffer.str(), arch);
    if (!plan) {
      return input_error(replay_file, plan.error().message);
    }
    const campaign::Oracle oracle(sched, options.oracle);
    const MissionResult mission = run_mission(sched, plan.value());
    std::fputs(mission.to_text(arch).c_str(), stdout);
    const campaign::Verdict verdict = oracle.judge(plan.value(), mission);
    if (verdict.ok()) {
      std::printf("replay: oracle satisfied (within contract: %s)\n",
                  verdict.within_contract ? "yes" : "no");
      return 0;
    }
    for (const std::string& violation : verdict.violations) {
      std::printf("replay violation: %s\n", violation.c_str());
    }
    return 1;
  }

  if (do_repair) {
    campaign::RepairSpec rspec;
    rspec.certify.max_failures = options.oracle.claimed_tolerance;
    rspec.certify.max_link_failures = static_cast<int>(certify_links);
    rspec.certify.max_silences = static_cast<int>(certify_silences);
    rspec.certify.response_bound = options.oracle.response_bound;
    rspec.certify.latency_constraints = latency_constraints;
    rspec.certify.threads = options.threads;
    rspec.max_rounds = static_cast<int>(repair_rounds);
    if (!trace_out.empty()) obs::Profiler::global().enable(true);
    const campaign::RepairReport report =
        campaign::repair(owned.problem, kind, rspec);
    const AlgorithmGraph& graph = *owned.problem.algorithm;
    std::fputs(report.to_text(graph, arch).c_str(), stdout);
    if (!repair_out.empty() &&
        !write_file(repair_out, report.to_json(graph, arch))) {
      return 2;
    }
    if (!metrics_out.empty() &&
        !write_file(metrics_out, report.metrics.to_json())) {
      return 2;
    }
    if (!trace_out.empty()) {
      obs::Profiler::global().enable(false);
      const std::string trace =
          obs::chrome_trace_from_spans(obs::Profiler::global().drain());
      if (!write_file(trace_out, trace)) return 2;
    }
    if (report.certified) return 0;
    if (!report.rounds.empty() && !report.rounds.back().certified) {
      const MissionPlan& final_plan = report.rounds.back().counterexample;
      std::printf("\n# final counterexample (%zu events)\n%s",
                  final_plan.event_count(),
                  io::write_scenario(final_plan, arch).c_str());
    }
    return 1;
  }

  if (do_certify) {
    campaign::CertifySpec spec;
    spec.max_failures = options.oracle.claimed_tolerance;
    spec.max_link_failures = static_cast<int>(certify_links);
    spec.max_silences = static_cast<int>(certify_silences);
    spec.response_bound = options.oracle.response_bound;
    spec.latency_constraints = latency_constraints;
    spec.threads = options.threads;
    // The shrink oracle must judge link faults within the certified budget
    // as within-contract, or a link counterexample would satisfy it and
    // the shrinker's precondition (oracle rejects the plan) would fail.
    options.oracle.claimed_link_tolerance = static_cast<int>(certify_links);
    if (!trace_out.empty()) obs::Profiler::global().enable(true);
    const campaign::CertifyReport report = campaign::certify(sched, spec);
    std::fputs(report.to_text(arch).c_str(), stdout);
    if (!certify_out.empty() &&
        !write_file(certify_out, report.to_json(arch))) {
      return 2;
    }
    if (!metrics_out.empty() &&
        !write_file(metrics_out, report.metrics.to_json())) {
      return 2;
    }
    if (!trace_out.empty()) {
      obs::Profiler::global().enable(false);
      const std::string trace =
          obs::chrome_trace_from_spans(obs::Profiler::global().drain());
      if (!write_file(trace_out, trace)) return 2;
    }
    if (report.certified) return 0;

    // Shrink the first counterexample to a minimal serialized reproducer
    // (the certifier's branches are already canonical, but the shrinker
    // often drops dead-at-start processors that were not load-bearing).
    const MissionPlan plan =
        campaign::counterexample_plan(report.counterexamples.front());
    std::printf("\n# counterexample reproducer (%zu events)\n%s",
                plan.event_count(), io::write_scenario(plan, arch).c_str());
    const Simulator simulator(sched);
    const campaign::Oracle oracle(sched, options.oracle);
    const campaign::ShrinkResult shrunk =
        campaign::shrink(simulator, oracle, plan);
    std::printf(
        "\n# shrunk reproducer (%zu -> %zu events, %zu re-simulations)\n%s",
        shrunk.initial_events, shrunk.final_events, shrunk.simulations,
        io::write_scenario(shrunk.plan, arch).c_str());
    for (const std::string& violation : shrunk.violations) {
      std::printf("# still fails: %s\n", violation.c_str());
    }
    return 1;
  }

  if (!trace_out.empty()) obs::Profiler::global().enable(true);
  const campaign::CampaignReport report =
      campaign::run_campaign(sched, options);
  std::fputs(report.to_text(arch).c_str(), stdout);
  if (!metrics_out.empty() &&
      !write_file(metrics_out, report.metrics.to_json())) {
    return 2;
  }
  if (!trace_out.empty()) {
    obs::Profiler::global().enable(false);
    const std::string trace =
        obs::chrome_trace_from_spans(obs::Profiler::global().drain());
    if (!write_file(trace_out, trace)) return 2;
  }
  if (report.violations.empty()) return 0;

  const campaign::CampaignViolation& first = report.violations.front();
  std::printf("\nfirst violation: scenario %zu (seed %llu)\n", first.index,
              static_cast<unsigned long long>(first.seed));
  for (const std::string& detail : first.details) {
    std::printf("  %s\n", detail.c_str());
  }
  if (first.plan.event_count() == 0) return 1;

  std::printf("\n# original reproducer (%zu events)\n%s",
              first.plan.event_count(),
              io::write_scenario(first.plan, arch).c_str());
  if (do_shrink) {
    const Simulator simulator(sched);
    const campaign::Oracle oracle(sched, options.oracle);
    const campaign::ShrinkResult shrunk =
        campaign::shrink(simulator, oracle, first.plan);
    std::printf(
        "\n# shrunk reproducer (%zu -> %zu events, %zu re-simulations)\n%s",
        shrunk.initial_events, shrunk.final_events, shrunk.simulations,
        io::write_scenario(shrunk.plan, arch).c_str());
    for (const std::string& violation : shrunk.violations) {
      std::printf("# still fails: %s\n", violation.c_str());
    }
  }
  return 1;
}

}  // namespace
