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
// certifier check (a branch's envelope widens by its measured silence
// deferral: how long a silent window held back a blocked send, at most
// the window's length). Counterexamples are shrunk to a minimal
// serialized reproducer automatically.
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
// apply one targeted scheduling-constraint move, re-certify — until the
// schedule certifies or the move/round budget runs out. The JSON repair
// log (--repair-out) records every move and its re-certification verdict
// and is byte-identical for any --threads.
//
// --trace-out FILE records the profiling spans of any one-shot mode, from
// scheduling on, or of a whole --serve / --serve-socket session, as Chrome
// trace-event JSON.
//
// Exit status: 0 = campaign clean (replay satisfied the oracle / schedule
// certified / repair converged), 1 = oracle violations (certification or
// repair refuted), 2 = usage error, 3 = input file unreadable, malformed or
// unschedulable (diagnostic names the file, and the offending line of a
// malformed one).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
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
      "the certifier and the oracle enforce response <= T (+ the time a\n"
      "silent window held back a blocked send, at most its length).\n"
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
      "shared cache. A status request reports requests, submits,\n"
      "cache_hits, cache_misses, cache_entries, cache_capacity,\n"
      "deadline_exceeded and errors; each request adds its counts when\n"
      "it finishes, so the totals are independent of how connections\n"
      "interleave.\n"
      "--metrics-out writes the campaign's merged domain metrics as JSON\n"
      "(deterministic for a given seed, any thread count); --trace-out\n"
      "writes the profiling spans of any one-shot mode, scheduling\n"
      "included, or of a whole serve session, as Chrome trace-event JSON\n"
      "(open in chrome://tracing or https://ui.perfetto.dev).\n"
      "\n"
      "exit status: 0 clean/certified/repaired, 1 refuted, 2 usage error,\n"
      "3 input file unreadable, malformed or unschedulable (diagnostic\n"
      "names the file, and the offending line of a malformed one).\n");
  return 2;
}

using io::read_file;
using io::write_file;

/// True when a numeric operand parsed. An out-of-range one throws instead:
/// main() prints "campaign_tool: <reason>" and exits 3 — the treatment a
/// malformed input file gets, because the operand LOOKED numeric and
/// silently saturating it is the bug this check exists for.
bool operand_ok(io::ParseStatus status, std::string_view flag,
                std::string_view text) {
  if (status == io::ParseStatus::kOutOfRange) {
    throw std::invalid_argument(std::string(flag) + " operand \"" +
                                std::string(text) + "\" is out of range");
  }
  return status == io::ParseStatus::kOk;
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
  const std::string_view bound = std::string_view(s).substr(c + 1);
  return operand_ok(io::parse_time(bound, out.bound), "--latency", bound);
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

/// Input-file failure (unreadable, malformed or unschedulable): one line
/// naming the file and — for parse errors — the offending line, distinct
/// exit code 3 so scripts can tell "bad input" from "schedule refuted" (1)
/// and "bad usage" (2).
int input_error(const std::string& path, const std::string& message) {
  std::fprintf(stderr, "campaign_tool: %s: %s\n", path.c_str(),
               message.c_str());
  return 3;
}

/// The parsed command line.
struct Args {
  std::string input;
  bool example1 = false;
  bool example2 = false;
  HeuristicKind kind = HeuristicKind::kSolution1;
  /// The campaign knobs. `threads` and the oracle spec also hold the flags
  /// every mode shares: --threads, --claim-k, --response-bound, --latency.
  campaign::CampaignOptions options;
  std::string replay_file;
  std::string metrics_out;
  std::string trace_out;
  bool do_shrink = false;
  bool do_certify = false;
  int certify_links = 0;
  int certify_silences = 0;
  std::string certify_out;
  bool do_repair = false;
  int repair_rounds = campaign::RepairSpec{}.max_rounds;
  std::string repair_out;
  bool do_frontier = false;
  int frontier_k = -1;
  int frontier_links = campaign::FrontierSpec{}.max_link_failures;
  int frontier_silences = campaign::FrontierSpec{}.max_silences;
  std::string frontier_out;
  bool do_plan_key = false;
  bool do_shard = false;
  campaign::CertifyShardSpec shard;
  std::string stream_out;
  std::vector<std::string> merge_streams;
  bool do_serve = false;
  std::string serve_socket_path;
  std::size_t cache_size = 64;
  unsigned serve_threads = 1;
};

/// Fills `args` from the command line; false on a usage error.
bool parse_args(int argc, char** argv, Args& args) {
  campaign::CampaignOptions& options = args.options;
  // An interesting default mix: short missions, some over-budget attacks,
  // occasional benign silences and wrong suspicions. Link faults stay
  // opt-in (--links) — they are outside the paper's failure hypothesis.
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The operand of a flag that takes one ("" after the last argument).
    const std::string_view value = i + 1 < argc ? argv[i + 1] : "";
    // Whether the flag's numeric operand parsed; consumes it.
    const auto parsed = [&](io::ParseStatus status) {
      ++i;
      return operand_ok(status, arg, value);
    };
    int count = 0;
    campaign::LatencyConstraint latency;
    if (arg == "--example1") {
      args.example1 = true;
    } else if (arg == "--example2") {
      args.example2 = true;
    } else if (arg == "--base") {
      args.kind = HeuristicKind::kBase;
    } else if (arg == "--solution1") {
      args.kind = HeuristicKind::kSolution1;
    } else if (arg == "--solution2") {
      args.kind = HeuristicKind::kSolution2;
    } else if (arg == "--seed" &&
               parsed(io::parse_number(value, options.seed))) {
    } else if (arg == "--scenarios" &&
               parsed(io::parse_number(value, options.scenarios))) {
    } else if (arg == "--threads" &&
               parsed(io::parse_number(value, options.threads))) {
    } else if (arg == "--claim-k" && parsed(io::parse_number(value, count))) {
      options.oracle.claimed_tolerance = count;
      options.spec.max_processor_failures = count;
    } else if (arg == "--iterations" &&
               parsed(io::parse_number(value, count)) && count >= 1) {
      options.spec.max_iterations = count;
    } else if (arg == "--overbudget" &&
               parsed(io::parse_fraction(
                   value, options.spec.over_budget_fraction))) {
    } else if (arg == "--links") {
      options.spec.link_failure_probability = 0.25;
    } else if (arg == "--silence") {
      options.spec.silence_probability = 0.25;
    } else if (arg == "--suspects") {
      options.spec.suspect_probability = 0.25;
    } else if (arg == "--shrink") {
      args.do_shrink = true;
    } else if (arg == "--certify") {
      args.do_certify = true;
    } else if (arg == "--certify-links" &&
               parsed(io::parse_number(value, args.certify_links))) {
      args.do_certify = true;
    } else if (arg == "--certify-silences" &&
               parsed(io::parse_number(value, args.certify_silences))) {
      args.do_certify = true;
    } else if (arg == "--response-bound" &&
               parsed(io::parse_time(value, options.oracle.response_bound))) {
    } else if (arg == "--latency" && i + 1 < argc &&
               parse_latency(argv[++i], latency)) {
      // Chain constraints apply everywhere a verdict is formed: the
      // replay / shrink oracle, certification, repair, the frontier and
      // the service modes.
      options.oracle.latency_constraints.push_back(latency);
    } else if (arg == "--certify-out" && i + 1 < argc) {
      args.certify_out = argv[++i];
    } else if (arg == "--repair") {
      args.do_repair = true;
    } else if (arg == "--repair-rounds" &&
               parsed(io::parse_number(value, args.repair_rounds))) {
      args.do_repair = true;
    } else if (arg == "--repair-out" && i + 1 < argc) {
      args.repair_out = argv[++i];
      args.do_repair = true;
    } else if (arg == "--frontier") {
      args.do_frontier = true;
    } else if (arg == "--frontier-k" &&
               parsed(io::parse_number(value, args.frontier_k))) {
      args.do_frontier = true;
    } else if (arg == "--frontier-links" &&
               parsed(io::parse_number(value, args.frontier_links))) {
      args.do_frontier = true;
    } else if (arg == "--frontier-silences" &&
               parsed(io::parse_number(value, args.frontier_silences))) {
      args.do_frontier = true;
    } else if (arg == "--frontier-out" && i + 1 < argc) {
      args.frontier_out = argv[++i];
      args.do_frontier = true;
    } else if (arg == "--plan-key") {
      args.do_plan_key = true;
    } else if (arg == "--certify-shard" &&
               parsed(io::parse_shard(value, args.shard.shard_index,
                                      args.shard.shard_count))) {
      args.do_shard = true;
    } else if (arg == "--stream-out" && i + 1 < argc) {
      args.stream_out = argv[++i];
    } else if (arg == "--merge-stream" && i + 1 < argc) {
      args.merge_streams.emplace_back(argv[++i]);
    } else if (arg == "--serve") {
      args.do_serve = true;
    } else if (arg == "--serve-socket" && i + 1 < argc) {
      args.serve_socket_path = argv[++i];
      args.do_serve = true;
    } else if (arg == "--cache-size" &&
               parsed(io::parse_number(value, args.cache_size))) {
    } else if (arg == "--serve-threads" &&
               parsed(io::parse_number(value, args.serve_threads)) &&
               args.serve_threads >= 1) {
    } else if (arg == "--replay" && i + 1 < argc) {
      args.replay_file = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      args.metrics_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      args.trace_out = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      args.input = arg;
    } else {
      return false;
    }
  }
  return true;
}

/// Prints the shrunk form of a refuting plan and the violations it keeps.
void print_shrunk(const Schedule& sched, const campaign::OracleSpec& spec,
                  const MissionPlan& plan) {
  const ArchitectureGraph& arch = *sched.problem().architecture;
  const Simulator simulator(sched);
  const campaign::Oracle oracle(sched, spec);
  const campaign::ShrinkResult shrunk =
      campaign::shrink(simulator, oracle, plan);
  std::printf(
      "\n# shrunk reproducer (%zu -> %zu events, %zu re-simulations)\n%s",
      shrunk.initial_events, shrunk.final_events, shrunk.simulations,
      io::write_scenario(shrunk.plan, arch).c_str());
  for (const std::string& violation : shrunk.violations) {
    std::printf("# still fails: %s\n", violation.c_str());
  }
}

/// Schedules the problem and runs the one mode the flags select: plan key,
/// shard, merge, frontier, replay, repair, certify, else a campaign.
int one_shot(const Args& args, const workload::OwnedProblem& owned) {
  const Expected<Schedule> result = schedule(owned.problem, args.kind);
  if (!result) {
    return input_error(args.input, "scheduling failed (" +
                                       to_string(result.error().code) +
                                       "): " + result.error().message);
  }
  const Schedule& sched = result.value();
  const ArchitectureGraph& arch = *owned.problem.architecture;
  const campaign::CampaignOptions& options = args.options;

  // The one certification spec every certifying mode sweeps, so --plan-key
  // prints exactly the key a certifyd submission with these flags would
  // look up, and shards, merges, repair and --certify agree on it.
  campaign::CertifySpec spec;
  spec.max_failures = options.oracle.claimed_tolerance;
  spec.max_link_failures = args.certify_links;
  spec.max_silences = args.certify_silences;
  spec.response_bound = options.oracle.response_bound;
  spec.latency_constraints = options.oracle.latency_constraints;
  spec.threads = options.threads;

  if (args.do_plan_key) {
    // Bare key on stdout: scripts compare two problems' cache identity.
    std::printf("%s\n", service::plan_key_string(sched, spec).c_str());
    return 0;
  }

  if (args.do_shard) {
    // Shard mode keeps stdout clean: with no --stream-out the NDJSON
    // records themselves go there.
    std::ofstream file;
    std::ostream* out = &std::cout;
    if (!args.stream_out.empty()) {
      file.open(args.stream_out);
      if (!file) {
        std::fprintf(stderr, "cannot write %s\n", args.stream_out.c_str());
        return 2;
      }
      out = &file;
    }
    service::OstreamSink sink(*out);
    const service::StreamShardResult shard_result =
        service::certify_stream(sched, spec, args.shard, sink);
    // A full disk shows only in the stream state: an unchecked stream
    // would announce records that never reached the file.
    if (!args.stream_out.empty() && !file.flush()) {
      std::fprintf(stderr, "cannot write %s\n", args.stream_out.c_str());
      return 2;
    }
    std::fprintf(stderr, "shard %zu/%zu: %zu tasks streamed\n",
                 args.shard.shard_index, args.shard.shard_count,
                 shard_result.tasks_emitted);
    return shard_result.completed ? 0 : 1;
  }

  std::printf("schedule: %s, K=%d, makespan %s\n",
              to_string(sched.kind()).c_str(), sched.failures_tolerated(),
              time_to_string(sched.makespan()).c_str());

  if (!args.merge_streams.empty()) {
    std::vector<std::string> streams;
    for (const std::string& path : args.merge_streams) {
      std::optional<std::string> stream = read_file(path);
      if (!stream) return input_error(path, "cannot open file");
      streams.push_back(std::move(*stream));
    }
    const Expected<campaign::CertifyReport> merged =
        service::merge_streams(sched, spec, streams);
    if (!merged) {
      return input_error(args.merge_streams.front(), merged.error().message);
    }
    const campaign::CertifyReport& report = merged.value();
    std::fputs(report.to_text(arch).c_str(), stdout);
    if (!args.certify_out.empty() &&
        !write_file(args.certify_out, report.to_json(arch))) {
      return 2;
    }
    return report.certified ? 0 : 1;
  }

  if (args.do_frontier) {
    campaign::FrontierSpec fspec;
    fspec.max_failures = args.frontier_k;
    fspec.max_link_failures = args.frontier_links;
    fspec.max_silences = args.frontier_silences;
    fspec.response_bound = options.oracle.response_bound;
    fspec.latency_constraints = options.oracle.latency_constraints;
    fspec.threads = options.threads;
    const campaign::FrontierReport report =
        campaign::frontier_sweep(sched, fspec);
    std::fputs(report.to_text(arch).c_str(), stdout);
    if (!args.frontier_out.empty() &&
        !write_file(args.frontier_out, report.to_json(arch))) {
      return 2;
    }
    // The frontier is a capability map, not a pass/fail gate; the exit
    // code reports only whether the fault-free baseline (0, 0, 0) holds.
    return !report.points.empty() && report.points.front().certified ? 0 : 1;
  }

  if (!args.replay_file.empty()) {
    const std::optional<std::string> text = read_file(args.replay_file);
    if (!text) return input_error(args.replay_file, "cannot open file");
    const Expected<MissionPlan> plan = io::read_scenario(*text, arch);
    if (!plan) {
      return input_error(args.replay_file, plan.error().message);
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

  if (args.do_repair) {
    campaign::RepairSpec rspec;
    rspec.certify = spec;
    rspec.max_rounds = args.repair_rounds;
    const campaign::RepairReport report =
        campaign::repair(owned.problem, args.kind, rspec);
    const AlgorithmGraph& graph = *owned.problem.algorithm;
    std::fputs(report.to_text(graph, arch).c_str(), stdout);
    if (!args.repair_out.empty() &&
        !write_file(args.repair_out, report.to_json(graph, arch))) {
      return 2;
    }
    if (!args.metrics_out.empty() &&
        !write_file(args.metrics_out, report.metrics.to_json())) {
      return 2;
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

  if (args.do_certify) {
    const campaign::CertifyReport report = campaign::certify(sched, spec);
    std::fputs(report.to_text(arch).c_str(), stdout);
    if (!args.certify_out.empty() &&
        !write_file(args.certify_out, report.to_json(arch))) {
      return 2;
    }
    if (!args.metrics_out.empty() &&
        !write_file(args.metrics_out, report.metrics.to_json())) {
      return 2;
    }
    if (report.certified) return 0;

    // Shrink the first counterexample to a minimal serialized reproducer
    // (the certifier's branches are already canonical, but the shrinker
    // often drops dead-at-start processors that were not load-bearing).
    const MissionPlan plan =
        campaign::counterexample_plan(report.counterexamples.front());
    std::printf("\n# counterexample reproducer (%zu events)\n%s",
                plan.event_count(), io::write_scenario(plan, arch).c_str());
    // Shrink under the certificate's replay oracle: its link budget is
    // within-contract too, so a link counterexample still fails the oracle,
    // as the shrinker requires.
    print_shrunk(sched, campaign::oracle_spec(report), plan);
    return 1;
  }

  const campaign::CampaignReport report =
      campaign::run_campaign(sched, options);
  std::fputs(report.to_text(arch).c_str(), stdout);
  if (!args.metrics_out.empty() &&
      !write_file(args.metrics_out, report.metrics.to_json())) {
    return 2;
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
  if (args.do_shrink) print_shrunk(sched, options.oracle, first.plan);
  return 1;
}

/// Runs certifyd over stdin/stdout or a Unix-domain socket until a
/// shutdown request, the end of input or a SIGINT drain.
int serve(const Args& args) {
  service::ServeOptions serve_options;
  serve_options.cache_capacity = args.cache_size;
  serve_options.threads = args.options.threads;
  serve_options.serve_threads = args.serve_threads;
  serve_options.stop = &g_stop;
  install_sigint_drain();
  if (!args.serve_socket_path.empty()) {
    return service::serve_socket(args.serve_socket_path, serve_options);
  }
  return service::serve_lines(std::cin, std::cout, serve_options);
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  workload::OwnedProblem owned;
  if (args.do_serve) {
    // certifyd reads its problems from the requests.
  } else if (args.example1) {
    owned = workload::paper_example1();
  } else if (args.example2) {
    owned = workload::paper_example2();
  } else if (!args.input.empty()) {
    const std::optional<std::string> text = read_file(args.input);
    if (!text) return input_error(args.input, "cannot open file");
    Expected<workload::OwnedProblem> parsed = io::read_problem(*text);
    if (!parsed) {
      return input_error(args.input, parsed.error().message);
    }
    owned = std::move(parsed).value();
  } else {
    return usage();
  }

  // One profiling scope for every mode, written once: on before
  // scheduling, so the sched.* spans land beside the mode's own, or before
  // serving, so it spans the whole session.
  obs::Profiler& profiler = obs::Profiler::global();
  if (!args.trace_out.empty()) profiler.enable(true);
  const int status = args.do_serve ? serve(args) : one_shot(args, owned);
  if (args.trace_out.empty()) return status;
  profiler.enable(false);
  const std::string trace = obs::chrome_trace_from_spans(profiler.drain());
  return write_file(args.trace_out, trace) ? status : 2;
}

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
