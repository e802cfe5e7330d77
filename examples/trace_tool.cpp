// trace_tool: renders ftsched artefacts as Chrome trace-event JSON (open
// the output in chrome://tracing or https://ui.perfetto.dev) and dumps the
// scheduler's decision log:
//
//   ./trace_tool gantt --example1 --solution1 -o fig17.trace.json
//   ./trace_tool sim --example1 --solution1 --fail P1@2 -o faulty.trace.json
//   ./trace_tool sim --example2 --solution2 --dead P3
//   ./trace_tool explain --example1 --solution1
//
// Subcommands:
//   gantt    the static schedule, one timeline row per processor and link;
//   sim      one simulated iteration (crashes via --fail, processors dead
//            from the start via --dead) as an actual-execution timeline
//            with timeout / election / failure instants; a --fail TIME
//            must be a finite number >= 0;
//   explain  the per-step candidate tables of the list scheduler (text,
//            not JSON): every (operation, processor) pressure evaluation
//            with its sigma components and the decision taken.
//
// Profiling spans of a run come from `campaign_tool --trace-out FILE`.
//
// Exit status: 0 = ok, 2 = usage or I/O error.
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/cli_util.hpp"
#include "io/problem_format.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/explain.hpp"
#include "sched/heuristics.hpp"
#include "sim/simulator.hpp"

using namespace ftsched;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: trace_tool <gantt | sim | explain>\n"
      "                  <file | --example1 | --example2>\n"
      "                  [--base | --solution1 | --solution2] [-o FILE]\n"
      "       sim:     [--fail PROC@TIME]... [--dead PROC]...\n");
  return 2;
}

bool emit(const std::string& path, const std::string& content) {
  if (path.empty()) {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  if (!io::write_file(path, content)) return false;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "gantt" && mode != "sim" && mode != "explain") return usage();

  std::string input;
  std::string out_file;
  bool example1 = false;
  bool example2 = false;
  HeuristicKind kind = HeuristicKind::kSolution1;
  std::vector<std::pair<std::string, Time>> crashes;  // --fail name@time
  std::vector<std::string> dead;                      // --dead name

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
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
    } else if (arg == "-o" && i + 1 < argc) {
      out_file = argv[++i];
    } else if (arg == "--fail" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t at = spec.find('@');
      double time = 0;
      if (at == std::string::npos ||
          io::parse_instant(std::string_view(spec).substr(at + 1), time) !=
              io::ParseStatus::kOk) {
        std::fprintf(stderr,
                     "trace_tool: --fail operand \"%s\" is not PROC@TIME "
                     "with TIME a finite number >= 0\n",
                     spec.c_str());
        return 2;
      }
      crashes.emplace_back(spec.substr(0, at), time);
    } else if (arg == "--dead" && i + 1 < argc) {
      dead.emplace_back(argv[++i]);
    } else if (!arg.empty() && arg[0] != '-') {
      input = arg;
    } else {
      return usage();
    }
  }

  workload::OwnedProblem owned;
  if (example1) {
    owned = workload::paper_example1();
  } else if (example2) {
    owned = workload::paper_example2();
  } else if (!input.empty()) {
    const std::optional<std::string> text = io::read_file(input);
    if (!text) {
      std::fprintf(stderr, "cannot open %s\n", input.c_str());
      return 2;
    }
    Expected<workload::OwnedProblem> parsed = io::read_problem(*text);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", input.c_str(),
                   parsed.error().message.c_str());
      return 2;
    }
    owned = std::move(parsed).value();
  } else {
    return usage();
  }
  const ArchitectureGraph& arch = *owned.problem.architecture;

  SchedulerOptions sched_options;
  ExplainLog explain;
  if (mode == "explain") sched_options.explain = &explain;

  const Expected<Schedule> result =
      schedule(owned.problem, kind, sched_options);
  if (!result) {
    std::fprintf(stderr, "scheduling failed (%s): %s\n",
                 to_string(result.error().code).c_str(),
                 result.error().message.c_str());
    return 2;
  }
  const Schedule& sched = result.value();
  std::fprintf(stderr, "schedule: %s, K=%d, makespan %s\n",
               to_string(sched.kind()).c_str(), sched.failures_tolerated(),
               time_to_string(sched.makespan()).c_str());

  if (mode == "gantt") {
    return emit(out_file, obs::chrome_trace_from_schedule(sched)) ? 0 : 2;
  }

  if (mode == "explain") {
    return emit(out_file, explain.to_text(owned.problem)) ? 0 : 2;
  }

  // sim: one iteration under the --fail and --dead faults.
  FailureScenario scenario;
  for (const auto& [name, time] : crashes) {
    const ProcessorId proc = arch.find_processor(name);
    if (!proc.valid()) {
      std::fprintf(stderr, "unknown processor %s\n", name.c_str());
      return 2;
    }
    scenario.events.push_back(FailureEvent{proc, time});
  }
  for (const std::string& name : dead) {
    const ProcessorId proc = arch.find_processor(name);
    if (!proc.valid()) {
      std::fprintf(stderr, "unknown processor %s\n", name.c_str());
      return 2;
    }
    scenario.failed_at_start.push_back(proc);
  }
  const Simulator simulator(sched);
  const IterationResult iteration = simulator.run(scenario);
  std::fprintf(stderr,
               "iteration: outputs %s, response %s, %zu timeouts, "
               "%zu elections\n",
               iteration.all_outputs_produced ? "produced" : "LOST",
               time_to_string(iteration.response_time).c_str(),
               iteration.trace.count(TraceEvent::Kind::kTimeout),
               iteration.trace.count(TraceEvent::Kind::kElection));
  return emit(out_file,
              obs::chrome_trace_from_sim_trace(
                  iteration.trace, *owned.problem.algorithm, arch))
             ? 0
             : 2;
}
