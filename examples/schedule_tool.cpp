// schedule_tool: a standalone command-line front end — read a problem file
// (the SynDEx-style format of io/problem_format.hpp), run a heuristic, and
// emit the schedule in the requested form. Composes into shell pipelines:
//
//   ./schedule_tool problem.ft --solution1 --gantt
//   ./schedule_tool problem.ft --solution2 --json > schedule.json
//   ./schedule_tool problem.ft --base --csv | column -t -s,
//   ./schedule_tool --example1 --solution1 --exec   # built-in paper input
#include <cstdio>
#include <optional>
#include <string>

#include "exec/codegen.hpp"
#include "io/cli_util.hpp"
#include "io/problem_format.hpp"
#include "io/schedule_export.hpp"
#include "sched/gantt.hpp"
#include "sched/heuristics.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "sim/reliability.hpp"
#include "tuning/hybrid.hpp"
#include "workload/paper_examples.hpp"

using namespace ftsched;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: schedule_tool <file | --example1 | --example2>\n"
      "                     [--base | --solution1 | --solution2 | --hybrid]\n"
      "                     [--text | --gantt | --json | --csv | --exec |\n"
      "                      --problem | --analyze]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  HeuristicKind kind = HeuristicKind::kSolution1;
  std::string output = "--gantt";
  bool example1 = false;
  bool example2 = false;

  for (int i = 1; i < argc; ++i) {
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
    } else if (arg == "--hybrid") {
      kind = HeuristicKind::kHybrid;
    } else if (arg == "--text" || arg == "--gantt" || arg == "--json" ||
               arg == "--csv" || arg == "--exec" || arg == "--problem" ||
               arg == "--analyze") {
      output = arg;
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
      return 1;
    }
    Expected<workload::OwnedProblem> parsed = io::read_problem(*text);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", input.c_str(),
                   parsed.error().message.c_str());
      return 1;
    }
    owned = std::move(parsed).value();
  } else {
    return usage();
  }

  if (output == "--problem") {
    std::fputs(io::write_problem(owned.problem).c_str(), stdout);
    return 0;
  }

  Expected<Schedule> result =
      kind == HeuristicKind::kHybrid
          ? [&]() -> Expected<Schedule> {
              // Automatic redundancy trade-off search.
              Expected<HybridResult> hybrid = schedule_hybrid(owned.problem);
              if (!hybrid) return hybrid.error();
              return std::move(hybrid).value().schedule;
            }()
          : schedule(owned.problem, kind);
  if (!result) {
    std::fprintf(stderr, "scheduling failed (%s): %s\n",
                 to_string(result.error().code).c_str(),
                 result.error().message.c_str());
    return 1;
  }
  const Schedule& sched = result.value();
  for (const std::string& issue : validate(sched)) {
    std::fprintf(stderr, "validator: %s\n", issue.c_str());
  }

  if (output == "--text") {
    std::fputs(to_text(sched).c_str(), stdout);
  } else if (output == "--gantt") {
    std::fputs(to_gantt(sched).c_str(), stdout);
  } else if (output == "--json") {
    std::fputs(io::to_json(sched).c_str(), stdout);
  } else if (output == "--csv") {
    std::fputs(io::to_csv(sched).c_str(), stdout);
  } else if (output == "--exec") {
    std::fputs(emit_c(generate_executive(sched), sched).c_str(), stdout);
  } else if (output == "--analyze") {
    const ScheduleMetrics m = compute_metrics(sched);
    const TransientReport transient = analyze_transient(sched);
    std::printf("heuristic            %s\n", to_string(sched.kind()).c_str());
    std::printf("makespan             %s\n",
                time_to_string(m.makespan).c_str());
    std::printf("min iteration period %s\n",
                time_to_string(m.min_period).c_str());
    std::printf("replicas / transfers %zu / %zu (+%zu passive)\n",
                m.replicas, m.inter_processor_comms, m.passive_comms);
    std::printf("nominal response     %s\n",
                time_to_string(transient.nominal_response).c_str());
    std::printf("worst 1-failure resp %s (%.2fx, victim %s)\n",
                time_to_string(transient.worst_response).c_str(),
                transient.worst_stretch(),
                transient.worst_victim.valid()
                    ? owned.architecture
                          ->processor(transient.worst_victim)
                          .name.c_str()
                    : "-");
    if (owned.architecture->processor_count() <= 12) {
      for (const double p : {0.001, 0.01, 0.1}) {
        std::printf("reliability @ p=%-5g %.6f\n", p,
                    analyze_reliability(sched, p).iteration_reliability);
      }
    }
  }
  return 0;
}
