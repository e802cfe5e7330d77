// End-to-end from source code: compile a synchronous dataflow node (the
// front-end role LUSTRE/SIGNAL play in the paper's toolchain, §4.1), attach
// timing characteristics, schedule it fault-tolerantly on a CAN bus, and
// crash a processor to watch the backups take over.
//
// Pass a file path to compile your own node instead of the built-in one.
#include <cstdio>
#include <optional>
#include <string>

#include "graph/dot.hpp"
#include "io/cli_util.hpp"
#include "lang/compiler.hpp"
#include "sched/gantt.hpp"
#include "sched/heuristics.hpp"
#include "sim/simulator.hpp"

using namespace ftsched;

namespace {

constexpr const char* kBuiltin = R"(
-- anti-lock braking controller
node abs(wheel_fl: sensor; wheel_fr: sensor; pedal: sensor)
returns (valve_fl: actuator; valve_fr: actuator)
let
  slip_fl  = slip(wheel_fl, ref);
  slip_fr  = slip(wheel_fr, ref);
  ref      = reference(wheel_fl, wheel_fr);
  demand   = shape(pedal);
  hold     = pre(state);
  state    = update(hold, slip_fl, slip_fr);
  valve_fl = modulate(demand, slip_fl, hold);
  valve_fr = modulate2(demand, slip_fr, hold);
tel
)";

}  // namespace

int main(int argc, char** argv) {
  std::string source = kBuiltin;
  if (argc > 1) {
    std::optional<std::string> file = io::read_file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    source = std::move(*file);
  }

  const Expected<lang::CompiledNode> compiled = lang::compile_node(source);
  if (!compiled) {
    std::fprintf(stderr, "compile error: %s\n",
                 compiled.error().message.c_str());
    return 1;
  }
  const AlgorithmGraph& algorithm = *compiled->graph;
  std::printf("compiled node '%s': %zu operations, %zu dependencies\n\n",
              compiled->name.c_str(), algorithm.operation_count(),
              algorithm.dependency_count());
  std::fputs(to_dot(algorithm, compiled->name).c_str(), stdout);

  // Three ECUs on a CAN bus; sensors/actuators wired to two each (K+1).
  ArchitectureGraph arch;
  std::vector<ProcessorId> ecus;
  for (int i = 1; i <= 3; ++i) {
    std::string name = "ECU";
    name += std::to_string(i);
    ecus.push_back(arch.add_processor(name));
  }
  arch.add_bus("can", ecus);

  ExecTable exec(algorithm, arch);
  CommTable comm(algorithm, arch);
  int wiring = 0;
  for (const Operation& op : algorithm.operations()) {
    if (is_extio(op.kind)) {
      exec.set(op.id, ecus[wiring % 3], 0.2);
      exec.set(op.id, ecus[(wiring + 1) % 3], 0.2);
      ++wiring;
    } else {
      exec.set_uniform(op.id,
                       op.kind == OperationKind::kMem ? 0.1 : 0.8);
    }
  }
  for (const Dependency& dep : algorithm.dependencies()) {
    comm.set_uniform(dep.id, 0.15);
  }

  Problem problem;
  problem.algorithm = &algorithm;
  problem.architecture = &arch;
  problem.exec = &exec;
  problem.comm = &comm;
  problem.failures_to_tolerate = 1;

  const Expected<Schedule> schedule = schedule_solution1(problem);
  if (!schedule) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 schedule.error().message.c_str());
    return 1;
  }
  std::printf("\nK=1 schedule on the CAN bus:\n%s\n",
              to_gantt(schedule.value(), 76).c_str());

  const Simulator simulator(schedule.value());
  bool all = true;
  for (ProcessorId ecu : ecus) {
    const IterationResult run = simulator.run(
        FailureScenario::crash(ecu, schedule->makespan() / 2));
    std::printf("%s dies mid-iteration: %s (response %s)\n",
                arch.processor(ecu).name.c_str(),
                run.all_outputs_produced ? "valves still actuate"
                                         : "OUTPUTS LOST",
                time_to_string(run.response_time).c_str());
    all &= run.all_outputs_produced;
  }
  return all ? 0 : 1;
}
