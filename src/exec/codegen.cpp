#include "exec/codegen.hpp"

#include <algorithm>
#include <map>

#include "arch/routing.hpp"
#include "core/text.hpp"

namespace ftsched {

Executive generate_executive(const Schedule& schedule) {
  const Problem& problem = schedule.problem();
  const AlgorithmGraph& graph = *problem.algorithm;
  const ArchitectureGraph& arch = *problem.architecture;
  RoutingTable routing(arch);
  TimeoutTable timeouts(schedule, routing);
  // Receives are guarded by watch chains wherever time-redundant comms are
  // in play (solution 1, and the hybrid's passive dependencies — the
  // TimeoutTable holds no chains for actively replicated ones).
  const bool watched = has_watch_chains(schedule.kind());

  Executive executive;
  executive.kind = schedule.kind();
  executive.processors.resize(arch.processor_count());

  for (const Processor& proc : arch.processors()) {
    ProcessorPrograms& programs = executive.processors[proc.id.index()];
    programs.processor = proc.id;
    programs.computation.name = "compute_" + proc.name;
    for (const ScheduledOperation* placement :
         schedule.operations_on(proc.id)) {
      Instruction instr;
      instr.kind = Instruction::Kind::kExec;
      instr.op = placement->op;
      instr.rank = placement->rank;
      instr.planned_start = placement->start;
      instr.planned_end = placement->end;
      programs.computation.instructions.push_back(std::move(instr));
    }
    for (LinkId link : arch.links_of(proc.id)) {
      UnitProgram unit;
      unit.name = "comm_" + proc.name + "_" + arch.link(link).name;
      programs.comm_units.emplace_back(link, std::move(unit));
    }
  }

  auto comm_unit = [&](ProcessorId proc, LinkId link) -> UnitProgram& {
    for (auto& [unit_link, unit] :
         executive.processors[proc.index()].comm_units) {
      if (unit_link == link) return unit;
    }
    throw std::logic_error("transfer crosses a link its hop is not on");
  };

  // Sends and receives, per active transfer hop, on the route the comm was
  // scheduled on (hops[i] feeds segment i), which the simulator and the
  // certifier follow too; disjoint routing and ForbidLink constraints
  // leave the routing table's shortest route.
  for (const ScheduledComm& comm : schedule.comms()) {
    if (!comm.active) continue;
    const std::vector<ProcessorId> hops = schedule.comm_hops(comm);
    for (std::size_t i = 0; i < comm.segments.size(); ++i) {
      const CommSegment& segment = comm.segments[i];

      Instruction send;
      send.kind = Instruction::Kind::kSend;
      send.dep = comm.dep;
      send.link = segment.link;
      send.peer = comm.to;
      send.planned_start = segment.start;
      send.planned_end = segment.end;
      comm_unit(hops[i], segment.link).instructions.push_back(send);

      // Receivers: every endpoint of this segment's link that consumes the
      // value (a replica of the destination operation without a local
      // producer replica) or relays it (the next hop).
      const Dependency& dep = graph.dependency(comm.dep);
      for (ProcessorId endpoint : arch.link(segment.link).endpoints) {
        if (endpoint == hops[i]) continue;
        const bool relays = i + 1 < hops.size() && endpoint == hops[i + 1];
        const bool consumes =
            schedule.replica_on(dep.dst, endpoint) != nullptr &&
            schedule.replica_on(dep.src, endpoint) == nullptr;
        if (!relays && !consumes) continue;
        Instruction recv;
        recv.kind = Instruction::Kind::kRecv;
        recv.dep = comm.dep;
        recv.link = segment.link;
        recv.peer = hops[i];
        recv.planned_start = segment.start;
        recv.planned_end = segment.end;
        if (watched) {
          if (const TimeoutChain* chain = timeouts.chain(comm.dep, endpoint)) {
            recv.chain = chain->entries;
          }
        }
        comm_unit(endpoint, segment.link).instructions.push_back(recv);
      }
    }
  }

  // Solution-1 backups: conditional sends on the unit of the link that
  // reaches the first consumer.
  for (const ScheduledComm& comm : schedule.comms()) {
    if (comm.active) continue;
    const Route& route = routing.route(comm.from, comm.to);
    if (route.links.empty()) continue;
    Instruction opcomm;
    opcomm.kind = Instruction::Kind::kOpComm;
    opcomm.dep = comm.dep;
    opcomm.link = route.links.front();
    opcomm.peer = comm.to;
    if (const TimeoutChain* chain = timeouts.chain(comm.dep, comm.from)) {
      opcomm.chain = chain->entries;
      opcomm.planned_start =
          chain->entries.empty() ? 0 : chain->entries.back().deadline;
      opcomm.planned_end = opcomm.planned_start;
    }
    comm_unit(comm.from, opcomm.link).instructions.push_back(opcomm);
  }

  // Communication units run sequentially in planned order.
  for (ProcessorPrograms& programs : executive.processors) {
    for (auto& [link, unit] : programs.comm_units) {
      std::stable_sort(unit.instructions.begin(), unit.instructions.end(),
                       [](const Instruction& a, const Instruction& b) {
                         return time_lt(a.planned_start, b.planned_start);
                       });
    }
  }
  return executive;
}

namespace {

std::string chain_comment(const std::vector<TimeoutEntry>& chain,
                          const ArchitectureGraph& arch) {
  std::vector<std::string> parts;
  for (const TimeoutEntry& entry : chain) {
    parts.push_back(arch.processor(entry.sender).name + "@" +
                    time_to_string(entry.deadline));
  }
  return join(parts, ", ");
}

std::string identifier(std::string name) {
  for (char& c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0)) c = '_';
  }
  return name;
}

}  // namespace

std::string emit_c(const Executive& executive, const Schedule& schedule) {
  const Problem& problem = schedule.problem();
  const AlgorithmGraph& graph = *problem.algorithm;
  const ArchitectureGraph& arch = *problem.architecture;

  std::string out;
  out += "/* Distributed executive generated by ftsched (" +
         to_string(executive.kind) + ") */\n";
  out += "/* makespan " + time_to_string(schedule.makespan()) + ", K = " +
         std::to_string(schedule.failures_tolerated()) + " */\n\n";

  for (const ProcessorPrograms& programs : executive.processors) {
    const std::string proc = arch.processor(programs.processor).name;
    out += "void " + identifier(programs.computation.name) + "(void) {\n";
    out += "  for (;;) { /* one iteration per reaction */\n";
    for (const Instruction& instr : programs.computation.instructions) {
      out += "    exec_" + identifier(graph.operation(instr.op).name) +
             "();  /* replica " + std::to_string(instr.rank) + ", [" +
             time_to_string(instr.planned_start) + ", " +
             time_to_string(instr.planned_end) + "] */\n";
    }
    out += "  }\n}\n\n";

    for (const auto& [link, unit] : programs.comm_units) {
      out += "void " + identifier(unit.name) + "(void) {\n";
      out += "  for (;;) {\n";
      for (const Instruction& instr : unit.instructions) {
        const std::string dep = identifier(graph.dependency(instr.dep).name);
        switch (instr.kind) {
          case Instruction::Kind::kSend:
            out += "    send(" + dep + ", /*to=*/" +
                   arch.processor(instr.peer).name + ");  /* [" +
                   time_to_string(instr.planned_start) + ", " +
                   time_to_string(instr.planned_end) + "] */\n";
            break;
          case Instruction::Kind::kRecv:
            out += "    recv(" + dep + ", /*from=*/" +
                   arch.processor(instr.peer).name + ");";
            if (!instr.chain.empty()) {
              out += "  /* watch: " + chain_comment(instr.chain, arch) +
                     " */";
            }
            out += "\n";
            break;
          case Instruction::Kind::kOpComm:
            out += "    op_comm(" + dep + ");  /* backup send, watch: " +
                   chain_comment(instr.chain, arch) + " */\n";
            break;
          case Instruction::Kind::kExec:
            break;  // never on a comm unit
        }
      }
      out += "  }\n}\n\n";
    }
    (void)proc;
  }
  return out;
}

}  // namespace ftsched
