#include "sim/trace.hpp"

#include <algorithm>

#include "arch/architecture_graph.hpp"
#include "graph/algorithm_graph.hpp"

namespace ftsched {

std::string to_string(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kOpStart:
      return "op-start";
    case TraceEvent::Kind::kOpEnd:
      return "op-end";
    case TraceEvent::Kind::kTransferStart:
      return "transfer-start";
    case TraceEvent::Kind::kTransferEnd:
      return "transfer-end";
    case TraceEvent::Kind::kTimeout:
      return "timeout";
    case TraceEvent::Kind::kElection:
      return "election";
    case TraceEvent::Kind::kFailure:
      return "failure";
    case TraceEvent::Kind::kDrop:
      return "drop";
  }
  return "unknown";
}

std::size_t Trace::count(TraceEvent::Kind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [&](const TraceEvent& e) { return e.kind == kind; }));
}

Time Trace::op_end(OperationId op, ProcessorId proc) const {
  for (const TraceEvent& e : events_) {
    if (e.kind == TraceEvent::Kind::kOpEnd && e.op == op && e.proc == proc) {
      return e.time;
    }
  }
  return kInfinite;
}

std::string Trace::to_text(const AlgorithmGraph& graph,
                           const ArchitectureGraph& arch) const {
  std::string out;
  for (const TraceEvent& e : events_) {
    out += time_to_string(e.time) + "  " + to_string(e.kind);
    if (e.op.valid()) {
      out += "  " + graph.operation(e.op).name;
      if (e.rank >= 0) {
        out += ':';
        out += std::to_string(e.rank);
      }
    }
    if (e.dep.valid()) out += "  " + graph.dependency(e.dep).name;
    if (e.proc.valid()) out += "  on " + arch.processor(e.proc).name;
    if (e.link.valid()) out += "  via " + arch.link(e.link).name;
    if (e.peer.valid()) out += "  peer " + arch.processor(e.peer).name;
    out += '\n';
  }
  return out;
}

std::vector<Time> representative_instants(
    const Trace& trace, Time min_time, const std::vector<Time>& extra_dates) {
  std::vector<Time> dates;
  dates.reserve(trace.events().size() + extra_dates.size() + 1);
  for (const TraceEvent& event : trace.events()) {
    dates.push_back(event.time);
  }
  for (const Time date : extra_dates) {
    if (!is_infinite(date)) dates.push_back(date);
  }
  std::sort(dates.begin(), dates.end());
  dates.erase(std::unique(dates.begin(), dates.end(),
                          [](Time a, Time b) { return time_eq(a, b); }),
              dates.end());

  std::vector<Time> instants{min_time};
  for (std::size_t i = 0; i < dates.size(); ++i) {
    if (time_ge(dates[i], min_time)) instants.push_back(dates[i]);
    if (i + 1 < dates.size()) {
      const Time mid = (dates[i] + dates[i + 1]) / 2;
      if (time_ge(mid, min_time)) instants.push_back(mid);
    }
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end(),
                             [](Time a, Time b) { return time_eq(a, b); }),
                 instants.end());
  return instants;
}

}  // namespace ftsched
