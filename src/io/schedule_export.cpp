#include "io/schedule_export.hpp"

#include "obs/json_util.hpp"
#include "sched/metrics.hpp"

namespace ftsched::io {

using obs::json_escape;

std::string to_json(const Schedule& schedule) {
  const Problem& problem = schedule.problem();
  const ScheduleMetrics metrics = compute_metrics(schedule);
  std::string out = "{\n";
  out += "  \"heuristic\": \"" + json_escape(to_string(schedule.kind())) +
         "\",\n";
  out += "  \"failures_tolerated\": " +
         std::to_string(schedule.failures_tolerated()) + ",\n";
  out += "  \"makespan\": " + time_to_string(metrics.makespan) + ",\n";
  out += "  \"operations\": [\n";
  for (std::size_t i = 0; i < schedule.operations().size(); ++i) {
    const ScheduledOperation& placement = schedule.operations()[i];
    out += "    {\"op\": \"" +
           json_escape(problem.algorithm->operation(placement.op).name) +
           "\", \"rank\": " + std::to_string(placement.rank) +
           ", \"processor\": \"" +
           json_escape(
               problem.architecture->processor(placement.processor).name) +
           "\", \"start\": " + time_to_string(placement.start) +
           ", \"end\": " + time_to_string(placement.end) + "}";
    out += i + 1 < schedule.operations().size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"comms\": [\n";
  for (std::size_t i = 0; i < schedule.comms().size(); ++i) {
    const ScheduledComm& comm = schedule.comms()[i];
    out += "    {\"dependency\": \"" +
           json_escape(problem.algorithm->dependency(comm.dep).name) +
           "\", \"sender_rank\": " + std::to_string(comm.sender_rank) +
           ", \"from\": \"" +
           json_escape(problem.architecture->processor(comm.from).name) +
           "\", \"to\": \"" +
           json_escape(problem.architecture->processor(comm.to).name) +
           "\", \"active\": " + (comm.active ? "true" : "false") +
           ", \"liveness\": " + (comm.liveness ? "true" : "false") +
           ", \"segments\": [";
    for (std::size_t s = 0; s < comm.segments.size(); ++s) {
      const CommSegment& segment = comm.segments[s];
      out += "{\"link\": \"" +
             json_escape(problem.architecture->link(segment.link).name) +
             "\", \"start\": " + time_to_string(segment.start) +
             ", \"end\": " + time_to_string(segment.end) + "}";
      if (s + 1 < comm.segments.size()) out += ", ";
    }
    out += "]}";
    out += i + 1 < schedule.comms().size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string to_csv(const Schedule& schedule) {
  const Problem& problem = schedule.problem();
  std::string out = "kind,entity,rank,resource,start,end,extra\n";
  for (const ScheduledOperation& placement : schedule.operations()) {
    out += "op," + problem.algorithm->operation(placement.op).name + ',' +
           std::to_string(placement.rank) + ',' +
           problem.architecture->processor(placement.processor).name + ',' +
           time_to_string(placement.start) + ',' +
           time_to_string(placement.end) + ',' +
           (placement.is_main() ? "main" : "backup") + '\n';
  }
  for (const ScheduledComm& comm : schedule.comms()) {
    for (const CommSegment& segment : comm.segments) {
      out += "comm," + problem.algorithm->dependency(comm.dep).name + ',' +
             std::to_string(comm.sender_rank) + ',' +
             problem.architecture->link(segment.link).name + ',' +
             time_to_string(segment.start) + ',' +
             time_to_string(segment.end) + ',' +
             problem.architecture->processor(comm.to).name + '\n';
    }
  }
  return out;
}

}  // namespace ftsched::io
