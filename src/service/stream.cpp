#include "service/stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>

#include "obs/json_util.hpp"
#include "service/json.hpp"

namespace ftsched::service {
namespace {

/// Exact double round-trip: 17 significant digits guarantee
/// strtod(%.17g(x)) == x, so a time survives worker → stream → merger
/// bit-for-bit and the merged certificate renders the same %.12g text as
/// the single-process one. kInfinite (and anything non-finite) is null.
std::string wire_time(Time t) {
  if (!std::isfinite(t)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", t);
  return buf;
}

Time read_time(const JsonValue& object, std::string_view key, Time def) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) return def;
  if (member->is_null()) return kInfinite;
  if (member->is_number()) return member->number;
  return def;
}

/// Reads the non-negative integer member `key` into `out`: `fallback` when
/// absent (an error when there is none), otherwise range-checked to the
/// largest value `out` holds. False, with `error` set, on a bad value.
template <typename T>
bool read_integer(const JsonValue& object, std::string_view key, T& out,
                  Error& error, std::optional<std::int64_t> fallback = 0) {
  const auto hi = static_cast<std::int64_t>(std::min<std::uint64_t>(
      std::numeric_limits<T>::max(), kJsonMaxInteger));
  const Expected<std::int64_t> value = checked_integer(
      object.find(key), "stream: " + std::string(key), 0, hi, fallback);
  if (!value.has_value()) {
    error = value.error();
    return false;
  }
  out = static_cast<T>(*value);
  return true;
}

bool append_ids(const JsonValue* array, auto& out) {
  if (array == nullptr) return true;  // absent = empty
  if (!array->is_array()) return false;
  for (const JsonValue& item : array->items) {
    const Expected<std::int64_t> id = checked_integer(
        &item, "id", 0, std::numeric_limits<std::int32_t>::max());
    if (!id.has_value()) return false;
    out.emplace_back(static_cast<std::int32_t>(*id));
  }
  return true;
}

}  // namespace

void OstreamSink::write(std::string_view line) {
  out_ << line << '\n';
  out_.flush();
}

std::string write_branch(const campaign::CertifyBranch& branch) {
  const FailureScenario& faults = branch.faults;
  std::string out = "{\"dead\":[";
  for (std::size_t i = 0; i < faults.failed_at_start.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(faults.failed_at_start[i].value());
  }
  out += "],\"dead_links\":[";
  for (std::size_t i = 0; i < faults.failed_links_at_start.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(faults.failed_links_at_start[i].value());
  }
  out += "],\"crashes\":[";
  for (std::size_t i = 0; i < faults.events.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"p\":" + std::to_string(faults.events[i].processor.value()) +
           ",\"t\":" + wire_time(faults.events[i].time) + "}";
  }
  out += "],\"link_crashes\":[";
  for (std::size_t i = 0; i < faults.link_events.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"l\":" + std::to_string(faults.link_events[i].link.value()) +
           ",\"t\":" + wire_time(faults.link_events[i].time) + "}";
  }
  out += "],\"silences\":[";
  for (std::size_t i = 0; i < faults.silent_windows.size(); ++i) {
    const SilentWindow& window = faults.silent_windows[i];
    if (i > 0) out += ',';
    out += "{\"p\":" + std::to_string(window.processor.value()) +
           ",\"from\":" + wire_time(window.from) +
           ",\"to\":" + wire_time(window.to) + "}";
  }
  out += "],\"lost\":";
  out += branch.outputs_lost ? "true" : "false";
  out += ",\"response\":" + wire_time(branch.response_time);
  // Constraint names appear only when violated, keeping scalar-only
  // branches byte-identical to the pre-constraint wire format.
  if (!branch.violated_constraints.empty()) {
    out += ",\"violated\":[";
    for (std::size_t i = 0; i < branch.violated_constraints.size(); ++i) {
      if (i > 0) out += ',';
      out += obs::json_string(branch.violated_constraints[i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string write_meta_record(const StreamMeta& meta) {
  std::string out = "{\"type\":\"meta\",\"format\":" +
                    std::to_string(meta.format) +
                    ",\"plan_key\":" + obs::json_string(meta.plan_key);
  out += ",\"max_failures\":" + std::to_string(meta.max_failures);
  out += ",\"max_link_failures\":" + std::to_string(meta.max_link_failures);
  out += ",\"max_silences\":" + std::to_string(meta.max_silences);
  out += ",\"response_bound\":" + wire_time(meta.response_bound);
  out += ",\"subsets\":" + std::to_string(meta.subsets);
  out += ",\"link_subsets\":" + std::to_string(meta.link_subsets);
  out += ",\"tasks\":" + std::to_string(meta.tasks);
  out += ",\"shard_index\":" + std::to_string(meta.shard_index);
  out += ",\"shard_count\":" + std::to_string(meta.shard_count);
  out += ",\"max_counterexamples\":" +
         std::to_string(meta.max_counterexamples);
  out += ",\"dedup\":";
  out += meta.dedup ? "true" : "false";
  if (!meta.constraints.empty()) {
    out += ",\"latency_constraints\":[";
    for (std::size_t i = 0; i < meta.constraints.size(); ++i) {
      const campaign::LatencyConstraint& c = meta.constraints[i];
      if (i > 0) out += ',';
      out += "{\"name\":" + obs::json_string(c.name);
      out += ",\"source\":" + obs::json_string(c.source_op);
      out += ",\"sink\":" + obs::json_string(c.sink_op);
      out += ",\"bound\":" + wire_time(c.bound) + "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string write_task_record(const campaign::CertifyTaskPartial& task) {
  std::string out =
      "{\"type\":\"task\",\"task\":" + std::to_string(task.task_index);
  out += ",\"branches\":" + std::to_string(task.branches);
  out += ",\"forks\":" + std::to_string(task.forks);
  out += ",\"events_simulated\":" + std::to_string(task.events_simulated);
  out += ",\"instants_kept\":" + std::to_string(task.instants_kept);
  out += ",\"instants_merged\":" + std::to_string(task.instants_merged);
  out += ",\"total_counterexamples\":" +
         std::to_string(task.total_counterexamples);
  out += ",\"worst_response\":" + wire_time(task.worst_response);
  if (!task.worst_chain_latency.empty()) {
    out += ",\"worst_chain_latency\":[";
    for (std::size_t i = 0; i < task.worst_chain_latency.size(); ++i) {
      if (i > 0) out += ',';
      out += wire_time(task.worst_chain_latency[i]);
    }
    out += "]";
  }
  out += ",\"counterexamples\":[";
  for (std::size_t i = 0; i < task.counterexamples.size(); ++i) {
    if (i > 0) out += ',';
    out += write_branch(task.counterexamples[i]);
  }
  out += "]}";
  return out;
}

std::string write_end_record(const StreamEnd& end) {
  std::string out =
      "{\"type\":\"end\",\"shard_index\":" + std::to_string(end.shard_index);
  out += ",\"tasks_emitted\":" + std::to_string(end.tasks_emitted);
  out += ",\"cancelled\":";
  out += end.cancelled ? "true" : "false";
  out += "}";
  return out;
}

namespace {

Expected<campaign::CertifyBranch> parse_branch(const JsonValue& object) {
  const auto bad = [](const std::string& what) {
    return Error{Error::Code::kInvalidInput, "stream: bad branch: " + what};
  };
  if (!object.is_object()) return bad("not an object");
  campaign::CertifyBranch branch;
  Error error;
  std::int32_t id = 0;
  FailureScenario& faults = branch.faults;
  if (!append_ids(object.find("dead"), faults.failed_at_start)) {
    return bad("dead must be an array of ids");
  }
  if (!append_ids(object.find("dead_links"), faults.failed_links_at_start)) {
    return bad("dead_links must be an array of ids");
  }
  if (const JsonValue* crashes = object.find("crashes")) {
    if (!crashes->is_array()) return bad("crashes must be an array");
    for (const JsonValue& item : crashes->items) {
      if (!item.is_object()) return bad("crash must be an object");
      if (!read_integer(item, "p", id, error, std::nullopt)) return error;
      FailureEvent event;
      event.processor = ProcessorId(id);
      event.time = read_time(item, "t", 0);
      faults.events.push_back(event);
    }
  }
  if (const JsonValue* deaths = object.find("link_crashes")) {
    if (!deaths->is_array()) return bad("link_crashes must be an array");
    for (const JsonValue& item : deaths->items) {
      if (!item.is_object()) return bad("link crash must be an object");
      if (!read_integer(item, "l", id, error, std::nullopt)) return error;
      LinkFailureEvent event;
      event.link = LinkId(id);
      event.time = read_time(item, "t", 0);
      faults.link_events.push_back(event);
    }
  }
  if (const JsonValue* silences = object.find("silences")) {
    if (!silences->is_array()) return bad("silences must be an array");
    for (const JsonValue& item : silences->items) {
      if (!item.is_object()) return bad("silence must be an object");
      if (!read_integer(item, "p", id, error, std::nullopt)) return error;
      SilentWindow window;
      window.processor = ProcessorId(id);
      window.from = read_time(item, "from", 0);
      window.to = read_time(item, "to", 0);
      faults.silent_windows.push_back(window);
    }
  }
  branch.outputs_lost = object.bool_or("lost", false);
  branch.response_time = read_time(object, "response", kInfinite);
  if (const JsonValue* violated = object.find("violated")) {
    if (!violated->is_array()) return bad("violated must be an array");
    for (const JsonValue& item : violated->items) {
      if (!item.is_string()) return bad("violated entries must be strings");
      branch.violated_constraints.push_back(item.string);
    }
  }
  return branch;
}

}  // namespace

Expected<StreamRecord> parse_record(std::string_view line) {
  auto parsed = parse_json(line);
  if (!parsed.has_value()) {
    return Error{Error::Code::kInvalidInput,
                 "stream: malformed record: " + parsed.error().message};
  }
  const JsonValue& object = parsed.value();
  if (!object.is_object()) {
    return Error{Error::Code::kInvalidInput,
                 "stream: record is not a JSON object"};
  }
  const std::string type = object.string_or("type", "");
  StreamRecord record;
  Error error;
  if (type == "meta") {
    record.kind = StreamRecord::Kind::kMeta;
    StreamMeta& meta = record.meta;
    if (!read_integer(object, "format", meta.format, error)) return error;
    if (meta.format != 1) {
      return Error{Error::Code::kInvalidInput,
                   "stream: unsupported format " +
                       std::to_string(meta.format)};
    }
    meta.plan_key = object.string_or("plan_key", "");
    if (!read_integer(object, "max_failures", meta.max_failures, error) ||
        !read_integer(object, "max_link_failures", meta.max_link_failures,
                      error) ||
        !read_integer(object, "max_silences", meta.max_silences, error) ||
        !read_integer(object, "subsets", meta.subsets, error) ||
        !read_integer(object, "link_subsets", meta.link_subsets, error) ||
        !read_integer(object, "tasks", meta.tasks, error) ||
        !read_integer(object, "shard_index", meta.shard_index, error) ||
        !read_integer(object, "shard_count", meta.shard_count, error) ||
        !read_integer(object, "max_counterexamples",
                      meta.max_counterexamples, error)) {
      return error;
    }
    meta.response_bound = read_time(object, "response_bound", kInfinite);
    meta.dedup = object.bool_or("dedup", true);
    if (const JsonValue* list = object.find("latency_constraints")) {
      if (!list->is_array()) {
        return Error{Error::Code::kInvalidInput,
                     "stream: latency_constraints must be an array"};
      }
      for (const JsonValue& item : list->items) {
        if (!item.is_object()) {
          return Error{Error::Code::kInvalidInput,
                       "stream: latency constraint must be an object"};
        }
        campaign::LatencyConstraint c;
        c.name = item.string_or("name", "");
        c.source_op = item.string_or("source", "");
        c.sink_op = item.string_or("sink", "");
        c.bound = read_time(item, "bound", kInfinite);
        meta.constraints.push_back(std::move(c));
      }
    }
    if (meta.shard_count == 0 || meta.shard_index >= meta.shard_count) {
      return Error{Error::Code::kInvalidInput,
                   "stream: meta has invalid shard assignment"};
    }
    return record;
  }
  if (type == "task") {
    record.kind = StreamRecord::Kind::kTask;
    campaign::CertifyTaskPartial& task = record.task;
    if (!read_integer(object, "task", task.task_index, error,
                      std::nullopt) ||
        !read_integer(object, "branches", task.branches, error) ||
        !read_integer(object, "forks", task.forks, error) ||
        !read_integer(object, "events_simulated", task.events_simulated,
                      error) ||
        !read_integer(object, "instants_kept", task.instants_kept, error) ||
        !read_integer(object, "instants_merged", task.instants_merged,
                      error) ||
        !read_integer(object, "total_counterexamples",
                      task.total_counterexamples, error)) {
      return error;
    }
    task.worst_response = read_time(object, "worst_response", 0);
    if (const JsonValue* worsts = object.find("worst_chain_latency")) {
      if (!worsts->is_array()) {
        return Error{Error::Code::kInvalidInput,
                     "stream: worst_chain_latency must be an array"};
      }
      for (const JsonValue& item : worsts->items) {
        if (item.is_null()) {
          task.worst_chain_latency.push_back(kInfinite);
        } else if (item.is_number()) {
          task.worst_chain_latency.push_back(item.number);
        } else {
          return Error{Error::Code::kInvalidInput,
                       "stream: worst_chain_latency entries must be numbers"};
        }
      }
    }
    if (const JsonValue* list = object.find("counterexamples")) {
      if (!list->is_array()) {
        return Error{Error::Code::kInvalidInput,
                     "stream: counterexamples must be an array"};
      }
      for (const JsonValue& item : list->items) {
        auto branch = parse_branch(item);
        if (!branch.has_value()) return branch.error();
        task.counterexamples.push_back(std::move(branch.value()));
      }
    }
    return record;
  }
  if (type == "end") {
    record.kind = StreamRecord::Kind::kEnd;
    if (!read_integer(object, "shard_index", record.end.shard_index,
                      error) ||
        !read_integer(object, "tasks_emitted", record.end.tasks_emitted,
                      error)) {
      return error;
    }
    record.end.cancelled = object.bool_or("cancelled", false);
    return record;
  }
  return Error{Error::Code::kInvalidInput,
               "stream: unknown record type \"" + type + "\""};
}

}  // namespace ftsched::service
