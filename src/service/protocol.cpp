#include "service/protocol.hpp"

#include <cstdint>
#include <limits>

#include "service/json.hpp"

namespace ftsched::service {

Expected<Request> parse_request(std::string_view line) {
  auto parsed = parse_json(line);
  if (!parsed.has_value()) {
    return Error{Error::Code::kInvalidInput,
                 "request: " + parsed.error().message};
  }
  const JsonValue& object = parsed.value();
  if (!object.is_object()) {
    return Error{Error::Code::kInvalidInput,
                 "request: not a JSON object"};
  }
  const std::string type = object.string_or("type", "");
  Request request;
  request.id = object.string_or("id", "");
  if (type == "status") {
    request.kind = Request::Kind::kStatus;
    return request;
  }
  if (type == "shutdown") {
    request.kind = Request::Kind::kShutdown;
    return request;
  }
  if (type == "submit") {
    request.kind = Request::Kind::kSubmit;
    SubmitRequest& submit = request.submit;
    submit.id = request.id;
    submit.problem_path = object.string_or("problem", "");
    submit.problem_inline = object.string_or("problem_inline", "");
    if (submit.problem_path.empty() && submit.problem_inline.empty()) {
      return Error{Error::Code::kInvalidInput,
                   "request: submit needs \"problem\" or \"problem_inline\""};
    }
    if (!submit.problem_path.empty() && !submit.problem_inline.empty()) {
      return Error{
          Error::Code::kInvalidInput,
          "request: \"problem\" and \"problem_inline\" are exclusive"};
    }
    submit.heuristic = object.string_or("heuristic", "solution1");
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    const auto integer = [&](std::string_view key, std::int64_t lo,
                             std::int64_t fallback) {
      return checked_integer(object.find(key),
                             "request: " + std::string(key), lo, kIntMax,
                             fallback);
    };
    const Expected<std::int64_t> claim_k = integer("claim_k", -1, -1);
    const Expected<std::int64_t> links = integer("links", 0, 0);
    const Expected<std::int64_t> silences = integer("silences", 0, 0);
    const Expected<std::int64_t> threads = integer("threads", 0, 0);
    for (const Expected<std::int64_t>* field :
         {&claim_k, &links, &silences, &threads}) {
      if (!field->has_value()) return field->error();
    }
    submit.claim_k = static_cast<int>(*claim_k);
    submit.links = static_cast<int>(*links);
    submit.silences = static_cast<int>(*silences);
    submit.threads = static_cast<unsigned>(*threads);
    if (const JsonValue* bound = object.find("response_bound")) {
      if (bound->is_number() && bound->number > 0) {
        submit.response_bound = bound->number;
      } else if (!bound->is_null()) {
        return Error{Error::Code::kInvalidInput,
                     "request: response_bound must be a positive number"};
      }
    }
    if (const JsonValue* list = object.find("latency_constraints")) {
      if (!list->is_array()) {
        return Error{Error::Code::kInvalidInput,
                     "request: latency_constraints must be an array"};
      }
      for (const JsonValue& item : list->items) {
        if (!item.is_object()) {
          return Error{Error::Code::kInvalidInput,
                       "request: latency constraint must be an object"};
        }
        campaign::LatencyConstraint c;
        c.name = item.string_or("name", "");
        c.source_op = item.string_or("source", "");
        c.sink_op = item.string_or("sink", "");
        if (c.name.empty() || c.source_op.empty() || c.sink_op.empty()) {
          return Error{Error::Code::kInvalidInput,
                       "request: latency constraint needs \"name\", "
                       "\"source\", and \"sink\""};
        }
        const JsonValue* bound = item.find("bound");
        if (bound == nullptr || !bound->is_number() || !(bound->number > 0)) {
          return Error{Error::Code::kInvalidInput,
                       "request: latency constraint \"" + c.name +
                           "\" needs a positive \"bound\""};
        }
        c.bound = bound->number;
        submit.latency_constraints.push_back(std::move(c));
      }
    }
    submit.deadline_ms = object.number_or("deadline_ms", 0);
    if (submit.deadline_ms < 0) {
      return Error{Error::Code::kInvalidInput,
                   "request: deadline_ms must be >= 0"};
    }
    submit.certificate_out = object.string_or("certificate_out", "");
    return request;
  }
  return Error{Error::Code::kInvalidInput,
               "request: unknown type \"" + type + "\""};
}

}  // namespace ftsched::service
