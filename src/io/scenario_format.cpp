#include "io/scenario_format.hpp"

#include <optional>
#include <vector>

#include "core/time.hpp"
#include "io/cli_util.hpp"
#include "io/lexer.hpp"

namespace ftsched::io {

namespace {

using Tokens = std::vector<std::string_view>;

/// Parses an optional trailing "@N" iteration token.
std::optional<Error> parse_at(const Tokens& tokens, std::size_t index,
                              int line, int& iteration) {
  iteration = 0;
  if (index >= tokens.size()) return std::nullopt;
  const std::string_view token = tokens[index];
  if (!token.starts_with('@') ||
      parse_number(token.substr(1), iteration) != ParseStatus::kOk) {
    return parse_error(line, "expected @<iteration>, got '", token, "'");
  }
  return std::nullopt;
}

}  // namespace

std::string write_scenario(const MissionPlan& plan,
                           const ArchitectureGraph& arch) {
  std::string out = "scenario\n";
  out += "  iterations " + std::to_string(plan.iterations) + "\n";
  for (const ProcessorId proc : plan.dead_at_start) {
    out += "  dead " + arch.processor(proc).name + "\n";
  }
  for (const MissionFailure& failure : plan.failures) {
    out += "  crash " + arch.processor(failure.event.processor).name + " " +
           time_exact(failure.event.time) + " @" +
           std::to_string(failure.iteration) + "\n";
  }
  for (const MissionSilence& silence : plan.silences) {
    out += "  silent " + arch.processor(silence.window.processor).name + " " +
           time_exact(silence.window.from) + " " +
           time_exact(silence.window.to) + " @" +
           std::to_string(silence.iteration) + "\n";
  }
  for (const LinkId link : plan.dead_links_at_start) {
    out += "  link-dead " + arch.link(link).name + "\n";
  }
  for (const MissionLinkFailure& failure : plan.link_failures) {
    out += "  link-crash " + arch.link(failure.event.link).name + " " +
           time_exact(failure.event.time) + " @" +
           std::to_string(failure.iteration) + "\n";
  }
  for (const ProcessorId proc : plan.suspected_at_start) {
    out += "  suspected " + arch.processor(proc).name + "\n";
  }
  return out;
}

Expected<MissionPlan> read_scenario(std::string_view text,
                                    const ArchitectureGraph& arch) {
  MissionPlan plan;
  bool in_scenario = false;
  // Every iteration an event targets; validated against plan.iterations at
  // the end so directive order does not matter.
  int max_iteration = 0;

  LineLexer lexer(text);
  while (lexer.next()) {
    const int line_number = lexer.line();
    const Tokens& tokens = lexer.tokens();
    const std::string_view head = tokens.front();
    if (head == "scenario") {
      in_scenario = true;
      continue;
    }
    if (!in_scenario) {
      return parse_error(line_number, "directive before 'scenario' header: ",
                         head);
    }

    int iteration = 0;
    if (head == "iterations") {
      if (tokens.size() != 2 ||
          parse_number(tokens[1], plan.iterations) != ParseStatus::kOk ||
          plan.iterations < 1) {
        return parse_error(line_number, "expected: iterations <count >= 1>");
      }
    } else if (head == "dead" || head == "suspected") {
      if (tokens.size() != 2) {
        return parse_error(line_number, "expected: ", head, " <processor>");
      }
      const ProcessorId proc = arch.find_processor(tokens[1]);
      if (!proc.valid()) {
        return parse_error(line_number, "unknown processor ", tokens[1]);
      }
      (head == "dead" ? plan.dead_at_start : plan.suspected_at_start)
          .push_back(proc);
    } else if (head == "crash") {
      Time time = 0;
      if (tokens.size() < 3 || tokens.size() > 4 ||
          parse_instant(tokens[2], time) != ParseStatus::kOk) {
        return parse_error(line_number,
                           "expected: crash <processor> <time> [@iter]");
      }
      const ProcessorId proc = arch.find_processor(tokens[1]);
      if (!proc.valid()) {
        return parse_error(line_number, "unknown processor ", tokens[1]);
      }
      if (auto err = parse_at(tokens, 3, line_number, iteration)) return *err;
      max_iteration = std::max(max_iteration, iteration);
      plan.failures.push_back(
          MissionFailure{iteration, FailureEvent{proc, time}});
    } else if (head == "silent") {
      Time from = 0;
      Time to = 0;
      if (tokens.size() < 4 || tokens.size() > 5 ||
          parse_instant(tokens[2], from) != ParseStatus::kOk ||
          parse_instant(tokens[3], to) != ParseStatus::kOk ||
          !time_lt(from, to)) {
        return parse_error(
            line_number,
            "expected: silent <processor> <from> <to> [@iter] with from < to");
      }
      const ProcessorId proc = arch.find_processor(tokens[1]);
      if (!proc.valid()) {
        return parse_error(line_number, "unknown processor ", tokens[1]);
      }
      if (auto err = parse_at(tokens, 4, line_number, iteration)) return *err;
      max_iteration = std::max(max_iteration, iteration);
      plan.silences.push_back(
          MissionSilence{iteration, SilentWindow{proc, from, to}});
    } else if (head == "link-dead") {
      if (tokens.size() != 2) {
        return parse_error(line_number, "expected: link-dead <link>");
      }
      const LinkId id = arch.find_link(tokens[1]);
      if (!id.valid()) {
        return parse_error(line_number, "unknown link ", tokens[1]);
      }
      plan.dead_links_at_start.push_back(id);
    } else if (head == "link-crash") {
      Time time = 0;
      if (tokens.size() < 3 || tokens.size() > 4 ||
          parse_instant(tokens[2], time) != ParseStatus::kOk) {
        return parse_error(line_number,
                           "expected: link-crash <link> <time> [@iter]");
      }
      const LinkId id = arch.find_link(tokens[1]);
      if (!id.valid()) {
        return parse_error(line_number, "unknown link ", tokens[1]);
      }
      if (auto err = parse_at(tokens, 3, line_number, iteration)) return *err;
      max_iteration = std::max(max_iteration, iteration);
      plan.link_failures.push_back(
          MissionLinkFailure{iteration, LinkFailureEvent{id, time}});
    } else {
      return parse_error(line_number, "unknown directive: ", head);
    }
  }

  if (!in_scenario) {
    return Error{Error::Code::kInvalidInput, "missing 'scenario' header"};
  }
  if (max_iteration >= plan.iterations) {
    return Error{Error::Code::kInvalidInput,
                 "an event targets iteration " +
                     std::to_string(max_iteration) + " but the mission has " +
                     std::to_string(plan.iterations) + " iteration(s)"};
  }
  return plan;
}

}  // namespace ftsched::io
