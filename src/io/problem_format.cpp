#include "io/problem_format.hpp"

#include <optional>
#include <vector>

#include "core/text.hpp"
#include "io/cli_util.hpp"
#include "io/lexer.hpp"

namespace ftsched::io {

namespace {

using Tokens = std::vector<std::string_view>;

OperationKind parse_kind(std::string_view token, bool& ok) {
  ok = true;
  if (token == "comp") return OperationKind::kComp;
  if (token == "mem") return OperationKind::kMem;
  if (token == "extio-in") return OperationKind::kExtioIn;
  if (token == "extio-out") return OperationKind::kExtioOut;
  ok = false;
  return OperationKind::kComp;
}

class Parser {
 public:
  Expected<workload::OwnedProblem> run(std::string_view text) {
    algorithm_ = std::make_unique<AlgorithmGraph>();
    architecture_ = std::make_unique<ArchitectureGraph>();

    enum class Section { kNone, kAlgorithm, kArchitecture, kExec, kComm,
                         kProblem };
    Section section = Section::kNone;
    LineLexer lexer(text);
    while (lexer.next()) {
      const int line_number = lexer.line();
      const Tokens& tokens = lexer.tokens();
      const std::string_view head = tokens.front();
      if (head == "algorithm") {
        section = Section::kAlgorithm;
        continue;
      }
      if (head == "architecture") {
        section = Section::kArchitecture;
        continue;
      }
      if (head == "exec") {
        if (auto err = ensure_tables(line_number)) return *err;
        section = Section::kExec;
        continue;
      }
      if (head == "comm") {
        if (auto err = ensure_tables(line_number)) return *err;
        section = Section::kComm;
        continue;
      }
      if (head == "problem") {
        section = Section::kProblem;
        continue;
      }

      std::optional<Error> error;
      switch (section) {
        case Section::kNone:
          error = parse_error(line_number, "directive outside any section: ",
                              head);
          break;
        case Section::kAlgorithm:
          error = algorithm_line(line_number, tokens);
          break;
        case Section::kArchitecture:
          error = architecture_line(line_number, tokens);
          break;
        case Section::kExec:
          error = exec_line(line_number, tokens);
          break;
        case Section::kComm:
          error = comm_line(line_number, tokens);
          break;
        case Section::kProblem:
          error = problem_line(line_number, tokens);
          break;
      }
      if (error) return *error;
    }

    if (exec_ == nullptr) {
      // No exec/comm sections: empty tables (diagnosed by Problem::check).
      exec_ = std::make_unique<ExecTable>(*algorithm_, *architecture_);
      comm_ = std::make_unique<CommTable>(*algorithm_, *architecture_);
    }
    workload::OwnedProblem owned = workload::assemble(
        std::move(algorithm_), std::move(architecture_), std::move(exec_),
        std::move(comm_), tolerate_);
    owned.problem.deadline = deadline_;
    return owned;
  }

 private:
  std::optional<Error> ensure_tables(int line) {
    if (exec_ == nullptr) {
      if (algorithm_->operation_count() == 0 ||
          architecture_->processor_count() == 0) {
        return parse_error(line,
                           "exec/comm sections need the algorithm and "
                           "architecture sections first");
      }
      exec_ = std::make_unique<ExecTable>(*algorithm_, *architecture_);
      comm_ = std::make_unique<CommTable>(*algorithm_, *architecture_);
    }
    return std::nullopt;
  }

  std::optional<Error> algorithm_line(int line, const Tokens& t) {
    try {
      if (t[0] == "operation" && (t.size() == 2 || t.size() == 3)) {
        OperationKind kind = OperationKind::kComp;
        if (t.size() == 3) {
          bool ok = false;
          kind = parse_kind(t[2], ok);
          if (!ok) return parse_error(line, "unknown kind: ", t[2]);
        }
        algorithm_->add_operation(std::string(t[1]), kind);
        return std::nullopt;
      }
      if (t[0] == "dependency" && t.size() == 3) {
        const OperationId src = algorithm_->find_operation(t[1]);
        const OperationId dst = algorithm_->find_operation(t[2]);
        if (!src.valid()) return parse_error(line, "unknown operation ", t[1]);
        if (!dst.valid()) return parse_error(line, "unknown operation ", t[2]);
        algorithm_->add_dependency(src, dst);
        return std::nullopt;
      }
    } catch (const std::invalid_argument& ex) {
      return parse_error(line, ex.what());
    }
    return parse_error(line, "expected 'operation <name> [kind]' or "
                             "'dependency <src> <dst>'");
  }

  std::optional<Error> architecture_line(int line, const Tokens& t) {
    try {
      if (t[0] == "processor" && t.size() == 2) {
        architecture_->add_processor(std::string(t[1]));
        return std::nullopt;
      }
      if (t[0] == "link" && t.size() == 4) {
        const ProcessorId a = architecture_->find_processor(t[2]);
        const ProcessorId b = architecture_->find_processor(t[3]);
        if (!a.valid() || !b.valid()) {
          return parse_error(line, "unknown processor in link");
        }
        architecture_->add_link(std::string(t[1]), a, b);
        return std::nullopt;
      }
      if (t[0] == "bus" && t.size() >= 4) {
        std::vector<ProcessorId> endpoints;
        for (std::size_t i = 2; i < t.size(); ++i) {
          const ProcessorId p = architecture_->find_processor(t[i]);
          if (!p.valid()) {
            return parse_error(line, "unknown processor ", t[i]);
          }
          endpoints.push_back(p);
        }
        architecture_->add_bus(std::string(t[1]), std::move(endpoints));
        return std::nullopt;
      }
    } catch (const std::invalid_argument& ex) {
      return parse_error(line, ex.what());
    }
    return parse_error(line, "expected 'processor <name>', 'link <name> "
                             "<p> <q>' or 'bus <name> <p...>'");
  }

  std::optional<Error> exec_line(int line, const Tokens& t) {
    if (t.size() != 3) {
      return parse_error(line, "expected '<operation> <processor|*> <wcet>'");
    }
    const OperationId op = algorithm_->find_operation(t[0]);
    if (!op.valid()) return parse_error(line, "unknown operation ", t[0]);
    Time wcet = 0;
    if (parse_real(t[2], wcet) != ParseStatus::kOk) {
      return parse_error(line, "bad duration: ", t[2]);
    }
    try {
      if (t[1] == "*") {
        exec_->set_uniform(op, wcet);
      } else {
        const ProcessorId proc = architecture_->find_processor(t[1]);
        if (!proc.valid()) {
          return parse_error(line, "unknown processor ", t[1]);
        }
        exec_->set(op, proc, wcet);
      }
    } catch (const std::invalid_argument& ex) {
      return parse_error(line, ex.what());
    }
    return std::nullopt;
  }

  std::optional<Error> comm_line(int line, const Tokens& t) {
    if (t.size() != 3) {
      return parse_error(line, "expected '<dependency> <link|*> <duration>'");
    }
    DependencyId dep;
    for (const Dependency& candidate : algorithm_->dependencies()) {
      if (candidate.name == t[0]) {
        dep = candidate.id;
        break;
      }
    }
    if (!dep.valid()) return parse_error(line, "unknown dependency ", t[0]);
    Time duration = 0;
    if (parse_real(t[2], duration) != ParseStatus::kOk) {
      return parse_error(line, "bad duration: ", t[2]);
    }
    try {
      if (t[1] == "*") {
        comm_->set_uniform(dep, duration);
      } else {
        const LinkId link = architecture_->find_link(t[1]);
        if (!link.valid()) return parse_error(line, "unknown link ", t[1]);
        comm_->set(dep, link, duration);
      }
    } catch (const std::invalid_argument& ex) {
      return parse_error(line, ex.what());
    }
    return std::nullopt;
  }

  std::optional<Error> problem_line(int line, const Tokens& t) {
    if (t[0] == "tolerate" && t.size() == 2) {
      if (parse_number(t[1], tolerate_) != ParseStatus::kOk) {
        return parse_error(line, "bad failure count: ", t[1]);
      }
      return std::nullopt;
    }
    if (t[0] == "deadline" && t.size() == 2) {
      // A positive number or inf: no schedule meets a zero, negative or nan
      // deadline, so such a file is malformed, not merely infeasible.
      if (parse_time(t[1], deadline_) != ParseStatus::kOk) {
        return parse_error(line, "bad deadline: ", t[1]);
      }
      return std::nullopt;
    }
    return parse_error(line, "expected 'tolerate <k>' or 'deadline <t>'");
  }

  std::unique_ptr<AlgorithmGraph> algorithm_;
  std::unique_ptr<ArchitectureGraph> architecture_;
  std::unique_ptr<ExecTable> exec_;
  std::unique_ptr<CommTable> comm_;
  int tolerate_ = 0;
  Time deadline_ = kInfinite;
};

}  // namespace

Expected<workload::OwnedProblem> read_problem(std::string_view text) {
  return Parser{}.run(text);
}

std::string write_problem(const Problem& problem) {
  FTSCHED_REQUIRE(problem.algorithm && problem.architecture && problem.exec &&
                      problem.comm,
                  "write_problem needs a fully assembled problem");
  std::string out = "algorithm\n";
  for (const Operation& op : problem.algorithm->operations()) {
    out += "  operation " + op.name;
    if (op.kind != OperationKind::kComp) out += ' ' + to_string(op.kind);
    out += '\n';
  }
  for (const Dependency& dep : problem.algorithm->dependencies()) {
    out += "  dependency " + problem.algorithm->operation(dep.src).name +
           ' ' + problem.algorithm->operation(dep.dst).name + '\n';
  }

  out += "architecture\n";
  for (const Processor& proc : problem.architecture->processors()) {
    out += "  processor " + proc.name + '\n';
  }
  for (const Link& link : problem.architecture->links()) {
    out += link.kind == LinkKind::kBus ? "  bus " : "  link ";
    out += link.name;
    for (ProcessorId endpoint : link.endpoints) {
      out += ' ' + problem.architecture->processor(endpoint).name;
    }
    out += '\n';
  }

  out += "exec\n";
  for (const Operation& op : problem.algorithm->operations()) {
    for (const Processor& proc : problem.architecture->processors()) {
      const Time wcet = problem.exec->duration(op.id, proc.id);
      if (is_infinite(wcet)) continue;
      out += "  " + op.name + ' ' + proc.name + ' ' + time_to_string(wcet) +
             '\n';
    }
  }

  out += "comm\n";
  for (const Dependency& dep : problem.algorithm->dependencies()) {
    for (const Link& link : problem.architecture->links()) {
      const Time duration = problem.comm->duration(dep.id, link.id);
      if (is_infinite(duration)) continue;
      out += "  " + dep.name + ' ' + link.name + ' ' +
             time_to_string(duration) + '\n';
    }
  }

  out += "problem\n  tolerate " +
         std::to_string(problem.failures_to_tolerate) + '\n';
  if (!is_infinite(problem.deadline)) {
    out += "  deadline " + time_to_string(problem.deadline) + '\n';
  }
  return out;
}

}  // namespace ftsched::io
