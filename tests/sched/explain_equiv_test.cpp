// Explain-log checks: Golden.ExplainLogs pins exact digests of every step
// and candidate row the decision log records, plus the schedule's hash, on
// random problems and the paper's examples (taken from the engine that
// cached evaluations across steps); and recording the log leaves the
// schedule untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sched/explain.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

struct EquivCase {
  HeuristicKind kind;
  workload::ArchKind arch;
  int k;
  std::uint64_t seed;
};

workload::OwnedProblem make_problem(const EquivCase& c) {
  workload::RandomProblemParams params;
  params.dag.operations = 25;
  params.dag.width = 5;
  params.arch_kind = c.arch;
  params.processors = 4;
  params.failures_to_tolerate = c.k;
  params.ccr = 0.7;
  params.seed = c.seed;
  return workload::random_problem(params);
}

SchedulerOptions base_options(const EquivCase& c, const Problem& problem) {
  SchedulerOptions options;
  if (c.kind == HeuristicKind::kHybrid) {
    options.active_comm_deps.assign(problem.algorithm->dependency_count(),
                                    false);
    for (std::size_t i = 0; i < options.active_comm_deps.size(); i += 2) {
      options.active_comm_deps[i] = true;
    }
  }
  return options;
}

/// Recording the log must not perturb the schedule: same bytes with and
/// without the log attached.
TEST(ExplainEquivalence, ExplainRecordingDoesNotPerturbSchedule) {
  const EquivCase c{HeuristicKind::kSolution2,
                    workload::ArchKind::kFullyConnected, 2, 19};
  const workload::OwnedProblem ex = make_problem(c);

  SchedulerOptions quiet = base_options(c, ex.problem);
  const Expected<Schedule> silent = schedule(ex.problem, c.kind, quiet);
  ASSERT_TRUE(silent.has_value());

  ExplainLog log;
  SchedulerOptions loud = base_options(c, ex.problem);
  loud.explain = &log;
  const Expected<Schedule> logged = schedule(ex.problem, c.kind, loud);
  ASSERT_TRUE(logged.has_value());

  EXPECT_EQ(schedule_hash(silent.value()), schedule_hash(logged.value()));
  EXPECT_FALSE(log.steps.empty());
}

/// FNV-1a over the raw bits of every field of an explain log, then the
/// schedule's hash: exact, so a candidate row that moves by an ulp, changes
/// order or flips `kept` changes the digest.
std::uint64_t explain_digest(const ExplainLog& log, const Schedule& schedule) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  auto add_time = [&add](Time t) {
    std::uint64_t bits;
    std::memcpy(&bits, &t, sizeof bits);
    add(bits);
  };
  add_time(log.critical_path);
  add(log.steps.size());
  for (const ExplainStep& step : log.steps) {
    add(step.step);
    add(static_cast<std::uint64_t>(step.chosen.value()));
    add_time(step.urgency);
    add(step.candidates.size());
    for (const ExplainCandidate& c : step.candidates) {
      add(static_cast<std::uint64_t>(c.op.value()));
      add(static_cast<std::uint64_t>(c.proc.value()));
      add_time(c.start);
      add_time(c.duration);
      add_time(c.tail);
      add_time(c.penalty);
      add_time(c.sigma);
      add(c.kept ? 1 : 0);
    }
  }
  add(schedule_hash(schedule));
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(Golden, ExplainLogs) {
  // Digests of the explain logs and schedules of six random 25-operation
  // problems (every heuristic, bus and point-to-point, K = 0 to 2) and of
  // the paper's two examples under the three heuristics.
  const std::vector<EquivCase> cases = {
      {HeuristicKind::kBase, workload::ArchKind::kBus, 0, 7},
      {HeuristicKind::kSolution1, workload::ArchKind::kBus, 1, 19},
      {HeuristicKind::kSolution1, workload::ArchKind::kFullyConnected, 2, 19},
      {HeuristicKind::kSolution2, workload::ArchKind::kBus, 1, 31},
      {HeuristicKind::kSolution2, workload::ArchKind::kFullyConnected, 2, 31},
      {HeuristicKind::kHybrid, workload::ArchKind::kFullyConnected, 1, 43},
  };
  const std::vector<std::uint64_t> random_digests = {
      0x7f7d98275679bf94ULL, 0x9485841287c6bea2ULL,
      0x35f1f41f4ca9ca7bULL, 0xb80cfa41d8cafb06ULL,
      0xfab99c7bd2fd06d4ULL, 0xb9b7a70ce9b4479bULL};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const EquivCase& c = cases[i];
    const workload::OwnedProblem ex = make_problem(c);
    ExplainLog log;
    SchedulerOptions options = base_options(c, ex.problem);
    options.explain = &log;
    const Expected<Schedule> result = schedule(ex.problem, c.kind, options);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(hex(explain_digest(log, result.value())),
              hex(random_digests[i]))
        << to_string(c.kind) << " seed " << c.seed;
  }

  const workload::OwnedProblem ex1 = workload::paper_example1();
  const workload::OwnedProblem ex2 = workload::paper_example2();
  struct PaperCase {
    const char* name;
    const Problem* problem;
    HeuristicKind kind;
    std::uint64_t digest;
  };
  using enum HeuristicKind;
  const std::vector<PaperCase> paper = {
      {"example1 base", &ex1.problem, kBase,
       0xc985f8e9c43ca446ULL},
      {"example1 solution1", &ex1.problem, kSolution1,
       0x56bc2580bc570cb6ULL},
      {"example1 solution2", &ex1.problem, kSolution2,
       0xc6bfbead9a55f609ULL},
      {"example2 base", &ex2.problem, kBase,
       0x3d46f0f8488698ebULL},
      {"example2 solution1", &ex2.problem, kSolution1,
       0xbacfd4538787b238ULL},
      {"example2 solution2", &ex2.problem, kSolution2,
       0x1c8c1494ceab9b97ULL},
  };
  for (const PaperCase& c : paper) {
    ExplainLog log;
    SchedulerOptions options;
    options.explain = &log;
    const Expected<Schedule> result = schedule(*c.problem, c.kind, options);
    ASSERT_TRUE(result.has_value()) << c.name;
    EXPECT_EQ(hex(explain_digest(log, result.value())), hex(c.digest))
        << c.name;
  }
}

}  // namespace
}  // namespace ftsched
