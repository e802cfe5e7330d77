#include "io/problem_format.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched {
namespace {

constexpr const char* kSample = R"(
# the paper's example 1, hand-written
algorithm
  operation I extio-in
  operation A
  operation B
  operation C
  operation D
  operation E
  operation O extio-out
  dependency I A
  dependency A B
  dependency A C
  dependency A D
  dependency B E
  dependency C E
  dependency D E
  dependency E O
architecture
  processor P1
  processor P2
  processor P3
  bus can P1 P2 P3
exec
  I P1 1
  I P2 1
  A * 2
  B P1 3
  B P2 1.5
  B P3 1.5
  C P1 2
  C P2 3
  C P3 1
  D P1 3
  D P2 1
  D P3 1
  E * 1
  O P1 1.5
  O P2 1.5
comm
  I->A * 1.25
  A->B * 0.5
  A->C * 0.5
  A->D * 1
  B->E * 0.5
  C->E * 0.6
  D->E * 0.8
  E->O * 1
problem
  tolerate 1
)";

TEST(ProblemFormat, ParsesExample1AndSchedulesIdentically) {
  const auto parsed = io::read_problem(kSample);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_TRUE(parsed->problem.check().empty());
  EXPECT_EQ(parsed->problem.failures_to_tolerate, 1);

  // The parsed problem yields the same Figure-17 schedule as the built-in.
  const Schedule schedule = schedule_solution1(parsed->problem).value();
  EXPECT_DOUBLE_EQ(schedule.makespan(), 9.4);
}

TEST(ProblemFormat, RoundTrip) {
  const workload::OwnedProblem original = workload::paper_example2();
  const std::string text = io::write_problem(original.problem);
  const auto reparsed = io::read_problem(text);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().message;

  EXPECT_EQ(reparsed->algorithm->operation_count(),
            original.algorithm->operation_count());
  EXPECT_EQ(reparsed->algorithm->dependency_count(),
            original.algorithm->dependency_count());
  EXPECT_EQ(reparsed->architecture->processor_count(),
            original.architecture->processor_count());
  EXPECT_EQ(reparsed->architecture->link_count(),
            original.architecture->link_count());
  EXPECT_EQ(reparsed->problem.failures_to_tolerate,
            original.problem.failures_to_tolerate);
  // Same schedule from both.
  EXPECT_DOUBLE_EQ(schedule_solution2(reparsed->problem)->makespan(),
                   schedule_solution2(original.problem)->makespan());
}

TEST(ProblemFormat, RoundTripPreservesDeadline) {
  workload::OwnedProblem ex = workload::paper_example1();
  ex.problem.deadline = 12.5;
  const auto reparsed = io::read_problem(io::write_problem(ex.problem));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_DOUBLE_EQ(reparsed->problem.deadline, 12.5);
}

TEST(ProblemFormat, ReportsErrorsWithLineNumbers) {
  const auto unknown_op = io::read_problem(
      "algorithm\n  operation A\n  dependency A Z\n");
  ASSERT_FALSE(unknown_op.has_value());
  EXPECT_NE(unknown_op.error().message.find("line 3"), std::string::npos);
  EXPECT_NE(unknown_op.error().message.find("unknown operation Z"),
            std::string::npos);

  const auto bad_kind =
      io::read_problem("algorithm\n  operation A gizmo\n");
  ASSERT_FALSE(bad_kind.has_value());
  EXPECT_NE(bad_kind.error().message.find("unknown kind"),
            std::string::npos);

  const auto bad_duration = io::read_problem(
      "algorithm\n  operation A\narchitecture\n  processor P1\n"
      "  processor P2\n  bus b P1 P2\nexec\n  A P1 fast\n");
  ASSERT_FALSE(bad_duration.has_value());
  EXPECT_NE(bad_duration.error().message.find("bad duration"),
            std::string::npos);

  const auto orphan = io::read_problem("  operation A\n");
  ASSERT_FALSE(orphan.has_value());
  EXPECT_NE(orphan.error().message.find("outside any section"),
            std::string::npos);

  const auto premature = io::read_problem("exec\n");
  ASSERT_FALSE(premature.has_value());

  const auto negative_k = io::read_problem("problem\n  tolerate -1\n");
  ASSERT_FALSE(negative_k.has_value());
}

TEST(ProblemFormat, DeadlineIsAPositiveNumberOrInf) {
  const std::string head = "problem\n  tolerate 0\n  deadline ";
  for (const char* ok : {"12.5", "1e-3", "inf"}) {
    const auto parsed = io::read_problem(head + ok + "\n");
    EXPECT_TRUE(parsed.has_value()) << ok;
  }
  EXPECT_TRUE(is_infinite(io::read_problem(head + "inf\n")->problem.deadline));
  for (const char* bad : {"nan", "-nan", "-5", "0", "-0", "-inf", "1e999",
                          "soon"}) {
    const auto parsed = io::read_problem(head + bad + "\n");
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.error().message,
              std::string("line 3: bad deadline: ") + bad);
  }
}

TEST(ProblemFormat, ShippedExampleFileMatchesBuiltin) {
  // data/example1.ft is the file users start from; it must stay in sync
  // with the built-in paper example (same Figure-17 schedule).
  std::ifstream file(FTSCHED_SOURCE_DIR "/data/example1.ft");
  ASSERT_TRUE(file.good()) << "data/example1.ft missing";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto parsed = io::read_problem(buffer.str());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_TRUE(parsed->problem.check().empty());
  EXPECT_DOUBLE_EQ(schedule_solution1(parsed->problem)->makespan(), 9.4);
}

TEST(ProblemFormat, CommentsAndBlankLinesIgnored) {
  const auto parsed = io::read_problem(
      "# header\n\nalgorithm\n  operation A  # trailing comment\n");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->algorithm->operation_count(), 1u);
}

TEST(ProblemFormat, InfDurationRejectedByCommAcceptedByExec) {
  // exec accepts 'inf' ("not allowed here"); comm requires finite values.
  const char* base =
      "algorithm\n  operation A\n  operation B\n  dependency A B\n"
      "architecture\n  processor P1\n  processor P2\n  bus b P1 P2\n";
  const auto exec_inf =
      io::read_problem(std::string(base) + "exec\n  A P1 inf\n");
  EXPECT_TRUE(exec_inf.has_value());
  const auto comm_inf =
      io::read_problem(std::string(base) + "comm\n  A->B * inf\n");
  EXPECT_FALSE(comm_inf.has_value());
}

}  // namespace
}  // namespace ftsched
