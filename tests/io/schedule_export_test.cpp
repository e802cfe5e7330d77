#include "io/schedule_export.hpp"

#include <gtest/gtest.h>

#include "../obs/json_check.hpp"
#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched {
namespace {

TEST(ScheduleExport, JsonContainsEveryPlacement) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const std::string json = io::to_json(schedule);

  EXPECT_NE(json.find("\"makespan\": 9.4"), std::string::npos);
  EXPECT_NE(json.find("\"failures_tolerated\": 1"), std::string::npos);
  for (const Operation& op : ex.problem.algorithm->operations()) {
    EXPECT_NE(json.find("\"op\": \"" + op.name + "\""), std::string::npos);
  }
  EXPECT_NE(json.find("\"liveness\": false"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ScheduleExport, JsonEscapesControlCharactersInNames) {
  // read_problem takes any non-blank bytes as a name; the export must stay
  // valid JSON whatever they are.
  const std::string name = "B\x01" "x";
  const auto parsed = io::read_problem(
      "algorithm\n  operation I extio-in\n  operation " + name +
      "\n  operation O extio-out\n  dependency I " + name +
      "\n  dependency " + name + " O\narchitecture\n  processor P1\n"
      "  processor P2\n  bus can P1 P2\nexec\n  I * 1\n  " + name +
      " * 2\n  O * 1\ncomm\n  I->" + name + " * 0.5\n  " + name +
      "->O * 0.5\n");
  ASSERT_TRUE(parsed) << parsed.error().message;
  const Schedule schedule = schedule_solution1(parsed.value().problem).value();
  const std::string json = io::to_json(schedule);

  EXPECT_TRUE(testing::valid_json(json)) << json;
  EXPECT_NE(json.find("\"op\": \"B\\u0001x\""), std::string::npos) << json;
}

TEST(ScheduleExport, CsvRowsMatchScheduleContents) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const std::string csv = io::to_csv(schedule);

  std::size_t rows = 0;
  for (char c : csv) rows += c == '\n';
  std::size_t segments = 0;
  for (const ScheduledComm& comm : schedule.comms()) {
    segments += comm.segments.size();
  }
  EXPECT_EQ(rows, 1 + schedule.operations().size() + segments);
  EXPECT_EQ(csv.rfind("kind,entity,rank,resource,start,end,extra", 0), 0u);
  EXPECT_NE(csv.find("op,I,0,P1,0,1,main"), std::string::npos);
}

}  // namespace
}  // namespace ftsched
