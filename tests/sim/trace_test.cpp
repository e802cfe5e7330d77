#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "sched/heuristics.hpp"
#include "sim/failure.hpp"
#include "sim/simulator.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched {
namespace {

TEST(Trace, QueriesOverHandBuiltEvents) {
  Trace trace;
  trace.record({TraceEvent::Kind::kOpStart, 1.0, ProcessorId{0}, {},
                OperationId{0}, 0, {}, {}});
  trace.record({TraceEvent::Kind::kOpEnd, 2.0, ProcessorId{0}, {},
                OperationId{0}, 0, {}, {}});
  trace.record({TraceEvent::Kind::kOpEnd, 3.0, ProcessorId{1}, {},
                OperationId{0}, 1, {}, {}});
  trace.record({TraceEvent::Kind::kTimeout, 2.5, ProcessorId{1},
                ProcessorId{0}, {}, 0, DependencyId{0}, {}});

  EXPECT_EQ(trace.count(TraceEvent::Kind::kOpEnd), 2u);
  EXPECT_EQ(trace.count(TraceEvent::Kind::kTimeout), 1u);
  EXPECT_EQ(trace.count(TraceEvent::Kind::kDrop), 0u);
  EXPECT_DOUBLE_EQ(trace.op_end(OperationId{0}, ProcessorId{0}), 2.0);
  EXPECT_DOUBLE_EQ(trace.op_end(OperationId{0}, ProcessorId{1}), 3.0);
  EXPECT_TRUE(is_infinite(trace.op_end(OperationId{0}, ProcessorId{2})));
}

TEST(Trace, TextListingNamesEntities) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  const IterationResult result = simulator.run(FailureScenario::crash(
      ex.problem.architecture->find_processor("P2"), 3.2));
  const std::string text = result.trace.to_text(
      *ex.problem.algorithm, *ex.problem.architecture);
  EXPECT_NE(text.find("op-start"), std::string::npos);
  EXPECT_NE(text.find("transfer-end"), std::string::npos);
  EXPECT_NE(text.find("failure"), std::string::npos);
  EXPECT_NE(text.find("timeout"), std::string::npos);
  EXPECT_NE(text.find("election"), std::string::npos);
  EXPECT_NE(text.find("on P2"), std::string::npos);
  EXPECT_NE(text.find("via bus"), std::string::npos);
}

TEST(TraceEventKind, Names) {
  EXPECT_EQ(to_string(TraceEvent::Kind::kOpStart), "op-start");
  EXPECT_EQ(to_string(TraceEvent::Kind::kOpEnd), "op-end");
  EXPECT_EQ(to_string(TraceEvent::Kind::kTransferStart), "transfer-start");
  EXPECT_EQ(to_string(TraceEvent::Kind::kTransferEnd), "transfer-end");
  EXPECT_EQ(to_string(TraceEvent::Kind::kTimeout), "timeout");
  EXPECT_EQ(to_string(TraceEvent::Kind::kElection), "election");
  EXPECT_EQ(to_string(TraceEvent::Kind::kFailure), "failure");
  EXPECT_EQ(to_string(TraceEvent::Kind::kDrop), "drop");
}

TEST(FailureSubsets, EnumeratesBySize) {
  const auto subsets = failure_subsets(4, 2);
  // C(4,1) + C(4,2) = 4 + 6.
  EXPECT_EQ(subsets.size(), 10u);
  for (const auto& subset : subsets) {
    EXPECT_GE(subset.size(), 1u);
    EXPECT_LE(subset.size(), 2u);
    // Strictly ascending ids, no duplicates.
    for (std::size_t i = 1; i < subset.size(); ++i) {
      EXPECT_LT(subset[i - 1], subset[i]);
    }
  }
  EXPECT_EQ(failure_subsets(3, 3).size(), 7u);  // 2^3 - 1
  EXPECT_TRUE(failure_subsets(3, 0).empty());
  // Sizes ascending, lexicographic within a size: the certifier's
  // dead-at-start task order (id_subsets).
  const ProcessorId p0{0}, p1{1}, p2{2};
  EXPECT_EQ(failure_subsets(3, 2),
            (std::vector<std::vector<ProcessorId>>{
                {p0}, {p1}, {p2}, {p0, p1}, {p0, p2}, {p1, p2}}));
  EXPECT_EQ(id_subsets<LinkId>(2, 0, 2),
            (std::vector<std::vector<LinkId>>{
                {}, {LinkId{0}}, {LinkId{1}}, {LinkId{0}, LinkId{1}}}));
}

TEST(FailureScenario, Helpers) {
  const FailureScenario none = FailureScenario::none();
  EXPECT_TRUE(none.events.empty() && none.failed_at_start.empty());
  const FailureScenario crash =
      FailureScenario::crash(ProcessorId{1}, 2.5);
  ASSERT_EQ(crash.events.size(), 1u);
  EXPECT_EQ(crash.events.front().processor, ProcessorId{1});
  EXPECT_DOUBLE_EQ(crash.events.front().time, 2.5);
  const FailureScenario dead =
      FailureScenario::dead_from_start({ProcessorId{0}, ProcessorId{2}});
  EXPECT_EQ(dead.failed_at_start,
            (std::vector<ProcessorId>{ProcessorId{0}, ProcessorId{2}}));
}

}  // namespace
}  // namespace ftsched
