#include "sim/reliability.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

TEST(Reliability, DegenerateProbabilities) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  EXPECT_DOUBLE_EQ(analyze_reliability(schedule, 0.0).iteration_reliability,
                   1.0);
  // With every processor failed, outputs are certainly lost.
  EXPECT_DOUBLE_EQ(analyze_reliability(schedule, 1.0).iteration_reliability,
                   0.0);
}

TEST(Reliability, FaultToleranceBeatsBaseline) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule ft = schedule_solution1(ex.problem).value();
  const Schedule base = schedule_base(ex.problem).value();
  const double p = 0.05;
  const double r_ft = analyze_reliability(ft, p).iteration_reliability;
  const double r_base = analyze_reliability(base, p).iteration_reliability;
  EXPECT_GT(r_ft, r_base);
  // K=1 over 3 processors at p=0.05: reliability beyond surviving all.
  EXPECT_GT(r_ft, std::pow(1 - p, 3));
}

TEST(Reliability, GuaranteedBoundIsABound) {
  const OwnedProblem ex = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex.problem).value();
  for (const double p : {0.01, 0.1, 0.3}) {
    const ReliabilityReport report = analyze_reliability(schedule, p);
    EXPECT_LE(report.lower_bound, report.iteration_reliability + 1e-12);
    EXPECT_LE(report.iteration_reliability, 1.0 + 1e-12);
  }
}

TEST(Reliability, MaskedBySizeMatchesKGuarantee) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const ReliabilityReport report = analyze_reliability(schedule, 0.1);
  ASSERT_EQ(report.masked_by_size.size(), 4u);  // sizes 0..3
  // Everything up to K=1 masked.
  EXPECT_EQ(report.masked_by_size[0], (std::pair<std::size_t, std::size_t>{1, 1}));
  EXPECT_EQ(report.masked_by_size[1], (std::pair<std::size_t, std::size_t>{3, 3}));
  // Nothing of size 3 can be masked (all processors dead).
  EXPECT_EQ(report.masked_by_size[3].first, 0u);
}

TEST(Reliability, RejectsBadInput) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  EXPECT_THROW(analyze_reliability(schedule, -0.1), std::invalid_argument);
  EXPECT_THROW(analyze_reliability(schedule, 1.1), std::invalid_argument);
  // 2^17 subsets: past the 16-processor cap, refused before any simulation.
  workload::RandomProblemParams params;
  params.dag.operations = 4;
  params.processors = 17;
  const OwnedProblem wide = workload::random_problem(params);
  const Schedule wide_schedule = schedule_solution1(wide.problem).value();
  EXPECT_THROW(analyze_reliability(wide_schedule, 0.1),
               std::invalid_argument);
}

}  // namespace
}  // namespace ftsched
