// The campaign's metrics are a pure function of (schedule, options): read
// once off the per-chunk tallies folded in chunk-index order, with no
// wall-clock content — so any thread count yields byte-identical JSON.
#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "json_check.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::campaign {
namespace {

CampaignOptions small_campaign(unsigned threads) {
  CampaignOptions options;
  options.scenarios = 600;
  options.seed = 2024;
  options.threads = threads;
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;
  return options;
}

TEST(CampaignMetrics, IdenticalAcrossThreadCounts) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();

  const CampaignReport one = run_campaign(schedule, small_campaign(1));
  for (const unsigned threads : {2u, 4u, 8u}) {
    const CampaignReport many =
        run_campaign(schedule, small_campaign(threads));
    EXPECT_EQ(one.metrics, many.metrics) << threads << " threads";
    EXPECT_EQ(one.metrics.to_json(), many.metrics.to_json())
        << threads << " threads";
  }
}

TEST(CampaignMetrics, CountersAgreeWithTheReport) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const CampaignReport report = run_campaign(schedule, small_campaign(2));

  const obs::MetricsSnapshot& m = report.metrics;
  EXPECT_EQ(m.counters.at("campaign.scenarios"), report.scenarios_run);
  EXPECT_EQ(m.counters.at("campaign.within_contract"),
            report.within_contract);
  EXPECT_EQ(m.counters.count("campaign.violations") != 0
                ? m.counters.at("campaign.violations")
                : 0u,
            report.total_violations);
  EXPECT_EQ(m.counters.count("campaign.expected_losses") != 0
                ? m.counters.at("campaign.expected_losses")
                : 0u,
            report.expected_losses);
  // Every scenario contributes exactly one plan-size observation.
  EXPECT_EQ(m.histograms.at("campaign.plan_events").total,
            report.scenarios_run);
  EXPECT_TRUE(testing::valid_json(m.to_json())) << m.to_json();
}

TEST(CampaignMetrics, EmptyCampaignYieldsEmptyMetrics) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  CampaignOptions options = small_campaign(1);
  options.scenarios = 0;
  const CampaignReport report = run_campaign(schedule, options);
  EXPECT_TRUE(report.metrics.counters.empty());
  EXPECT_TRUE(testing::valid_json(report.metrics.to_json()));
}

}  // namespace
}  // namespace ftsched::campaign
