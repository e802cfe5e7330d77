// The scenario reproducer format: write/read round trips, hand-written
// input parses, and malformed input fails with a line-numbered error.
#include <gtest/gtest.h>

#include <string>

#include "campaign/scenario_gen.hpp"
#include "io/scenario_format.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::io {
namespace {

const ArchitectureGraph& example1_arch() {
  static const workload::OwnedProblem ex = workload::paper_example1();
  return *ex.problem.architecture;
}

MissionPlan full_plan() {
  MissionPlan plan;
  plan.iterations = 3;
  plan.dead_at_start.push_back(ProcessorId(1));
  plan.failures.push_back(
      MissionFailure{1, FailureEvent{ProcessorId(2), 4.25}});
  plan.silences.push_back(
      MissionSilence{0, SilentWindow{ProcessorId(0), 2.0, 4.5}});
  plan.link_failures.push_back(
      MissionLinkFailure{2, LinkFailureEvent{LinkId(0), 3.0}});
  plan.dead_links_at_start.push_back(LinkId(0));
  plan.suspected_at_start.push_back(ProcessorId(0));
  return plan;
}

TEST(ScenarioFormat, RoundTripsEveryEventClass) {
  const ArchitectureGraph& arch = example1_arch();
  const MissionPlan plan = full_plan();
  const std::string text = write_scenario(plan, arch);
  const Expected<MissionPlan> parsed = read_scenario(text, arch);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->iterations, 3);
  ASSERT_EQ(parsed->dead_at_start.size(), 1u);
  EXPECT_EQ(parsed->dead_at_start[0], ProcessorId(1));
  ASSERT_EQ(parsed->failures.size(), 1u);
  EXPECT_EQ(parsed->failures[0].iteration, 1);
  EXPECT_EQ(parsed->failures[0].event.processor, ProcessorId(2));
  EXPECT_DOUBLE_EQ(parsed->failures[0].event.time, 4.25);
  ASSERT_EQ(parsed->silences.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->silences[0].window.from, 2.0);
  EXPECT_DOUBLE_EQ(parsed->silences[0].window.to, 4.5);
  ASSERT_EQ(parsed->link_failures.size(), 1u);
  EXPECT_EQ(parsed->link_failures[0].iteration, 2);
  ASSERT_EQ(parsed->dead_links_at_start.size(), 1u);
  EXPECT_EQ(parsed->dead_links_at_start[0], LinkId(0));
  ASSERT_EQ(parsed->suspected_at_start.size(), 1u);
  // Serialization is canonical: writing the parsed plan reproduces the
  // text bit-exactly.
  EXPECT_EQ(write_scenario(parsed.value(), arch), text);
}

TEST(ScenarioFormat, TimesRoundTripBitExactly) {
  const ArchitectureGraph& arch = example1_arch();
  MissionPlan plan;
  plan.iterations = 1;
  // An instant with no short decimal representation.
  const Time awkward = 1.0 / 3.0 + 1e-13;
  plan.failures.push_back(
      MissionFailure{0, FailureEvent{ProcessorId(0), awkward}});
  const Expected<MissionPlan> parsed =
      read_scenario(write_scenario(plan, arch), arch);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->failures[0].event.time, awkward);  // exact, not approx
}

TEST(ScenarioFormat, ParsesHandWrittenInput) {
  const std::string text =
      "# a comment\n"
      "scenario\n"
      "\n"
      "  iterations 2\n"
      "  dead P2\n"
      "  crash P3 4.25 @1\n"
      "  silent P1 2 4.5\n"
      "  suspected P1\n";
  const Expected<MissionPlan> parsed =
      read_scenario(text, example1_arch());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->iterations, 2);
  ASSERT_EQ(parsed->failures.size(), 1u);
  EXPECT_EQ(parsed->failures[0].iteration, 1);
  // '@N' omitted defaults to iteration 0.
  ASSERT_EQ(parsed->silences.size(), 1u);
  EXPECT_EQ(parsed->silences[0].iteration, 0);
}

TEST(ScenarioFormat, RejectsMalformedInput) {
  const ArchitectureGraph& arch = example1_arch();
  const auto expect_error = [&](const std::string& text) {
    const Expected<MissionPlan> parsed = read_scenario(text, arch);
    EXPECT_FALSE(parsed.has_value()) << text;
  };
  // Per-line errors carry the offending line number.
  const Expected<MissionPlan> bad = read_scenario("scenario\n  dead P9\n",
                                                  arch);
  ASSERT_FALSE(bad.has_value());
  EXPECT_NE(bad.error().message.find("line 2"), std::string::npos)
      << bad.error().message;
  expect_error("dead P1\n");                          // missing header
  expect_error("scenario\n  dead P9\n");              // unknown processor
  expect_error("scenario\n  crash P1\n");             // missing time
  expect_error("scenario\n  crash P1 x\n");           // malformed time
  expect_error("scenario\n  crash P1 -1\n");          // negative time
  expect_error("scenario\n  silent P1 5 2\n");        // from >= to
  expect_error("scenario\n  crash P1 1 @5\n");        // past iterations
  expect_error("scenario\n  iterations 0\n");         // no iterations
  expect_error("scenario\n  link-dead nosuch\n");     // unknown link
  expect_error("scenario\n  frobnicate P1\n");        // unknown directive
  // Instants must be finite and >= 0: an infinite crash never fires.
  for (const std::string instant : {"inf", "infinity", "nan", "-1"}) {
    expect_error("scenario\n  crash P1 " + instant + "\n");
    expect_error("scenario\n  link-crash bus " + instant + "\n");
    expect_error("scenario\n  silent P1 " + instant + " 5\n");
    expect_error("scenario\n  silent P1 1 " + instant + "\n");
  }
}

TEST(ScenarioFormat, PropertyRandomPlansOfEveryFaultClassRoundTrip) {
  // Property: for any plan the campaign generator can draw — the same
  // distribution whose shrunk counterexamples land in tests/ as
  // reproducers — parse(emit(plan)) is lossless and emit is a canonical
  // form (emit . parse . emit == emit). Times must survive bit-exactly:
  // generator instants are full-precision doubles with no short decimal
  // form, so this exercises the round-trip float encoding on every line
  // class, not just the hand-picked values above.
  static const workload::OwnedProblem ex = workload::paper_example1();
  const ArchitectureGraph& arch = *ex.problem.architecture;
  const Schedule schedule = schedule_solution1(ex.problem).value();

  campaign::CampaignSpec spec;
  spec.max_iterations = 4;
  spec.over_budget_fraction = 0.25;
  spec.silence_probability = 0.4;
  spec.suspect_probability = 0.4;
  spec.link_failure_probability = 0.4;
  const campaign::ScenarioGenerator gen(schedule, spec, 2026);

  std::size_t dead = 0, crashes = 0, silences = 0, link_dead = 0,
              link_crashes = 0, suspects = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    const MissionPlan plan = gen.scenario(i).plan;
    dead += plan.dead_at_start.size();
    crashes += plan.failures.size();
    silences += plan.silences.size();
    link_dead += plan.dead_links_at_start.size();
    link_crashes += plan.link_failures.size();
    suspects += plan.suspected_at_start.size();

    const std::string text = write_scenario(plan, arch);
    const Expected<MissionPlan> parsed = read_scenario(text, arch);
    ASSERT_TRUE(parsed.has_value())
        << "scenario " << i << ": " << parsed.error().message << "\n"
        << text;
    EXPECT_EQ(write_scenario(parsed.value(), arch), text) << "scenario " << i;

    // The canonical text already proves structural equality; the exact
    // (==, not near) time comparisons prove the encoding is bit-faithful.
    ASSERT_EQ(parsed->failures.size(), plan.failures.size());
    for (std::size_t f = 0; f < plan.failures.size(); ++f) {
      EXPECT_EQ(parsed->failures[f].event.time, plan.failures[f].event.time);
    }
    ASSERT_EQ(parsed->silences.size(), plan.silences.size());
    for (std::size_t s = 0; s < plan.silences.size(); ++s) {
      EXPECT_EQ(parsed->silences[s].window.from, plan.silences[s].window.from);
      EXPECT_EQ(parsed->silences[s].window.to, plan.silences[s].window.to);
    }
    ASSERT_EQ(parsed->link_failures.size(), plan.link_failures.size());
    for (std::size_t l = 0; l < plan.link_failures.size(); ++l) {
      EXPECT_EQ(parsed->link_failures[l].event.time,
                plan.link_failures[l].event.time);
    }
    EXPECT_EQ(parsed->dead_at_start, plan.dead_at_start);
    EXPECT_EQ(parsed->dead_links_at_start, plan.dead_links_at_start);
    EXPECT_EQ(parsed->suspected_at_start, plan.suspected_at_start);
  }
  // The corpus really covered all six fault classes.
  EXPECT_GT(dead, 0u);
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(silences, 0u);
  EXPECT_GT(link_dead, 0u);
  EXPECT_GT(link_crashes, 0u);
  EXPECT_GT(suspects, 0u);
}

TEST(ScenarioFormat, EmptyPlanRoundTrips) {
  const ArchitectureGraph& arch = example1_arch();
  MissionPlan plan;
  plan.iterations = 1;
  const Expected<MissionPlan> parsed =
      read_scenario(write_scenario(plan, arch), arch);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->event_count(), 0u);
  EXPECT_EQ(parsed->iterations, 1);
}

}  // namespace
}  // namespace ftsched::io
