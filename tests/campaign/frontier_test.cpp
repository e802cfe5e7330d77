// The (K, L, S) frontier sweep: the lattice walk must be a pure function
// of (schedule, spec) — byte-identical JSON for any thread count —
// implied refutations must really be dominated by an explored one, every
// certified point must sit under the static GLS ceiling, and the paper's
// named chain constraints must hold at the published solutions' design
// points.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/certify.hpp"
#include "campaign/frontier.hpp"
#include "campaign/oracle.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::campaign {
namespace {

using workload::OwnedProblem;

TEST(Frontier, Example1Solution1MapsItsCapabilitySurface) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();

  const FrontierReport report = frontier_sweep(schedule);
  // Caps resolved from the schedule: K = failures_tolerated() + 1 = 2,
  // L = 1, S = 1 — a 3 x 2 x 2 lattice.
  EXPECT_EQ(report.max_failures, 2);
  EXPECT_EQ(report.max_link_failures, 1);
  EXPECT_EQ(report.max_silences, 1);
  EXPECT_EQ(report.points.size(), 12u);
  EXPECT_EQ(report.points_explored + report.points_implied,
            report.points.size());
  EXPECT_GT(report.points_implied, 0u);

  const auto at = [&](int k, int l, int s) -> const FrontierPoint& {
    for (const FrontierPoint& p : report.points) {
      if (p.max_failures == k && p.max_link_failures == l &&
          p.max_silences == s) {
        return p;
      }
    }
    ADD_FAILURE() << "missing point (" << k << ", " << l << ", " << s << ")";
    return report.points.front();
  };

  // Solution 1 masks its design point K=1 (with silences on top) but not
  // K=2, and its passive comm redundancy dies with the single bus.
  EXPECT_TRUE(at(0, 0, 0).certified);
  EXPECT_TRUE(at(1, 0, 0).certified);
  EXPECT_TRUE(at(1, 0, 1).certified);
  EXPECT_FALSE(at(2, 0, 0).certified);
  EXPECT_FALSE(at(2, 0, 0).implied);
  EXPECT_FALSE(at(0, 1, 0).certified);
  EXPECT_FALSE(at(0, 1, 0).implied);

  // An explored refutation carries evidence: branch counts and a first
  // counterexample that is a genuine fault pattern of the point's budget.
  const FrontierPoint& refuted = at(0, 1, 0);
  EXPECT_GT(refuted.branches, 0u);
  EXPECT_GT(refuted.total_counterexamples, 0u);
  const CertifyBranch& cex = refuted.first_counterexample;
  EXPECT_TRUE(cex.outputs_lost);
  EXPECT_LE(cex.dead_links_at_start.size() + cex.link_crashes.size(), 1u);

  // (1, 1, 0) is dominated by refuted (0, 1, 0): implied, never explored.
  EXPECT_FALSE(at(1, 1, 0).certified);
  EXPECT_TRUE(at(1, 1, 0).implied);
  EXPECT_EQ(at(1, 1, 0).branches, 0u);

  // The maximal surface is the single corner (1, 0, 1).
  ASSERT_EQ(report.surface.size(), 1u);
  EXPECT_EQ(report.surface[0].max_failures, 1);
  EXPECT_EQ(report.surface[0].max_link_failures, 0);
  EXPECT_EQ(report.surface[0].max_silences, 1);

  // Every implied refutation has an explored refuted dominator at or
  // below it — monotonicity is the only thing that may skip a point.
  for (const FrontierPoint& p : report.points) {
    if (!p.implied) continue;
    bool dominated = false;
    for (const FrontierPoint& q : report.points) {
      if (q.certified || q.implied) continue;
      if (q.max_failures <= p.max_failures &&
          q.max_link_failures <= p.max_link_failures &&
          q.max_silences <= p.max_silences) {
        dominated = true;
      }
    }
    EXPECT_TRUE(dominated)
        << "(" << p.max_failures << ", " << p.max_link_failures << ", "
        << p.max_silences << ") implied without an explored dominator";
  }
}

TEST(Frontier, CertifiedPointsStayUnderTheGlsCeiling) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule sol1 = schedule_solution1(ex.problem).value();

  // Solution 1: every extio output has 2 replica hosts (K ceiling 1) and
  // the single bus is load-bearing (L ceiling 0).
  const GlsBounds gls = gls_bounds(sol1);
  EXPECT_EQ(gls.k_bound, 1);
  EXPECT_FALSE(gls.l_unbounded);
  EXPECT_EQ(gls.l_bound, 0);

  // The ceiling is sound: no certified lattice point exceeds it.
  const FrontierReport report = frontier_sweep(sol1);
  for (const FrontierPoint& p : report.points) {
    if (!p.certified) continue;
    EXPECT_LE(p.max_failures, gls.k_bound);
    if (!gls.l_unbounded) {
      EXPECT_LE(p.max_link_failures, gls.l_bound);
    }
  }

  // The non-replicated baseline has a K ceiling of 0.
  const Schedule base = schedule_base(ex.problem).value();
  EXPECT_EQ(gls_bounds(base).k_bound, 0);
}

TEST(Frontier, ReportIsByteIdenticalAcrossThreads) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const ArchitectureGraph& arch = *ex.problem.architecture;

  FrontierSpec one;
  one.threads = 1;
  const std::string baseline = frontier_sweep(schedule, one).to_json(arch);

  FrontierSpec two = one;
  two.threads = 2;
  EXPECT_EQ(frontier_sweep(schedule, two).to_json(arch), baseline);

  FrontierSpec eight = one;
  eight.threads = 8;
  EXPECT_EQ(frontier_sweep(schedule, eight).to_json(arch), baseline);
}

TEST(Frontier, PaperChainConstraintsHoldAtTheDesignPoints) {
  const std::vector<LatencyConstraint> chains = paper_chain_constraints();
  ASSERT_EQ(chains.size(), 2u);

  // Both published solutions certify their design budget with the chains
  // attached; the recorded per-chain envelopes stay under the bounds.
  {
    const OwnedProblem ex = workload::paper_example1();
    const Schedule sol1 = schedule_solution1(ex.problem).value();
    CertifySpec spec;
    spec.latency_constraints = chains;
    const CertifyReport report = certify(sol1, spec);
    EXPECT_TRUE(report.certified)
        << report.to_text(*ex.problem.architecture);
    ASSERT_EQ(report.worst_chain_latency.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(time_le(report.worst_chain_latency[i], chains[i].bound));
    }
  }
  {
    const OwnedProblem ex = workload::paper_example2();
    const Schedule sol2 = schedule_solution2(ex.problem).value();
    CertifySpec spec;
    spec.latency_constraints = chains;
    EXPECT_TRUE(certify(sol2, spec).certified);
  }

  // Tightening the spine manufactures a refutation labeled with it — the
  // CI multi-constraint smoke relies on exactly this.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule sol1 = schedule_solution1(ex.problem).value();
  FrontierSpec fspec;
  fspec.latency_constraints = chains;
  fspec.latency_constraints[0].bound = 0.5;
  const FrontierReport frontier = frontier_sweep(sol1, fspec);
  ASSERT_FALSE(frontier.points.empty());
  const FrontierPoint& origin = frontier.points.front();
  EXPECT_FALSE(origin.certified);
  ASSERT_EQ(origin.first_counterexample.violated_constraints.size(), 1u);
  EXPECT_EQ(origin.first_counterexample.violated_constraints[0],
            chains[0].name);
  EXPECT_TRUE(frontier.surface.empty());
}

TEST(Frontier, MalformedChainSpecsThrow) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();

  FrontierSpec unknown;
  unknown.latency_constraints.push_back(
      LatencyConstraint{"c", "Zeta", "E", 5.0});
  EXPECT_THROW((void)frontier_sweep(schedule, unknown),
               std::invalid_argument);

  FrontierSpec dup;
  dup.latency_constraints.push_back(LatencyConstraint{"c", "A", "E", 5.0});
  dup.latency_constraints.push_back(LatencyConstraint{"c", "I", "O", 9.0});
  EXPECT_THROW((void)frontier_sweep(schedule, dup), std::invalid_argument);

  FrontierSpec inverted;
  inverted.latency_constraints.push_back(
      LatencyConstraint{"c", "A", "E", -2.0});
  EXPECT_THROW((void)frontier_sweep(schedule, inverted),
               std::invalid_argument);
}

}  // namespace
}  // namespace ftsched::campaign
