// Byte identity of the artifacts a user keeps, pinned against the committed
// goldens under data/golden/: certificates, frontier reports and the repair
// log are regenerated in process exactly as `campaign_tool` produces them
// (same inputs, same default specs) and compared byte for byte. A change
// that moves any of these bytes changed what the tool proves or reports.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "campaign/certify.hpp"
#include "campaign/frontier.hpp"
#include "campaign/repair.hpp"
#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::campaign {
namespace {

std::string read_text(const std::string& relative) {
  std::ifstream file(std::string(FTSCHED_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(file.good()) << "cannot open " << relative;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

workload::OwnedProblem certify_k2_problem() {
  Expected<workload::OwnedProblem> parsed =
      io::read_problem(read_text("data/certify_k2.ft"));
  EXPECT_TRUE(parsed.has_value());
  return std::move(parsed).value();
}

// `campaign_tool --example1 --solution1 --certify`
TEST(Golden, Example1Solution1Certificate) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  EXPECT_EQ(certify(schedule).to_json(*ex.problem.architecture),
            read_text("data/golden/example1_solution1.cert.json"));
}

// `campaign_tool data/certify_k2.ft --solution2 --certify`
TEST(Golden, CertifyK2Certificate) {
  const workload::OwnedProblem ex = certify_k2_problem();
  const Schedule schedule = schedule_solution2(ex.problem).value();
  EXPECT_EQ(certify(schedule).to_json(*ex.problem.architecture),
            read_text("data/golden/certify_k2.cert.json"));
}

// `campaign_tool --example1 --solution1 --frontier`
TEST(Golden, Example1Solution1Frontier) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  EXPECT_EQ(frontier_sweep(schedule).to_json(*ex.problem.architecture),
            read_text("data/golden/example1_solution1.frontier.json"));
}

// `campaign_tool --example2 --solution2 --frontier`
TEST(Golden, Example2Solution2Frontier) {
  const workload::OwnedProblem ex = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex.problem).value();
  EXPECT_EQ(frontier_sweep(schedule).to_json(*ex.problem.architecture),
            read_text("data/golden/example2_solution2.frontier.json"));
}

// `campaign_tool data/certify_k2.ft --solution2 --claim-k 1
//  --certify-links 1 --repair`
TEST(Golden, CertifyK2RepairLog) {
  const workload::OwnedProblem ex = certify_k2_problem();
  RepairSpec spec;
  spec.certify.max_failures = 1;
  spec.certify.max_link_failures = 1;
  const RepairReport report =
      repair(ex.problem, HeuristicKind::kSolution2, spec);
  EXPECT_EQ(report.to_json(*ex.problem.algorithm, *ex.problem.architecture),
            read_text("data/golden/certify_k2_repair.json"));
}

}  // namespace
}  // namespace ftsched::campaign
