// Tests of the benchmark's own code: percentiles and the sample-count rule,
// and seeded input generation (same seed, same inputs). Exit status 1 on
// any failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "service/cache.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentiles() {
  CHECK(near(ftbench::percentile({1, 2, 3, 4}, 50), 2.5));
  CHECK(near(ftbench::percentile({4, 1, 3, 2}, 0), 1));
  CHECK(near(ftbench::percentile({4, 1, 3, 2}, 100), 4));
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  CHECK(near(ftbench::percentile(ten, 90), 9.1));
  CHECK(near(ftbench::median({7}), 7));
  CHECK(near(ftbench::percentile({}, 50), 0));
}

void sample_counts() {
  CHECK(ftbench::samples_beyond(100, 90) == 10);
  CHECK(ftbench::samples_beyond(20, 50) == 10);
  CHECK(ftbench::samples_beyond(19, 50) == 9);
  CHECK(ftbench::supported_percentile(19) == 0);
  CHECK(ftbench::supported_percentile(20) == 50);
  // Ten ranks above p90 need n >= 92; above p99, n >= 902.
  CHECK(ftbench::supported_percentile(91) == 50);
  CHECK(ftbench::supported_percentile(92) == 90);
  CHECK(ftbench::supported_percentile(901) == 90);
  CHECK(ftbench::supported_percentile(902) == 99);
}

void self_times() {
  ftbench::Tracer tracer(true);
  const int root = tracer.open("op", "bench", 0);
  const int child = tracer.open("child", "io", -1);
  tracer.close(child);
  tracer.close(root);
  const auto& spans = tracer.spans();
  CHECK(spans.size() == 2 && spans[1].parent == 0 && spans[1].op == 0);
  const auto self = tracer.self_ns_by_layer("op");
  CHECK(near(self.at("bench") + self.at("io"), spans[0].duration_ns()));
  CHECK(tracer.self_ns_by_layer("replay").empty());
  ftbench::Tracer off(false);
  CHECK(off.open("op", "bench", 0) == -1 && off.spans().empty());
}

void deterministic_inputs() {
  const auto a = ftbench::serve_requests(1, 60);
  const auto b = ftbench::serve_requests(1, 60);
  const auto c = ftbench::serve_requests(2, 60);
  bool same = a.size() == b.size();
  bool differs = false;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].line == b[i].line && a[i].source == b[i].source;
    differs = differs || a[i].line != c[i].line;
  }
  CHECK(same);
  CHECK(differs);

  // Stratified mix: every block of 20 fresh plans is 14 / 3 / 3.
  std::size_t fresh = 0, design = 0, links = 0, k2 = 0, resubmits = 0;
  for (const auto& request : ftbench::serve_requests(3, 161)) {
    if (request.source >= 0) {
      ++resubmits;
      continue;
    }
    ++fresh;
    if (request.kind == ftbench::RequestKind::kDesign) ++design;
    if (request.kind == ftbench::RequestKind::kLinkDeath) ++links;
    if (request.kind == ftbench::RequestKind::kK2) ++k2;
  }
  CHECK(resubmits == 23 && fresh == 138);
  CHECK(design >= 6 * 14 && links >= 6 * 3 && k2 >= 6 * 3);

  const auto plans1 = ftbench::campaign_plans(5);
  const auto plans2 = ftbench::campaign_plans(5);
  bool plans_same = plans1.size() == 6 && plans1.size() == plans2.size();
  for (std::size_t i = 0; plans_same && i < plans1.size(); ++i) {
    plans_same = plans1[i].text == plans2[i].text;
  }
  CHECK(plans_same);
  CHECK(plans1[0].text != ftbench::campaign_plans(6)[0].text);

  const auto jobs1 = ftbench::repair_frontier_jobs(9);
  const auto jobs2 = ftbench::repair_frontier_jobs(9);
  bool jobs_same = jobs1.size() == 96 && jobs1.size() == jobs2.size();
  for (std::size_t i = 0; jobs_same && i < jobs1.size(); ++i) {
    jobs_same = jobs1[i].plan.text == jobs2[i].plan.text &&
                jobs1[i].kind == jobs2[i].kind;
  }
  CHECK(jobs_same);
}

void renamed_plans_share_a_key() {
  const auto requests = ftbench::serve_requests(4, 8);
  const ftbench::PlanSpec& spec = requests[0].plan;
  const ftbench::Plan plain = ftbench::make_plan(spec);
  const ftbench::Plan renamed = ftbench::make_plan(
      {"renamed", ftbench::rename_operations(spec.text, "x_"), spec.kind});
  CHECK(renamed.text != plain.text);
  CHECK(renamed.text.find("operation x_in") != std::string::npos);
  const ftsched::campaign::CertifySpec certify;
  CHECK(ftsched::service::plan_key_string(*plain.schedule, certify) ==
        ftsched::service::plan_key_string(*renamed.schedule, certify));
}

}  // namespace

int main() {
  percentiles();
  sample_counts();
  self_times();
  deterministic_inputs();
  renamed_plans_share_a_key();
  if (failures == 0) std::printf("ftbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
