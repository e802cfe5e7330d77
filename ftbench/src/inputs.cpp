#include "inputs.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "campaign/frontier.hpp"
#include "io/problem_format.hpp"
#include "obs/json_util.hpp"
#include "sched/heuristics.hpp"

namespace ftbench {

using ftsched::HeuristicKind;
using ftsched::workload::ArchKind;
using ftsched::workload::RandomProblemParams;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Plan make_plan(const PlanSpec& spec) {
  Plan plan;
  plan.name = spec.name;
  plan.text = spec.text;
  plan.kind = spec.kind;
  auto parsed = ftsched::io::read_problem(spec.text);
  if (!parsed.has_value()) {
    throw std::runtime_error(spec.name + ": " + parsed.error().message);
  }
  plan.owned = std::make_unique<ftsched::workload::OwnedProblem>(
      std::move(parsed).value());
  auto scheduled = ftsched::schedule(plan.owned->problem, spec.kind);
  if (!scheduled.has_value()) {
    throw std::runtime_error(spec.name + ": " + scheduled.error().message);
  }
  plan.schedule.emplace(std::move(scheduled).value());
  return plan;
}

const char* heuristic_name(HeuristicKind kind) {
  switch (kind) {
    case HeuristicKind::kBase: return "base";
    case HeuristicKind::kSolution1: return "solution1";
    case HeuristicKind::kSolution2: return "solution2";
    case HeuristicKind::kHybrid: break;
  }
  throw std::invalid_argument("no certifyd name for the hybrid heuristic");
}

std::string problem_text(const RandomProblemParams& params) {
  const auto owned = ftsched::workload::random_problem(params);
  return ftsched::io::write_problem(owned.problem);
}

std::string rename_operations(const std::string& text,
                              const std::string& prefix) {
  std::set<std::string> names;
  {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      std::istringstream words(line);
      std::string head;
      std::string name;
      if (words >> head >> name && head == "operation") names.insert(name);
    }
  }
  const auto rename = [&](const std::string& token) {
    return names.count(token) != 0 ? prefix + token : token;
  };
  std::string out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t indent = line.find_first_not_of(' ');
    out.append(line, 0, indent == std::string::npos ? line.size() : indent);
    std::istringstream words(line);
    std::string token;
    bool first = true;
    while (words >> token) {
      if (!first) out += ' ';
      first = false;
      const std::size_t arrow = token.find("->");
      if (arrow != std::string::npos) {
        out += rename(token.substr(0, arrow)) + "->" +
               rename(token.substr(arrow + 2));
      } else {
        out += rename(token);
      }
    }
    out += '\n';
  }
  return out;
}

std::string submit_line(const std::string& id, const std::string& problem,
                        HeuristicKind kind, int claim_k, int links) {
  using ftsched::obs::json_string;
  return "{\"type\":\"submit\",\"id\":" + json_string(id) +
         ",\"problem_inline\":" + json_string(problem) +
         ",\"heuristic\":" + json_string(heuristic_name(kind)) +
         ",\"claim_k\":" + std::to_string(claim_k) +
         ",\"links\":" + std::to_string(links) + "}";
}

namespace {

struct FreshPlan {
  std::string text;
  HeuristicKind kind;
  int claim_k;
  int links;
  RequestKind request_kind;
  bool expect_certified;
};

/// Draws the `n`-th fresh request plan of `kind`. Sizes, processor counts
/// and architectures cycle through fixed strata (8-24 operations on 3-6
/// processors; K=2 plans 8-12 operations on 4), so every seed gets the same
/// mix of sizes and only the graphs and tables are random. Link-death
/// claims are redrawn until they sit above the static GLS ceiling, so their
/// refutation is a known answer rather than an observation.
FreshPlan fresh_plan(Rng& rng, RequestKind kind, std::size_t n) {
  for (;;) {
    RandomProblemParams params;
    const bool k2 = kind == RequestKind::kK2;
    params.dag.operations = k2 ? 8 + (n * 3) % 5 : 8 + (n * 7) % 17;
    params.seed = rng.next();
    const bool bus = kind == RequestKind::kLinkDeath || (n / 4) % 2 == 0;
    params.arch_kind = bus ? ArchKind::kBus : ArchKind::kFullyConnected;
    params.processors = k2 ? 4 : 3 + n % 4;
    params.failures_to_tolerate = k2 ? 2 : 1;
    FreshPlan fresh;
    fresh.kind = kind == RequestKind::kLinkDeath
                     ? HeuristicKind::kSolution2
                     : (bus ? HeuristicKind::kSolution1
                            : HeuristicKind::kSolution2);
    fresh.text = problem_text(params);
    fresh.claim_k = params.failures_to_tolerate;
    fresh.links = kind == RequestKind::kLinkDeath ? 1 : 0;
    fresh.request_kind = kind;
    fresh.expect_certified = kind != RequestKind::kLinkDeath;
    if (kind != RequestKind::kLinkDeath) return fresh;
    const Plan plan = make_plan({"probe", fresh.text, fresh.kind});
    const auto gls = ftsched::campaign::gls_bounds(*plan.schedule);
    if (fresh.claim_k > gls.k_bound ||
        (!gls.l_unbounded && fresh.links > gls.l_bound)) {
      return fresh;
    }
  }
}

}  // namespace

std::vector<ServeRequest> serve_requests(std::uint64_t seed,
                                         std::size_t count) {
  constexpr std::size_t kResubmitWindow = 96;  // > the 64-entry cache
  Rng rng(seed ^ 0x5e7e5e7e5e7e5e7eULL);
  std::vector<RequestKind> block;
  std::size_t drawn[3] = {0, 0, 0};  // fresh plans per kind
  std::vector<FreshPlan> fresh;
  std::vector<std::size_t> fresh_request;  // request index of each fresh plan
  std::vector<ServeRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ServeRequest request;
    request.id = 'r';
    request.id += std::to_string(i);
    if (i % 7 == 6 && !fresh.empty()) {
      const std::size_t window = std::min(fresh.size(), kResubmitWindow);
      const std::size_t pick = fresh.size() - 1 - rng.below(window);
      const FreshPlan& plan = fresh[pick];
      request.source = static_cast<std::int64_t>(fresh_request[pick]);
      const bool renamed = rng.coin();
      request.kind = plan.request_kind;
      request.expect_certified = plan.expect_certified;
      request.plan = {request.id,
                      renamed ? rename_operations(plan.text, "x_") : plan.text,
                      plan.kind};
      request.line = submit_line(request.id, request.plan.text, plan.kind,
                                 plan.claim_k, plan.links);
    } else {
      if (block.empty()) {
        block.assign(14, RequestKind::kDesign);
        block.insert(block.end(), 3, RequestKind::kLinkDeath);
        block.insert(block.end(), 3, RequestKind::kK2);
        for (std::size_t j = block.size() - 1; j > 0; --j) {
          std::swap(block[j], block[rng.below(j + 1)]);
        }
      }
      const RequestKind kind = block.back();
      block.pop_back();
      fresh.push_back(fresh_plan(rng, kind, drawn[static_cast<int>(kind)]++));
      fresh_request.push_back(i);
      const FreshPlan& plan = fresh.back();
      request.kind = kind;
      request.expect_certified = plan.expect_certified;
      request.plan = {request.id, plan.text, plan.kind};
      request.line = submit_line(request.id, plan.text, plan.kind,
                                 plan.claim_k, plan.links);
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<PlanSpec> certify_deep_plans() {
  RandomProblemParams rand4;
  rand4.dag.operations = 10;
  rand4.processors = 4;
  rand4.failures_to_tolerate = 2;
  rand4.seed = 11;
  return {
      {"fig22", ftsched::io::write_problem(
                    ftsched::workload::paper_example2().problem),
       HeuristicKind::kSolution2},
      {"rand4", problem_text(rand4), HeuristicKind::kSolution2},
  };
}

std::vector<DeepSweep> certify_deep_sweeps() {
  return {
      {"fig22_k2s1", 0, 2, 0, 1},
      {"fig22_k1s2", 0, 1, 0, 2},
      {"rand4_k3", 1, 3, 0, 0},
  };
}

std::vector<PlanSpec> campaign_plans(std::uint64_t seed) {
  Rng rng(seed ^ 0xca4a16ca4a16ULL);
  std::vector<PlanSpec> plans;
  for (int copy = 0; copy < 3; ++copy) {
    for (const bool bus : {true, false}) {
      RandomProblemParams params;
      params.dag.operations = 200;
      params.processors = 8;
      params.failures_to_tolerate = 1;
      params.arch_kind = bus ? ArchKind::kBus : ArchKind::kFullyConnected;
      params.seed = rng.next();
      plans.push_back({(bus ? "bus200" : "p2p200") + std::string(1, 'a' + copy),
                       problem_text(params),
                       bus ? HeuristicKind::kSolution1
                           : HeuristicKind::kSolution2});
    }
  }
  return plans;
}

std::vector<Job> repair_frontier_jobs(std::uint64_t seed) {
  constexpr std::size_t kJobsPerKind = 48;
  Rng rng(seed ^ 0x4e9a14f40e71e4ULL);
  // Generator seeds whose problems the repair loop is known to certify: a
  // scan of seeds 1-80 found every one converging in 1-4 rounds except 75,
  // whose move set runs out. The workload seed picks kJobs of them.
  std::vector<std::uint64_t> repairable;
  for (std::uint64_t s = 1; s <= 80; ++s) {
    if (s != 75) repairable.push_back(s);
  }
  std::vector<Job> repairs;
  for (std::size_t i = 0; i < kJobsPerKind; ++i) {
    const std::size_t pick = rng.below(repairable.size());
    RandomProblemParams params;
    params.dag.operations = 10;
    params.processors = 4;
    params.failures_to_tolerate = 2;
    params.seed = repairable[pick];
    repairable.erase(repairable.begin() + static_cast<std::ptrdiff_t>(pick));
    repairs.push_back({Job::Kind::kRepair,
                       {"repair" + std::to_string(i), problem_text(params),
                        HeuristicKind::kSolution2}});
  }
  std::vector<Job> walks;
  walks.push_back({Job::Kind::kFrontier,
                   {"fig17", ftsched::io::write_problem(
                                 ftsched::workload::paper_example1().problem),
                    HeuristicKind::kSolution1}});
  walks.push_back({Job::Kind::kFrontier,
                   {"fig22", ftsched::io::write_problem(
                                 ftsched::workload::paper_example2().problem),
                    HeuristicKind::kSolution2}});
  // Sizes and architectures cycle through fixed strata; only the graphs
  // and tables are random. Fully connected walks have 6 operations: at 7-8
  // their cost spreads over 0.3-1.5 s, so a few draws would set a seed's
  // throughput and tail.
  for (std::size_t i = 0; walks.size() < kJobsPerKind; ++i) {
    const bool bus = i % 2 == 0;
    RandomProblemParams params;
    params.dag.operations = bus ? 6 + (i / 2) % 3 : 6;
    params.processors = 3;
    params.failures_to_tolerate = 1;
    params.arch_kind = bus ? ArchKind::kBus : ArchKind::kFullyConnected;
    params.seed = rng.next();
    walks.push_back({Job::Kind::kFrontier,
                     {"walk" + std::to_string(i), problem_text(params),
                      bus ? HeuristicKind::kSolution1
                          : HeuristicKind::kSolution2}});
  }
  for (std::size_t j = walks.size() - 1; j > 0; --j) {
    std::swap(walks[j], walks[rng.below(j + 1)]);
  }
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < repairs.size(); ++i) {
    jobs.push_back(repairs[i]);
    jobs.push_back(walks[i]);
  }
  return jobs;
}

}  // namespace ftbench
