// Allocation accounting for the list-scheduler select loop, and the fixed
// heap cost of one small certification sweep.
//
// The engine's contract (DESIGN.md "Scheduler performance"): tentative
// evaluation allocates nothing — scratch timelines, candidate tables and
// kept sets live in members sized once per run — so total heap traffic of
// one schedule() call grows linearly with the problem (CSR tables, commit
// records, the schedule itself), not with steps x candidates x processors
// the way a per-evaluation scratch copy would. This binary overrides global
// operator new/delete with a toggleable counter (its own binary, so the
// override cannot leak into other test executables) and pins both the
// growth rate and an absolute per-operation budget. It also counts the
// bytes requested, which bounds what a 1-thread certify() of the smallest
// paper schedule may allocate: any per-sweep table sized for a deep
// search, not for the sweep at hand, shows up there first. A deep sweep
// pins the certifier's per-branch heap traffic: its forks copy into
// branch states reused across every task a participant runs, so a branch
// costs its events, not a fresh state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// Replacing the global allocation functions with a malloc/free-backed pair
// is the standard [new.delete.single] pattern, but once the sanitizers make
// GCC inline both sides into one caller it flags the new/free pairing as
// mismatched. False positive for whole-program replacement; silence it for
// this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// Under AddressSanitizer the runtime's interceptors own operator new/delete;
// a partial user replacement splits allocations between the two and ASan
// (correctly, from its view) reports alloc-dealloc mismatches. Counting is
// meaningless there anyway — the Release CI job carries this check.
#if defined(__SANITIZE_ADDRESS__)
#define FTSCHED_ALLOC_COUNT_UNAVAILABLE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTSCHED_ALLOC_COUNT_UNAVAILABLE 1
#endif
#endif

#include "campaign/certify.hpp"
#include "campaign/runner.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

}  // namespace

#ifndef FTSCHED_ALLOC_COUNT_UNAVAILABLE

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // FTSCHED_ALLOC_COUNT_UNAVAILABLE

namespace ftsched {
namespace {

workload::OwnedProblem sized_problem(std::size_t operations) {
  workload::RandomProblemParams params;
  params.dag.operations = operations;
  params.dag.width = 6;
  params.arch_kind = workload::ArchKind::kFullyConnected;
  params.processors = 4;
  params.failures_to_tolerate = 1;
  params.ccr = 0.5;
  params.seed = 97;
  return workload::random_problem(params);
}

std::size_t count_schedule_allocations(const Problem& problem) {
  g_allocations.store(0);
  g_counting.store(true);
  const Expected<Schedule> result =
      schedule(problem, HeuristicKind::kSolution2, {});
  g_counting.store(false);
  EXPECT_TRUE(result.has_value());
  return g_allocations.load();
}

TEST(AllocationCount, ScheduleHeapTrafficGrowsLinearly) {
#ifdef FTSCHED_ALLOC_COUNT_UNAVAILABLE
  GTEST_SKIP() << "sanitizer runtime owns the global allocation operators";
#endif
  const workload::OwnedProblem small = sized_problem(60);
  const workload::OwnedProblem large = sized_problem(120);

  const std::size_t small_allocs = count_schedule_allocations(small.problem);
  const std::size_t large_allocs = count_schedule_allocations(large.problem);

  // A per-evaluation scratch allocation makes heap traffic superlinear
  // (steps x candidates x processors ~ n^2: doubling n quadruples it). The
  // allocation-free select loop leaves only linear terms, so doubling the
  // problem must stay well under 3x.
  EXPECT_LT(large_allocs, 3 * small_allocs)
      << "small=" << small_allocs << " large=" << large_allocs;

  // Absolute budget: committed comm records and the schedule dominate
  // (~29 allocations/operation when this was written). The pre-incremental
  // engine sat far above 40/op (one link-timeline copy per evaluation ~
  // 80+/op); keep headroom for library-vector growth but fail on any
  // return of per-evaluation allocation.
  EXPECT_LT(large_allocs, 120 * 40u)
      << "heap traffic per operation regressed: " << large_allocs;
}

/// A 1-thread K=1 certification of the Fig. 17 solution-1 schedule (40
/// branches) is a fixed-cost measurement: what it requests from operator
/// new is the engine's per-sweep overhead, dominated by the simulator's
/// plan and the participant's branch states (one set per tree depth,
/// reused by every node of every task it runs). A per-sweep table sized
/// for deep searches would dwarf that.
TEST(AllocationCount, SmallCertifySweepStaysUnderOneMebibyte) {
#ifdef FTSCHED_ALLOC_COUNT_UNAVAILABLE
  GTEST_SKIP() << "sanitizer runtime owns the global allocation operators";
#endif
  const workload::OwnedProblem ex = workload::paper_example1();
  const Expected<Schedule> schedule = schedule_solution1(ex.problem);
  ASSERT_TRUE(schedule.has_value());
  campaign::CertifySpec spec;
  spec.max_failures = 1;
  spec.threads = 1;

  g_bytes.store(0);
  g_counting.store(true);
  const campaign::CertifyReport report = campaign::certify(*schedule, spec);
  g_counting.store(false);
  const std::size_t bytes = g_bytes.load();

  EXPECT_TRUE(report.certified);
  EXPECT_LT(bytes, std::size_t{1} << 20) << "certify() requested " << bytes
                                         << " bytes";
}

/// A 1-thread K=2 + one silent window certification of the Fig. 22
/// solution-2 schedule: 271,231 branches over 353 tasks (its first
/// victims are cut per child of their root). Each participant copies its
/// forks into branch states it allocates once for all its tasks, a leaf
/// whose budgets are spent runs without a trace, and a branch that is
/// neither kept as a counterexample nor collected builds no CertifyBranch.
/// What remains is each candidate-deriving node's instant and victim
/// tables: about 2.2 allocations and 132 bytes per branch when this was
/// written over 28 tasks. A fresh state per fork costs about 42
/// allocations and 9 KB.
TEST(AllocationCount, DeepCertifySweepAllocatesAFewTimesPerBranch) {
#ifdef FTSCHED_ALLOC_COUNT_UNAVAILABLE
  GTEST_SKIP() << "sanitizer runtime owns the global allocation operators";
#endif
  const workload::OwnedProblem ex = workload::paper_example2();
  const Expected<Schedule> schedule = schedule_solution2(ex.problem);
  ASSERT_TRUE(schedule.has_value());
  campaign::CertifySpec spec;
  spec.max_failures = 2;
  spec.max_silences = 1;
  spec.threads = 1;

  g_allocations.store(0);
  g_bytes.store(0);
  g_counting.store(true);
  const campaign::CertifyReport report = campaign::certify(*schedule, spec);
  g_counting.store(false);
  const auto branches = static_cast<double>(report.branches);
  const double allocations =
      static_cast<double>(g_allocations.load()) / branches;
  const double bytes = static_cast<double>(g_bytes.load()) / branches;

  EXPECT_EQ(report.branches, 271231u);
  EXPECT_LT(allocations, 4.0) << "allocations per branch";
  EXPECT_LT(bytes, 1024.0) << "bytes per branch";
}

/// A 1-thread campaign of 4,000 seed-42 scenarios on the Fig. 17 schedule
/// (8,023 iterations, 1,992 simulated, 64,672 events) allocates about 5
/// times per scenario. A per-event allocation adds about 16, summarizing a
/// traced run instead of the summary path about 18, and rebuilding the
/// simulator's plan per run about 32.
TEST(AllocationCount, CampaignAllocatesAFewTimesPerScenario) {
#ifdef FTSCHED_ALLOC_COUNT_UNAVAILABLE
  GTEST_SKIP() << "sanitizer runtime owns the global allocation operators";
#endif
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  campaign::CampaignOptions options;
  options.scenarios = 4000;
  options.seed = 42;
  options.threads = 1;
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;

  g_allocations.store(0);
  g_counting.store(true);
  const campaign::CampaignReport report =
      campaign::run_campaign(schedule, options);
  g_counting.store(false);
  const double per_scenario = static_cast<double>(g_allocations.load()) /
                              static_cast<double>(options.scenarios);

  EXPECT_EQ(report.total_violations, 0u);
  EXPECT_LT(per_scenario, 6.0) << "allocations per scenario";
}

}  // namespace
}  // namespace ftsched
