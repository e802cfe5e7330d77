// The plan-key result cache: LRU behaviour, the disabled (capacity 0)
// mode, and plan-key identity — isomorphic plans share a key, budget
// resolution collapses claim -1 onto the explicit K.
#include <gtest/gtest.h>

#include "sched/heuristics.hpp"
#include "service/cache.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::service {
namespace {

CachedResult result_named(const std::string& text) {
  CachedResult result;
  result.certificate_json = text;
  return result;
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache(4);
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", result_named("cert-a"));
  const auto hit = cache.get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->certificate_json, "cert-a");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.put("a", result_named("a"));
  cache.put("b", result_named("b"));
  ASSERT_TRUE(cache.get("a").has_value());  // a is now most recent
  cache.put("c", result_named("c"));        // evicts b
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, PutRefreshesExistingEntry) {
  ResultCache cache(2);
  cache.put("a", result_named("old"));
  cache.put("b", result_named("b"));
  cache.put("a", result_named("new"));  // refresh: a becomes most recent
  cache.put("c", result_named("c"));    // evicts b, not a
  EXPECT_EQ(cache.get("a")->certificate_json, "new");
  EXPECT_FALSE(cache.get("b").has_value());
}

TEST(ResultCacheTest, CapacityZeroDisables) {
  ResultCache cache(0);
  cache.put("a", result_named("a"));
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanKeyTest, StableAndBudgetSensitive) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();

  campaign::CertifySpec spec;
  const std::string key = plan_key_string(schedule, spec);
  EXPECT_EQ(key, plan_key_string(schedule, spec));  // pure function
  EXPECT_EQ(key.rfind("pk-", 0), 0u);

  campaign::CertifySpec links = spec;
  links.max_link_failures = 1;
  EXPECT_NE(plan_key_string(schedule, links), key);

  campaign::CertifySpec bounded = spec;
  bounded.response_bound = 40.0;
  EXPECT_NE(plan_key_string(schedule, bounded), key);
}

TEST(PlanKeyTest, DerivedClaimCollidesWithExplicitClaim) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();

  campaign::CertifySpec derived;
  derived.max_failures = -1;  // "the schedule's own tolerance"
  campaign::CertifySpec explicit_k;
  explicit_k.max_failures = schedule.failures_tolerated();
  // Budget resolution happens before keying: both requests are the same
  // sweep, so they must share one cache entry.
  EXPECT_EQ(plan_key_string(schedule, derived),
            plan_key_string(schedule, explicit_k));
}

TEST(PlanKeyTest, IsomorphicPlansShareAKey) {
  // Same problem loaded twice (fresh graph objects, fresh ids) — the key
  // hashes schedule content, not object identity or source text.
  const workload::OwnedProblem a = workload::paper_example1();
  const workload::OwnedProblem b = workload::paper_example1();
  const Schedule sa = schedule_solution1(a.problem).value();
  const Schedule sb = schedule_solution1(b.problem).value();
  EXPECT_EQ(plan_key_string(sa, {}), plan_key_string(sb, {}));
}

}  // namespace
}  // namespace ftsched::service
