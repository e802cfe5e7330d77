#include "service/cache.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace ftsched::service {

namespace {

// FNV-1a over the constraint list's identity (names, endpoints, %.17g
// bounds, and a separator so field concatenations can't collide across
// boundaries). Only mixed into the plan key when constraints exist, so
// every scalar-bound key is byte-identical to the pre-constraint format
// and cached scalar results survive the upgrade.
std::uint64_t constraints_hash(
    const std::vector<campaign::LatencyConstraint>& constraints) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 1099511628211ull;
    }
    h ^= 0x1f;
    h *= 1099511628211ull;
  };
  for (const campaign::LatencyConstraint& c : constraints) {
    mix(c.name.data(), c.name.size());
    mix(c.source_op.data(), c.source_op.size());
    mix(c.sink_op.data(), c.sink_op.size());
    char bound[40];
    std::snprintf(bound, sizeof bound, "%.17g", c.bound);
    mix(bound, std::strlen(bound));
  }
  return h;
}

}  // namespace

std::string plan_key_string(const Schedule& schedule,
                            const campaign::CertifySpec& spec) {
  const campaign::CertifyBudgets budgets =
      campaign::certify_budgets(schedule, spec);
  char buf[200];
  char bound[40];
  if (std::isfinite(spec.response_bound)) {
    std::snprintf(bound, sizeof bound, "%.17g", spec.response_bound);
  } else {
    std::snprintf(bound, sizeof bound, "inf");
  }
  std::snprintf(buf, sizeof buf, "pk-%016llx-k%d-l%d-s%d-r%s-d%d-c%zu",
                static_cast<unsigned long long>(schedule_hash(schedule)),
                budgets.max_failures, budgets.max_link_failures,
                budgets.max_silences, bound, spec.dedup ? 1 : 0,
                spec.max_counterexamples);
  std::string key = buf;
  if (!spec.latency_constraints.empty()) {
    char chains[24];
    std::snprintf(chains, sizeof chains, "-q%016llx",
                  static_cast<unsigned long long>(
                      constraints_hash(spec.latency_constraints)));
    key += chains;
  }
  return key;
}

std::optional<CachedResult> ResultCache::get(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  order_.splice(order_.begin(), order_, it->second);
  return it->second->result;
}

void ResultCache::put(const std::string& key, CachedResult value) {
  if (capacity_ == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->result = std::move(value);
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  order_.push_front(Entry{key, std::move(value)});
  index_.emplace(key, order_.begin());
  while (index_.size() > capacity_) {
    index_.erase(order_.back().key);
    order_.pop_back();
  }
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

}  // namespace ftsched::service
