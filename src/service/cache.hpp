// Plan-key result cache for certifyd.
//
// Certification is a pure function of (schedule bytes, resolved budgets,
// certificate knobs) — Goemans–Lynch–Saias frames exactly this as a
// per-plan fault-budget query, the shape a long-lived service memoizes.
// The key deliberately hashes the SCHEDULE, not the problem text: two
// textually different problem files that produce the same schedule
// (renamed operations, reordered declarations — isomorphic plans) share a
// key and hit the cache. Budgets are resolved through certify_budgets before
// keying, so claim_k = -1 ("the schedule's own tolerance") and the
// explicit equivalent K collide onto one entry.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "campaign/certify.hpp"
#include "core/time.hpp"
#include "sched/schedule.hpp"

namespace ftsched::service {

/// Canonical cache identity of one certification request. Stable text —
/// it appears in protocol records and in `campaign_tool --plan-key`
/// output, so users can check cache identity offline.
[[nodiscard]] std::string plan_key_string(const Schedule& schedule,
                                          const campaign::CertifySpec& spec);

/// What the service keeps per plan key: the verdict summary the result
/// record needs plus the full certificate JSON (already rendered — a hit
/// costs no re-render and is byte-identical to the miss that filled it).
struct CachedResult {
  bool certified = false;
  std::size_t branches = 0;
  std::size_t total_counterexamples = 0;
  Time worst_response = 0;
  std::string certificate_json;
};

/// Thread-safe LRU map plan key → CachedResult. Capacity 0 disables
/// caching entirely (every get is a miss, puts are dropped).
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Bumps the entry to most-recently-used.
  [[nodiscard]] std::optional<CachedResult> get(const std::string& key);

  /// Inserts or refreshes; evicts the least-recently-used entry beyond
  /// capacity.
  void put(const std::string& key, CachedResult value);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    CachedResult result;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> order_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace ftsched::service
