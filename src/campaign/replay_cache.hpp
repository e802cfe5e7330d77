// Shared cross-chunk replay cache for the campaign runner.
//
// A MissionResult is a pure function of a plan's canonical fault pattern
// (campaign/canonical.hpp), so once ANY chunk has simulated a pattern,
// every later scenario with the same fingerprint — in the same chunk or a
// different one, on any thread — can reuse the result instead of
// re-simulating. Reuse is invisible in the report: a hit yields the exact
// MissionResult a fresh simulation would, so every reported field stays a
// pure function of (schedule, options) whether a given lookup hits or
// misses. That freedom is what lets the cache be best-effort: fixed
// capacity, inserts dropped when a probe window is full, no eviction —
// a miss only costs the simulation the uncached runner would have done
// anyway.
//
// Layout: the fingerprint's hash picks one of kShards independent
// fixed-size open-addressing tables. Slots publish through an atomic tag
// (0 = empty, 1 = write in progress, else the key's hash mark): an
// inserter claims an empty slot by CAS, writes the key string and the
// result pointer, then release-stores the mark; readers acquire-load the
// tag, verify the full key (hash collisions just probe on), and copy the
// shared_ptr — no locks on either path, safe under TSan because the
// payload is written before the release store and never mutated after.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/mission.hpp"

namespace ftsched::campaign {

class ReplayCache {
 public:
  /// Capacity is sized for `expected_keys` distinct fingerprints (rounded
  /// up to a power of two per shard, at least one slot each); the table
  /// never grows, extra inserts are dropped.
  explicit ReplayCache(std::size_t expected_keys);

  ReplayCache(const ReplayCache&) = delete;
  ReplayCache& operator=(const ReplayCache&) = delete;

  /// The cached result for `key` (whose canonical.hpp fingerprint_hash is
  /// `hash`), or null. Lock-free. Returns a raw pointer, not a shared_ptr
  /// copy: published slots are never overwritten or evicted, so the result
  /// outlives the cache's every reader and a hit costs no refcount
  /// round-trip.
  [[nodiscard]] const MissionResult* find(std::uint64_t hash,
                                          const std::string& key) const;

  /// Publishes `result` under `key`; silently dropped when the probe
  /// window is full or another thread is publishing the same key.
  void insert(std::uint64_t hash, const std::string& key,
              std::shared_ptr<const MissionResult> result);

 private:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kProbeWindow = 8;
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kBusy = 1;

  /// The slot's published tag for a key hash: never kEmpty/kBusy.
  [[nodiscard]] static std::uint64_t mark(std::uint64_t hash) noexcept {
    return hash | 2;
  }

  struct Slot {
    std::atomic<std::uint64_t> tag{kEmpty};
    std::string key;
    std::shared_ptr<const MissionResult> result;
  };

  struct Shard {
    std::vector<Slot> slots;
    std::size_t mask = 0;
  };

  [[nodiscard]] const Shard& shard_for(std::uint64_t hash) const noexcept {
    return shards_[(hash >> 56) & (kShards - 1)];
  }
  [[nodiscard]] Shard& shard_for(std::uint64_t hash) noexcept {
    return shards_[(hash >> 56) & (kShards - 1)];
  }

  std::vector<Shard> shards_;
};

}  // namespace ftsched::campaign
