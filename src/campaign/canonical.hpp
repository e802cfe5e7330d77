// Canonicalization of mission plans up to effective failure behaviour.
//
// Many syntactically different plans drive the simulator identically: fault
// lists in a different order, a crash of a processor that is already dead at
// start, a second crash of the same processor, a fail-silent window of zero
// length or on a dead processor, a dead processor redundantly listed as
// suspected. canonical_plan() rewrites a plan into a normal form such that
// two plans with equal normal forms produce equal MissionResult summaries
// (same per-iteration outputs/response/counters — trace event ORDER within
// one instant may differ, which no summary observes), and
// canonical_fingerprint() serializes that normal form into the exact string
// key the campaign runner counts unique coverage by.
//
// Soundness argument, per rewrite:
//  * sorting: scenario event lists only affect the simulator through
//    same-instant event batches, whose per-kind handlers are commutative
//    (each crash cancels its own processor's transfers; window lookup and
//    start-state application are set-like);
//  * dropping a crash of a processor dead at start, or any crash after the
//    processor's earliest one: on_failure of a dead processor is a no-op —
//    only the earliest instant matters;
//  * dropping windows with to <= from: is_silent never matches them, and
//    the extra wake-up they schedule lands on an already-reached fixpoint;
//  * dropping silences of dead-at-start processors — or of processors
//    whose earliest crash strictly precedes the window's opening edge in
//    mission order: is_silent is only consulted for a live feeding
//    processor, and the dead processor never reaches one;
//  * dropping a dead-at-start processor from suspected_at_start: the
//    suspicion flags it would preset are a subset of those the death
//    presets, and its own flag row dies with it (finish() and every read
//    skip dead processors' rows).
#pragma once

#include <cstdint>
#include <string>

#include "sim/mission.hpp"

namespace ftsched::campaign {

/// The normal form described above: per-class lists sorted, exact
/// duplicates and behaviourally inert entries removed.
[[nodiscard]] MissionPlan canonical_plan(const MissionPlan& plan);

/// Exact byte serialization of `canonical_plan(plan)` — equal fingerprints
/// iff equal normal forms, so using it as a cache/uniqueness key can never
/// alias two effectively different scenarios.
[[nodiscard]] std::string canonical_fingerprint(const MissionPlan& plan);

/// Reusable buffers for the batched fingerprint path: the campaign runner
/// canonicalizes thousands of plans per chunk, and one scratch per worker
/// amortizes the normal form's list copies. Treat as opaque.
struct CanonicalScratch {
  MissionPlan plan;
  std::vector<MissionFailure> crashes;
  std::vector<MissionLinkFailure> link_deaths;
};

/// canonical_fingerprint into a caller-owned string (cleared first),
/// reusing `scratch`; byte-identical to canonical_fingerprint(plan).
void canonical_fingerprint_into(const MissionPlan& plan,
                                CanonicalScratch& scratch, std::string& out);

/// FNV-1a 64-bit over fingerprint bytes: the compact key the campaign
/// runner's unique-pattern set indexes canonical fingerprints by (equal
/// fingerprints hash equal; distinct ones collide with negligible odds,
/// and the set verifies the full fingerprint).
[[nodiscard]] inline std::uint64_t fingerprint_hash(
    const std::string& bytes) noexcept {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV-1a prime
  }
  return hash;
}

}  // namespace ftsched::campaign
