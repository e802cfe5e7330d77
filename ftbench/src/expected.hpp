// Known answers committed with the benchmark. Branch counts and verdicts
// of the deep sweeps hold for every seed (their plans are fixed); the
// digests hold at the default seed and are checked only there. A change
// that moves a digest changed an output: re-derive it only when the new
// output is the intended one (the run prints every digest it computes).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ftbench {

inline constexpr std::uint64_t kDefaultSeed = 1;
/// Not used while writing a change; re-check claims on it.
inline constexpr std::uint64_t kHeldOutSeed = 20011;

struct DeepAnswer {
  const char* sweep;
  std::size_t branches;
  bool certified;
};

inline constexpr DeepAnswer kDeepAnswers[] = {
    {"fig22_k2s1", 271231, false},
    {"fig22_k1s2", 2818776, true},
    {"rand4_k3", 462267, false},
};

/// serve_mixed: every record of the first kServeDigestRequests requests.
inline constexpr std::size_t kServeDigestRequests = 100;
inline constexpr std::uint64_t kServeDigest = 0xcbee8c5fb088ac29ULL;
/// certify_deep: the three certificates of the first pass (every seed).
inline constexpr std::uint64_t kDeepDigest = 0x797d0c97dfa4f599ULL;
/// campaign_large: within-contract, expected-loss and unique-scenario
/// counts of the first round.
inline constexpr std::uint64_t kCampaignDigest = 0x9b114ca57ae8102dULL;
/// repair_frontier: final schedule hashes of the repairs and frontier JSON
/// digests of the walks, first kJobsDigestOps jobs.
inline constexpr std::size_t kJobsDigestOps = 48;
inline constexpr std::uint64_t kJobsDigest = 0xf92bb687db3d415fULL;

}  // namespace ftbench
