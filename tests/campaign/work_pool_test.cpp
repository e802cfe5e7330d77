// The parallel runtime: ordered_for emits in ascending index order at any
// thread count, stops on the first exception or a cancel, cannot deadlock
// when nested inside a busy pool, runs its tasks on helpers alongside the
// caller, runs a 1-thread call inline without the pool, and keeps the pool
// at the size of its largest call.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/work_pool.hpp"

namespace ftsched::campaign {
namespace {

/// Kills the test binary with SIGALRM if the scope outlives `seconds`, so
/// a deadlock fails the run instead of stalling it.
class Alarm {
 public:
  explicit Alarm(unsigned seconds) { ::alarm(seconds); }
  ~Alarm() { ::alarm(0); }
  Alarm(const Alarm&) = delete;
  Alarm& operator=(const Alarm&) = delete;
};

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(OrderedFor, EmitsInAscendingOrderUnderShuffledTaskDurations) {
  constexpr std::size_t kTasks = 48;
  std::vector<int> micros(kTasks);
  std::mt19937 rng(7);
  for (int& us : micros) us = static_cast<int>(rng() % 400);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::size_t> emitted;
    std::atomic<int> emitting{0};
    bool overlapped = false;
    const bool completed = ordered_for(
        threads, kTasks,
        [&](unsigned slot, std::size_t i) {
          EXPECT_LT(slot, threads);
          std::this_thread::sleep_for(std::chrono::microseconds(micros[i]));
          return i;
        },
        [&](std::size_t i) {
          if (emitting.fetch_add(1) != 0) overlapped = true;
          emitted.push_back(i);
          emitting.fetch_sub(1);
        });
    EXPECT_TRUE(completed) << threads << " threads";
    EXPECT_FALSE(overlapped) << threads << " threads";
    EXPECT_EQ(emitted, iota(kTasks)) << threads << " threads";
  }
}

TEST(OrderedFor, RethrowsTheFirstExceptionAndEmitsNothingAfterIt) {
  constexpr std::size_t kTasks = 40;
  constexpr std::size_t kBad = 17;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const bool in_emit : {false, true}) {
      std::vector<std::size_t> emitted;
      std::string caught;
      try {
        ordered_for(
            threads, kTasks,
            [&](unsigned, std::size_t i) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
              if (!in_emit && i == kBad) throw std::runtime_error("run 17");
              return i;
            },
            [&](std::size_t i) {
              if (in_emit && i == kBad) throw std::runtime_error("emit 17");
              emitted.push_back(i);
            });
      } catch (const std::runtime_error& error) {
        caught = error.what();
      }
      EXPECT_EQ(caught, in_emit ? "emit 17" : "run 17") << threads;
      // Whatever was emitted is an ascending prefix that stops before the
      // failing index.
      EXPECT_EQ(emitted, iota(emitted.size())) << threads;
      EXPECT_LE(emitted.size(), kBad) << threads;
      if (in_emit || threads == 1) {
        EXPECT_EQ(emitted.size(), kBad) << threads;
      }
    }
  }
}

TEST(OrderedFor, CancelReturnsFalseAndClaimsNoFurtherIndex) {
  constexpr std::size_t kTasks = 200;
  constexpr int kTruePoll = 6;  // polls 1..5 answer false, 6.. true
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    std::atomic<int> polls{0};
    std::atomic<std::size_t> runs{0};
    std::vector<std::size_t> emitted;
    const bool completed = ordered_for(
        threads, kTasks,
        [&](unsigned, std::size_t i) {
          runs.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          return i;
        },
        [&](std::size_t i) { emitted.push_back(i); },
        [&] { return polls.fetch_add(1) + 1 >= kTruePoll; });
    EXPECT_FALSE(completed) << threads;
    // Every claim follows its own false poll, so at most five indices
    // ran, and each one that ran was emitted, in order.
    EXPECT_LE(runs.load(), static_cast<std::size_t>(kTruePoll - 1)) << threads;
    if (threads == 1) {
      EXPECT_EQ(runs.load(), kTruePoll - 1u);
    }
    EXPECT_EQ(emitted, iota(runs.load())) << threads;
  }
  const bool completed = ordered_for(
      4, 10, [](unsigned, std::size_t i) { return i; }, [](std::size_t) {},
      [] { return false; });
  EXPECT_TRUE(completed);
}

TEST(OrderedFor, NestedCallFinishesWhileEveryPoolWorkerIsBusy) {
  const Alarm alarm(120);
  // One outer participant per pool worker plus the caller, each parked
  // until all of them are in flight, so no worker is idle when the inner
  // calls ask for help.
  const unsigned outer = std::max(pool_size(), 3u) + 1;
  std::mutex mutex;
  std::condition_variable all_in;
  unsigned in_flight = 0;
  bool saturated = false;
  std::vector<std::size_t> sums;
  ordered_for(
      outer, outer,
      [&](unsigned, std::size_t i) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          if (++in_flight == outer) {
            saturated = true;
            all_in.notify_all();
          }
          all_in.wait_for(lock, std::chrono::seconds(20),
                          [&] { return in_flight == outer; });
        }
        std::size_t sum = 0;
        ordered_for(
            4, 16,
            [&](unsigned, std::size_t j) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              return i * 100 + j;
            },
            [&](std::size_t value) { sum += value; });
        return sum;
      },
      [&](std::size_t sum) { sums.push_back(sum); });
  EXPECT_TRUE(saturated);
  ASSERT_EQ(sums.size(), outer);
  for (std::size_t i = 0; i < outer; ++i) EXPECT_EQ(sums[i], i * 1600 + 120);
}

TEST(OrderedFor, HelpersRunTasksAlongsideTheCaller) {
  const Alarm alarm(120);
  // Each task waits until all of them are in flight at once, which only
  // happens when three helpers join the caller. Were helpers never to
  // join, the caller would run the tasks one after another and the first
  // wait would time out.
  constexpr unsigned kParticipants = 4;
  std::mutex mutex;
  std::condition_variable all_in;
  unsigned in_flight = 0;
  bool timed_out = false;
  ordered_for(
      kParticipants, kParticipants,
      [&](unsigned, std::size_t) {
        std::unique_lock<std::mutex> lock(mutex);
        ++in_flight;
        all_in.notify_all();
        if (!all_in.wait_for(lock, std::chrono::seconds(20), [&] {
              return in_flight == kParticipants || timed_out;
            })) {
          timed_out = true;
        }
        return 0;
      },
      [](int) {});
  EXPECT_FALSE(timed_out);
}

TEST(OrderedFor, OneThreadRunsInlineAndNeverBuildsThePool) {
  const unsigned before = pool_size();
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t on_caller = 0;
  for (const auto& [threads, n] : {std::pair{1u, std::size_t{50}},
                                   std::pair{8u, std::size_t{1}}}) {
    ordered_for(
        threads, n,
        [&](unsigned slot, std::size_t) {
          EXPECT_EQ(slot, 0u);
          return std::this_thread::get_id();
        },
        [&](std::thread::id id) { on_caller += id == caller ? 1 : 0; });
  }
  EXPECT_EQ(on_caller, 51u);
  EXPECT_EQ(pool_size(), before);
}

TEST(OrderedFor, PoolGrowsOnlyToTheLargestCall) {
  const unsigned before = pool_size();
  std::size_t emitted = 0;
  for (int call = 0; call < 200; ++call) {
    const unsigned threads = 2 + call % 3;  // 1..3 helpers
    ordered_for(
        threads, 8, [](unsigned, std::size_t i) { return i; },
        [&](std::size_t) { ++emitted; });
  }
  EXPECT_EQ(emitted, 200u * 8);
  EXPECT_LE(pool_size(), std::max(before, 3u));
}

TEST(OrderedFor, ConcurrentCallersShareThePool) {
  const unsigned before = pool_size();
  std::vector<std::vector<std::size_t>> emitted(3);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < emitted.size(); ++c) {
    callers.emplace_back([&, c] {
      for (int call = 0; call < 20; ++call) {
        emitted[c].clear();
        ordered_for(
            4, 12,
            [](unsigned, std::size_t i) {
              std::this_thread::sleep_for(std::chrono::microseconds(30));
              return i;
            },
            [&](std::size_t i) { emitted[c].push_back(i); });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const std::vector<std::size_t>& stream : emitted) {
    EXPECT_EQ(stream, iota(12));
  }
  EXPECT_LE(pool_size(), std::max(before, 3u));
}

}  // namespace
}  // namespace ftsched::campaign
