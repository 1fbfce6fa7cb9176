// Tests for the token's futex parking tier and the executor's rule for it.
// The interesting regime is oversubscription — more workers than cores —
// where a spinning waiter steals scheduler slices from the token holder, so
// the executor parks its waiters exactly when its workers outnumber the
// cores.  The executor-level tests size their pools from the core count, so
// they run in that regime on any machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "casc/rt/executor.hpp"
#include "casc/rt/token.hpp"

namespace {

using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::Token;

/// Workers per pool at `factor` times the core count: above one, the
/// executor parks its waiters.
unsigned oversubscribed(unsigned factor) {
  return factor * std::max(1u, std::thread::hardware_concurrency());
}

// ---- Token-level parking protocol -------------------------------------------

TEST(TokenPark, ParkedWaiterWakesOnPass) {
  Token token;
  token.reset();
  token.set_park_enabled(true);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    if (token.await(1)) got.store(true);
  });
  // Give the waiter time to fall through spin/yield into the futex tier.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.pass(0);
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(TokenPark, ParkedWaiterWakesOnAbort) {
  Token token;
  token.reset();
  token.set_park_enabled(true);
  std::atomic<bool> returned_false{false};
  std::thread waiter([&] {
    if (!token.await(5)) returned_false.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.abort();
  waiter.join();
  EXPECT_TRUE(returned_false.load());
}

TEST(TokenPark, ManySleepersAllWake) {
  Token token;
  token.reset();
  token.set_park_enabled(true);
  constexpr int kWaiters = 8;
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      const auto c = static_cast<std::uint64_t>(w + 1);
      if (token.await(c)) {
        woke.fetch_add(1);
        token.pass(c);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // One pass starts the chain; every waiter hands the token on after waking,
  // exactly like the cascade (await(c) matches c exactly, so only the chunk
  // owner may advance the counter).  All 8 sleepers must be reached even when
  // the whole chain is asleep in the futex tier.
  token.pass(0);
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woke.load(), kWaiters);
  EXPECT_EQ(token.current(), static_cast<std::uint64_t>(kWaiters) + 1);
}

TEST(TokenPark, SpinModeStillCompletes) {
  // Parking disabled: await() must behave exactly like the pre-parking loop.
  Token token;
  token.reset();
  token.set_park_enabled(false);
  std::thread waiter([&] { EXPECT_TRUE(token.await(1)); });
  token.pass(0);
  waiter.join();
}

// ---- Executor-level oversubscription ----------------------------------------

/// Runs a cascade on a pool of `threads` workers and checks the results are
/// exactly the sequential loop's.
void check_matches_sequential(unsigned threads) {
  CascadeExecutor ex(ExecutorConfig{threads, false});
  const std::uint64_t n = 20000;
  std::vector<std::uint64_t> got(n, 0);
  ex.run(n, 64, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) got[i] = i * 3 + 1;
  });
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(got[i], i * 3 + 1);
  const auto& stats = ex.last_run_stats();
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.chunks_executed, stats.num_chunks);
}

TEST(OversubscribedCascade, ParkModeCompletesCorrectly) {
  // 4x oversubscription: every waiter may park.
  check_matches_sequential(oversubscribed(4));
}

TEST(OversubscribedCascade, AutoModeCompletesCorrectly) {
  // The pool sizes on either side of the parking rule: one worker per core
  // spins, one worker more parks.  Both give the sequential loop's results.
  const unsigned cores = oversubscribed(1);
  {
    SCOPED_TRACE("workers == cores (spin)");
    check_matches_sequential(cores);
  }
  {
    SCOPED_TRACE("workers == cores + 1 (park)");
    check_matches_sequential(cores + 1);
  }
}

TEST(OversubscribedCascade, ParkModeLoopCarriedDependence) {
  // A loop-carried recurrence at 4x oversubscription: any token mis-ordering
  // introduced by the parking tier would change the final bits.
  CascadeExecutor ex(ExecutorConfig{oversubscribed(4), false});
  const std::uint64_t n = 10000;
  double want = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) want = want * 0.5 + static_cast<double>(i);
  double acc = 0.0;
  ex.run(n, 32, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) acc = acc * 0.5 + static_cast<double>(i);
  });
  EXPECT_EQ(acc, want);
}

TEST(OversubscribedCascade, ParkModeIsReusable) {
  CascadeExecutor ex(ExecutorConfig{oversubscribed(2), false});
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::uint64_t> sum{0};
    ex.run(1000, 16, [&](std::uint64_t b, std::uint64_t e) {
      std::uint64_t local = 0;
      for (std::uint64_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 1000ull * 999 / 2) << "round " << round;
  }
}

TEST(OversubscribedCascade, ParkModeWatchdogStillFires) {
  // A parked done-waiter must still notice a wedged cascade: worker 0 blocks
  // past the deadline while every other worker sleeps in the futex tier.
  const unsigned threads = oversubscribed(4);
  ExecutorConfig config{threads, false};
  config.watchdog = std::chrono::milliseconds(80);
  CascadeExecutor ex(config);
  EXPECT_THROW(ex.run(static_cast<std::uint64_t>(threads) * 4, 1,
                      [&](std::uint64_t b, std::uint64_t) {
                        if (b == 1) {  // second chunk stalls holding the token,
                                       // far past the deadline but bounded so
                                       // the pool can quiesce afterwards
                          std::this_thread::sleep_for(std::chrono::milliseconds(400));
                        }
                      }),
               casc::rt::WatchdogExpired);
  // The pool must have quiesced: the executor stays usable.
  std::atomic<std::uint64_t> count{0};
  ex.run(100, 10, [&](std::uint64_t b, std::uint64_t e) {
    count.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
}

}  // namespace
