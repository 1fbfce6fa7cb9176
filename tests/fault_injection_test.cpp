// Fault-tolerance tests for the real-thread runtime.  Exec-phase faults are
// fail-stop: an exception or stall in the main line of control must abort
// the cascade, propagate to the calling thread, and leave the executor
// reusable — never std::terminate, never a wedged pool.  Helper-phase faults
// are always absorbed via backoff/quarantine/reclamation with the run
// completing normally.  All tests must pass on any core count (including a
// single-core host), so they assert protocol outcomes, not wall-clock timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "casc/common/check.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/state_dump.hpp"
#include "casc/rt/token.hpp"
#include "casc/telemetry/event_log.hpp"

namespace {

using casc::common::CheckFailure;
using casc::rt::CascadeExecutor;
using casc::rt::CascadeStateDump;
using casc::rt::ExecutorConfig;
using casc::rt::FaultPlan;
using casc::rt::InjectedFault;
using casc::rt::RunStats;
using casc::rt::Token;
using casc::rt::TokenWatch;
using casc::rt::WatchdogExpired;
using casc::rt::WorkerPhase;

constexpr std::uint64_t kIters = 1000;
constexpr std::uint64_t kChunkIters = 50;  // 20 chunks
constexpr std::uint64_t kChunks = kIters / kChunkIters;

/// Runs a correctness-checked cascade to prove the executor still works.
void expect_successful_run(CascadeExecutor& ex) {
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(kIters, kChunkIters, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
  });
  for (std::uint64_t i = 0; i < kIters; ++i) ASSERT_EQ(out[i], i + 1);
  const RunStats& stats = ex.last_run_stats();
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.chunks_executed, kChunks);
  EXPECT_EQ(stats.first_failed_chunk, RunStats::kNoFailedChunk);
}

// ---- abort primitives ------------------------------------------------------

TEST(TokenAbort, AwaitReturnsFalseOnAbort) {
  Token t;
  t.reset();
  t.abort();
  EXPECT_FALSE(t.await(5));  // would spin forever without the poison sentinel
  EXPECT_TRUE(t.aborted());
}

TEST(TokenAbort, WatchReportsSignalledOnAbort) {
  Token t;
  t.reset();
  const TokenWatch watch(&t, 7);
  EXPECT_FALSE(watch.signalled());
  t.abort();
  EXPECT_TRUE(watch.signalled());
}

TEST(TokenAbort, ResetClearsThePoison) {
  Token t;
  t.abort();
  t.reset();
  EXPECT_FALSE(t.aborted());
  EXPECT_TRUE(t.await(0));
}

// ---- exception propagation -------------------------------------------------

class FaultThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(FaultThreads, ExecThrowRethrownOnCallingThread) {
  CascadeExecutor ex(ExecutorConfig{GetParam(), false});
  // Throw on every chunk owner in turn: chunk 0 (the calling thread), a
  // middle chunk, and the last chunk.
  for (const std::uint64_t failing : {std::uint64_t{0}, kChunks / 2, kChunks - 1}) {
    const FaultPlan plan = FaultPlan::throw_in_exec(failing, kChunkIters);
    try {
      ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {}));
      FAIL() << "run() must rethrow the injected fault (chunk " << failing << ")";
    } catch (const InjectedFault& e) {
      EXPECT_EQ(e.chunk(), failing);
    }
    const RunStats& stats = ex.last_run_stats();
    EXPECT_TRUE(stats.aborted);
    EXPECT_EQ(stats.first_failed_chunk, failing);
    // Execution phases run in strict chunk order, so exactly the chunks
    // before the failing one completed.
    EXPECT_EQ(stats.chunks_executed, failing);
    EXPECT_LE(stats.transfers, kChunks - 1);
    // The executor must be immediately reusable after a failed run.
    expect_successful_run(ex);
  }
}

TEST_P(FaultThreads, HelperThrowIsAbsorbedFailSoft) {
  // The fail-soft contract: a helper fault never surfaces on the calling
  // thread and never aborts the cascade — it is charged to the worker's
  // health and the run completes with every chunk executed.
  CascadeExecutor ex(ExecutorConfig{GetParam(), false});
  const std::uint64_t failing = kChunks - 1;
  const FaultPlan plan = FaultPlan::throw_in_helper(failing, kChunkIters);
  ex.run(
      kIters, kChunkIters, [](std::uint64_t, std::uint64_t) {},
      plan.arm([](std::uint64_t, std::uint64_t, const TokenWatch&) { return true; }));
  const RunStats& stats = ex.last_run_stats();
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.chunks_executed, kChunks);
  EXPECT_EQ(stats.first_failed_chunk, RunStats::kNoFailedChunk);
  // The helper may have been skipped (token already arrived); when it did
  // fire, the fault must be on the books and the run flagged degraded.
  if (stats.helper_faults > 0) {
    EXPECT_TRUE(stats.degraded());
  }
  expect_successful_run(ex);
}

TEST_P(FaultThreads, ArbitraryExceptionTypesPropagate) {
  CascadeExecutor ex(ExecutorConfig{GetParam(), false});
  EXPECT_THROW(ex.run(kIters, kChunkIters,
                      [](std::uint64_t b, std::uint64_t) {
                        if (b == 2 * kChunkIters) throw std::string("not even std::exception");
                      }),
               std::string);
  expect_successful_run(ex);
}

TEST_P(FaultThreads, RepeatedFailuresDoNotWedgeThePool) {
  CascadeExecutor ex(ExecutorConfig{GetParam(), false});
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t failing = static_cast<std::uint64_t>(round) % kChunks;
    const FaultPlan plan = FaultPlan::throw_in_exec(failing, kChunkIters);
    EXPECT_THROW(
        ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {})),
        InjectedFault);
  }
  expect_successful_run(ex);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, FaultThreads,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

// ---- watchdog ----------------------------------------------------------------

TEST(Watchdog, StalledExecTriggersWatchdogExpired) {
  ExecutorConfig config{4, false};
  config.watchdog = std::chrono::milliseconds(100);
  CascadeExecutor ex(config);
  // Stall chunk 1 far beyond the deadline.  The stall is finite — a wedged
  // thread can only be awaited, never preempted — so run() returns, but it
  // must report the expiry rather than pretend the run was healthy.
  const FaultPlan plan =
      FaultPlan::stall_in_exec(1, kChunkIters, std::chrono::milliseconds(400));
  try {
    ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {}));
    FAIL() << "run() must throw WatchdogExpired";
  } catch (const WatchdogExpired& e) {
    const CascadeStateDump& dump = e.dump();
    EXPECT_TRUE(dump.watchdog_expired);
    EXPECT_EQ(dump.num_chunks, kChunks);
    EXPECT_EQ(dump.workers.size(), 4u);
    // The dump was captured while the cascade was stuck.  Detection timing
    // is best-effort: usually the token is still parked at the stalled
    // chunk, but under heavy load (e.g. sanitizer CI) the stall can end
    // before any poller notices the deadline, letting a successor run a
    // chunk or two first.  Either way the cascade must not have finished.
    EXPECT_GE(dump.token, 1u);
    EXPECT_LT(dump.token, kChunks);
  }
  EXPECT_TRUE(ex.last_run_stats().aborted);
  expect_successful_run(ex);
}

TEST(Watchdog, SingleThreadStallIsStillCaught) {
  // With P == 1 nobody is ever blocked in await, so expiry is detected at
  // the next chunk boundary.
  ExecutorConfig config{1, false};
  config.watchdog = std::chrono::milliseconds(50);
  CascadeExecutor ex(config);
  const FaultPlan plan =
      FaultPlan::stall_in_exec(0, kChunkIters, std::chrono::milliseconds(200));
  EXPECT_THROW(
      ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {})),
      WatchdogExpired);
  EXPECT_TRUE(ex.last_run_stats().aborted);
  expect_successful_run(ex);
}

TEST(Watchdog, StalledHelperIsRescuedFailSoft) {
  // A helper that ignores jump-out wedges its own chunk's execution phase
  // (helper and exec share a thread); the runtime reclaims the wedged chunk
  // after the stall grace instead of letting the watchdog kill the run.
  ExecutorConfig config{2, false};
  config.watchdog = std::chrono::milliseconds(5000);
  CascadeExecutor ex(config);
  const FaultPlan plan = FaultPlan::stall_in_helper(
      1, kChunkIters, std::chrono::milliseconds(150), /*honor_jump_out=*/false);
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
      },
      plan.arm([](std::uint64_t, std::uint64_t, const TokenWatch&) { return true; }));
  const RunStats& stats = ex.last_run_stats();
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.chunks_executed, kChunks);
  for (std::uint64_t i = 0; i < kIters; ++i) ASSERT_EQ(out[i], i + 1);
  expect_successful_run(ex);
}

TEST(Watchdog, ParkedStallInHelperIsRescuedFailSoft) {
  // The same stall with the waiters parked (twice as many workers as cores,
  // so the executor parks them): the wedged chunk is reclaimed and the
  // cascade completes without the watchdog firing.
  ExecutorConfig config{2 * std::max(1u, std::thread::hardware_concurrency()), false};
  config.watchdog = std::chrono::milliseconds(5000);
  CascadeExecutor ex(config);
  const FaultPlan plan = FaultPlan::stall_in_helper(
      2, kChunkIters, std::chrono::milliseconds(150), /*honor_jump_out=*/false);
  ex.run(
      kIters, kChunkIters, [](std::uint64_t, std::uint64_t) {},
      plan.arm([](std::uint64_t, std::uint64_t, const TokenWatch&) { return true; }));
  const RunStats& stats = ex.last_run_stats();
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.chunks_executed, kChunks);
  expect_successful_run(ex);
}

TEST(Watchdog, WellBehavedHelperStallHonoursJumpOutAndSucceeds) {
  // A stalling helper that polls the watch jumps out when its turn comes:
  // the cascade finishes with no watchdog involvement.
  ExecutorConfig config{2, false};
  config.watchdog = std::chrono::milliseconds(2000);
  CascadeExecutor ex(config);
  const FaultPlan plan = FaultPlan::stall_in_helper(
      1, kChunkIters, std::chrono::milliseconds(10000), /*honor_jump_out=*/true);
  ex.run(
      kIters, kChunkIters, [](std::uint64_t, std::uint64_t) {},
      plan.arm([](std::uint64_t, std::uint64_t, const TokenWatch&) { return true; }));
  EXPECT_FALSE(ex.last_run_stats().aborted);
  EXPECT_EQ(ex.last_run_stats().chunks_executed, kChunks);
}

TEST(Watchdog, HealthyRunNeverTrips) {
  ExecutorConfig config{4, false};
  config.watchdog = std::chrono::milliseconds(10000);
  CascadeExecutor ex(config);
  expect_successful_run(ex);
}

// ---- re-entrancy guard -------------------------------------------------------

TEST(Reentrancy, RunInsideExecFnFailsLoudly) {
  CascadeExecutor ex(ExecutorConfig{2, false});
  // The nested run() throws CheckFailure inside the exec phase; the outer
  // run() captures and rethrows it — loud failure instead of deadlock.
  EXPECT_THROW(ex.run(kIters, kChunkIters,
                      [&](std::uint64_t b, std::uint64_t) {
                        if (b == 0) {
                          ex.run(10, 5, [](std::uint64_t, std::uint64_t) {});
                        }
                      }),
               CheckFailure);
  expect_successful_run(ex);
}

TEST(Reentrancy, ConcurrentRunFromAnotherThreadFailsLoudly) {
  CascadeExecutor ex(ExecutorConfig{2, false});
  std::atomic<bool> started{false};
  std::thread runner([&] {
    ex.run(8, 1, [&](std::uint64_t, std::uint64_t) {
      started.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
  });
  while (!started.load()) std::this_thread::yield();
  EXPECT_THROW(ex.run(10, 5, [](std::uint64_t, std::uint64_t) {}), CheckFailure);
  runner.join();
  expect_successful_run(ex);
}

// ---- diagnostics -------------------------------------------------------------

TEST(StateDump, SnapshotOfIdleExecutor) {
  CascadeExecutor ex(ExecutorConfig{3, false});
  expect_successful_run(ex);
  const CascadeStateDump dump = ex.snapshot();
  EXPECT_FALSE(dump.run_active);
  EXPECT_FALSE(dump.aborted);
  EXPECT_EQ(dump.token, kChunks);
  EXPECT_EQ(dump.num_chunks, kChunks);
  EXPECT_EQ(dump.total_iters, kIters);
  ASSERT_EQ(dump.workers.size(), 3u);
  std::uint64_t iters = 0;
  for (const auto& w : dump.workers) {
    EXPECT_EQ(w.phase, WorkerPhase::kIdle);
    iters += w.iters_completed;
  }
  EXPECT_EQ(iters, kIters) << "every iteration is attributed to some worker";
}

TEST(StateDump, DumpStateSeesLiveExecutors) {
  const std::size_t before = casc::rt::dump_state().size();
  {
    CascadeExecutor ex(ExecutorConfig{2, false});
    EXPECT_EQ(casc::rt::dump_state().size(), before + 1);
  }
  EXPECT_EQ(casc::rt::dump_state().size(), before);
}

TEST(StateDump, RenderMentionsTokenAndWorkers) {
  CascadeExecutor ex(ExecutorConfig{2, false});
  expect_successful_run(ex);
  const std::string text = casc::rt::render(ex.snapshot());
  EXPECT_NE(text.find("token=" + std::to_string(kChunks)), std::string::npos) << text;
  EXPECT_NE(text.find("worker 0"), std::string::npos) << text;
  EXPECT_NE(text.find("worker 1"), std::string::npos) << text;
}

TEST(StateDump, WatchdogDumpCarriesRecentTelemetryEvents) {
  // With an EventLog attached, the dump captured at watchdog expiry must
  // include the trailing phase events — the "what was everyone doing just
  // before it wedged" evidence — and render() must show them.
  casc::telemetry::EventLog log(4, 256);
  ExecutorConfig config{4, false};
  config.watchdog = std::chrono::milliseconds(100);
  config.event_log = &log;
  CascadeExecutor ex(config);
  const FaultPlan plan =
      FaultPlan::stall_in_exec(1, kChunkIters, std::chrono::milliseconds(400));
  try {
    ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {}));
    FAIL() << "run() must throw WatchdogExpired";
  } catch (const WatchdogExpired& e) {
    const CascadeStateDump& dump = e.dump();
    ASSERT_FALSE(dump.recent_events.empty());
    EXPECT_LE(dump.recent_events.size(), CascadeStateDump::kRecentEvents);
    // The stalled chunk's exec began; that event must be in the evidence.
    bool saw_exec_begin = false;
    for (const auto& ev : dump.recent_events) {
      if (ev.kind == casc::telemetry::EventKind::kExecBegin) saw_exec_begin = true;
    }
    EXPECT_TRUE(saw_exec_begin);
    const std::string text = casc::rt::render(dump);
    EXPECT_NE(text.find("recent events"), std::string::npos) << text;
    EXPECT_NE(text.find("exec_begin"), std::string::npos) << text;
  }
  expect_successful_run(ex);
}

TEST(StateDump, SnapshotDuringRunShowsActiveCascade) {
  CascadeExecutor ex(ExecutorConfig{2, false});
  std::atomic<bool> observed{false};
  CascadeStateDump seen;
  std::atomic<bool> in_chunk{false};
  std::thread observer([&] {
    while (!in_chunk.load()) std::this_thread::yield();
    seen = ex.snapshot();
    observed.store(true);
  });
  ex.run(kIters, kChunkIters, [&](std::uint64_t, std::uint64_t) {
    in_chunk.store(true);
    while (!observed.load()) std::this_thread::yield();
  });
  observer.join();
  EXPECT_TRUE(seen.run_active);
  EXPECT_EQ(seen.num_chunks, kChunks);
}

}  // namespace
