// Fail-soft protocol tests: helper quarantine, chunk reclamation, bounded
// retry/backoff, soft-budget demotion, and the degradation bookkeeping that
// rides along (RunStats, state dumps, ExecContext).  Like the fault-injection
// suite, these assert protocol outcomes — a skipped helper (token already
// arrived) is always a legitimate interleaving — so every hard assertion
// holds on any core count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/state_dump.hpp"

namespace {

using casc::rt::CascadeExecutor;
using casc::rt::CascadeStateDump;
using casc::rt::ChaosOptions;
using casc::rt::ChaosPlan;
using casc::rt::ExecutorConfig;
using casc::rt::FaultPlan;
using casc::rt::RunStats;
using casc::rt::TokenWatch;

constexpr std::uint64_t kIters = 1000;
constexpr std::uint64_t kChunkIters = 50;  // 20 chunks
constexpr std::uint64_t kChunks = kIters / kChunkIters;

/// A helper that throws on every chunk owned by `worker` (chunk mod P).
casc::rt::HelperFn throw_for_worker(unsigned worker, unsigned num_threads) {
  return [worker, num_threads](std::uint64_t begin, std::uint64_t,
                               const TokenWatch&) -> bool {
    if ((begin / kChunkIters) % num_threads == worker) {
      throw casc::rt::InjectedFault("poisoned helper", begin / kChunkIters);
    }
    return true;
  };
}

/// A pool whose faulted helpers retry at once, so a helper that keeps
/// throwing reaches the executor's fault cap (3) and is quarantined.
ExecutorConfig instant_retry(unsigned num_threads) {
  ExecutorConfig config{num_threads, false};
  config.resilience.retry_backoff = std::chrono::milliseconds(0);
  return config;
}

/// Sets out[i] = i + 1 after a 1 ms pause, which lets every helper start
/// before its chunk's token arrives, so a poisoned helper faults on each of
/// its chunks until the cap quarantines it.
void slow_fill(std::vector<std::uint64_t>& out, std::uint64_t b, std::uint64_t e) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
}

void expect_complete_and_correct(CascadeExecutor& ex,
                                 const std::vector<std::uint64_t>& out) {
  const RunStats& stats = ex.last_run_stats();
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.chunks_executed, kChunks);
  EXPECT_EQ(stats.first_failed_chunk, RunStats::kNoFailedChunk);
  for (std::uint64_t i = 0; i < kIters; ++i) ASSERT_EQ(out[i], i + 1);
}

TEST(Quarantine, RepeatOffenderIsQuarantinedAndItsChunksReclaimed) {
  CascadeExecutor ex(instant_retry(2));
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) { slow_fill(out, b, e); },
      throw_for_worker(1, 2));
  expect_complete_and_correct(ex, out);
  const RunStats& stats = ex.last_run_stats();
  if (stats.helper_faults > 0) {
    EXPECT_EQ(stats.workers_quarantined, 1u);
    EXPECT_TRUE(stats.degraded());
    // The quarantined worker detached; the chunks it never executed were
    // reclaimed by the token holder.
    EXPECT_GE(stats.chunks_reclaimed, 1u);
  }
  // The quarantine is per-run state: the next run starts healthy.
  std::fill(out.begin(), out.end(), 0);
  ex.run(kIters, kChunkIters, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
  });
  expect_complete_and_correct(ex, out);
  EXPECT_FALSE(ex.last_run_stats().degraded());
}

TEST(Quarantine, Worker0QuarantineOnlyDisablesItsHelper) {
  // Worker 0 is the cascade's completion guarantee and never leaves it: its
  // quarantine disables its helper, nothing else.
  CascadeExecutor ex(instant_retry(2));
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) { slow_fill(out, b, e); },
      throw_for_worker(0, 2));
  expect_complete_and_correct(ex, out);
  const RunStats& stats = ex.last_run_stats();
  if (stats.helper_faults > 0) {
    EXPECT_EQ(stats.workers_quarantined, 1u);
  }
}

TEST(Quarantine, SingleThreadHelperFaultIsStillAbsorbed) {
  // P == 1: worker 0 is the whole cascade.  Its helper faulting must not
  // abort anything — the helper is disabled, execution continues in-line.
  CascadeExecutor ex(instant_retry(1));
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
      },
      throw_for_worker(0, 1));
  expect_complete_and_correct(ex, out);
}

TEST(Retry, FaultedHelperIsRetriedAfterBackoff) {
  CascadeExecutor ex(instant_retry(2));
  std::atomic<bool> armed{true};
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) {
        // A little work per chunk so helpers reliably get invoked.
        for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
      },
      [&](std::uint64_t, std::uint64_t, const TokenWatch&) -> bool {
        if (armed.exchange(false)) throw std::runtime_error("one-shot fault");
        return true;
      });
  expect_complete_and_correct(ex, out);
  const RunStats& stats = ex.last_run_stats();
  if (stats.helper_faults > 0) {
    // The one-shot fault put its worker in backoff; with a zero backoff the
    // worker's next helper turn retried it.  (The faulting worker may have
    // had no later helper turn on rare interleavings — then no retry.)
    EXPECT_LE(stats.helper_retries, stats.helper_faults);
    EXPECT_EQ(stats.workers_quarantined, 0u);
  }
}

TEST(Demotion, SoftBudgetDemotesAndStillCompletes) {
  ExecutorConfig config{2, false};
  CascadeExecutor ex(config);
  ex.set_soft_budget(std::chrono::milliseconds(1), std::chrono::milliseconds(2));
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) {
        // ~200us per chunk: the 20-chunk run blows through both budgets.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
      },
      [](std::uint64_t, std::uint64_t, const TokenWatch&) { return true; });
  expect_complete_and_correct(ex, out);
  const RunStats& stats = ex.last_run_stats();
  EXPECT_GE(stats.demotion_level, 1u);
  EXPECT_TRUE(stats.degraded());
  // Budgets persist on the executor until changed; disable for cleanliness.
  ex.set_soft_budget(std::chrono::milliseconds(0), std::chrono::milliseconds(0));
  std::fill(out.begin(), out.end(), 0);
  ex.run(kIters, kChunkIters, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
  });
  expect_complete_and_correct(ex, out);
  EXPECT_EQ(ex.last_run_stats().demotion_level, 0u);
}

TEST(ExecContext, ReclaimedAndDistrustedChunksAreFlagged) {
  CascadeExecutor ex(instant_retry(2));
  std::vector<char> reclaimed(kChunks, 0);
  std::vector<char> distrusted(kChunks, 0);
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) {
        const auto& ctx = ex.current_exec_context();
        const std::uint64_t c = b / kChunkIters;
        reclaimed[c] = ctx.reclaimed ? 1 : 0;
        distrusted[c] = ctx.staging_invalid ? 1 : 0;
        slow_fill(out, b, e);
      },
      throw_for_worker(1, 2));
  expect_complete_and_correct(ex, out);
  const RunStats& stats = ex.last_run_stats();
  std::uint64_t reclaimed_seen = 0;
  for (char c : reclaimed) reclaimed_seen += static_cast<std::uint64_t>(c);
  EXPECT_EQ(reclaimed_seen, stats.chunks_reclaimed);
  // Every reclaimed chunk also distrusts whatever staging its failed owner
  // may have committed.
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    if (reclaimed[c] != 0) {
      EXPECT_NE(distrusted[c], 0) << "chunk " << c;
    }
  }
}

TEST(StateDumpDegradation, SnapshotAndRenderCarryDegradationCounters) {
  CascadeExecutor ex(instant_retry(2));
  std::vector<std::uint64_t> out(kIters, 0);
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) { slow_fill(out, b, e); },
      throw_for_worker(1, 2));
  expect_complete_and_correct(ex, out);
  const CascadeStateDump dump = ex.snapshot();
  const RunStats& stats = ex.last_run_stats();
  EXPECT_EQ(dump.helper_faults, stats.helper_faults);
  EXPECT_EQ(dump.chunks_reclaimed, stats.chunks_reclaimed);
  EXPECT_EQ(dump.workers_quarantined, stats.workers_quarantined);
  if (stats.degraded()) {
    const std::string text = casc::rt::render(dump);
    EXPECT_NE(text.find("degraded:"), std::string::npos) << text;
  }
}

TEST(AbortAccounting, TransfersReflectExecutedChunksNotThePlan) {
  // Satellite fix: an aborted run used to report the full planned transfer
  // count.  Transfers only happen between executed chunks, so a run that
  // died at chunk k made at most k-1 hand-offs.
  CascadeExecutor ex(ExecutorConfig{2, false});
  for (const std::uint64_t failing : {std::uint64_t{0}, kChunks / 2}) {
    const FaultPlan plan = FaultPlan::throw_in_exec(failing, kChunkIters);
    EXPECT_THROW(
        ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {})),
        casc::rt::InjectedFault);
    const RunStats& stats = ex.last_run_stats();
    EXPECT_TRUE(stats.aborted);
    EXPECT_EQ(stats.chunks_executed, failing);
    EXPECT_EQ(stats.transfers, failing > 0 ? failing - 1 : 0);
  }
}

TEST(ChaosPlanTest, DeterministicPerSeedAndGeometry) {
  const ChaosPlan a = ChaosPlan::make(42, 64, kChunkIters);
  const ChaosPlan b = ChaosPlan::make(42, 64, kChunkIters);
  ASSERT_EQ(a.faults().size(), b.faults().size());
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    EXPECT_EQ(a.faults()[i].chunk, b.faults()[i].chunk);
    EXPECT_EQ(a.faults()[i].action, b.faults()[i].action);
    EXPECT_EQ(a.faults()[i].stall_for, b.faults()[i].stall_for);
  }
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(ChaosPlanTest, RespectsKindAndRateOptions) {
  ChaosOptions opt;
  opt.fault_rate = 0.0;
  EXPECT_TRUE(ChaosPlan::make(1, 1024, kChunkIters, opt).empty());
  opt.fault_rate = 1.0;
  opt.allow_stall = false;
  opt.allow_corrupt_staging = false;
  const ChaosPlan throws_only = ChaosPlan::make(1, 64, kChunkIters, opt);
  EXPECT_EQ(throws_only.faults().size(), 64u);
  for (const FaultPlan& f : throws_only.faults()) {
    EXPECT_EQ(f.action, FaultPlan::Action::kThrow);
    EXPECT_EQ(f.site, FaultPlan::Site::kHelper);
  }
}

TEST(ChaosPlanTest, ChaosRunCompletesWithCorrectResults) {
  // End-to-end: a full-rate chaos schedule over every fault kind, absorbed
  // by a 4-worker cascade with bit-correct output.
  ChaosOptions opt;
  opt.fault_rate = 1.0;
  opt.max_stall = std::chrono::milliseconds(1);
  const ChaosPlan plan = ChaosPlan::make(7, kChunks, kChunkIters, opt);
  ASSERT_EQ(plan.faults().size(), kChunks);
  CascadeExecutor ex(ExecutorConfig{4, false});
  std::vector<std::uint64_t> out(kIters, 0);
  const casc::rt::HelperFn armed =
      plan.arm([](std::uint64_t, std::uint64_t, const TokenWatch&) { return true; });
  ex.run(
      kIters, kChunkIters,
      [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) out[i] = i + 1;
      },
      armed);
  expect_complete_and_correct(ex, out);
}

}  // namespace
