// Tests for the real-thread runtime: token protocol, executor correctness
// (results identical to sequential execution), helper behaviour, stats.
// These tests must pass on any core count, including a single-core host, so
// they assert correctness and protocol invariants — never wall-clock timing.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "casc/common/check.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/helpers.hpp"
#include "casc/rt/token.hpp"

namespace {

using casc::common::CheckFailure;
using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::Token;
using casc::rt::TokenWatch;

TEST(Token, StartsAtZeroAndPasses) {
  Token t;
  t.reset();
  EXPECT_EQ(t.current(), 0u);
  t.pass(0);
  EXPECT_EQ(t.current(), 1u);
  t.pass(1);
  EXPECT_EQ(t.current(), 2u);
}

TEST(Token, AwaitReturnsImmediatelyWhenHeld) {
  Token t;
  t.reset();
  EXPECT_TRUE(t.await(0));  // must not hang
  t.pass(0);
  EXPECT_TRUE(t.await(1));
}

TEST(TokenWatch, SignalledOnceTurnArrives) {
  Token t;
  t.reset();
  const TokenWatch w(&t, 2);
  EXPECT_FALSE(w.signalled());
  t.pass(0);
  EXPECT_FALSE(w.signalled());
  t.pass(1);
  EXPECT_TRUE(w.signalled());
  EXPECT_EQ(w.chunk(), 2u);
}

class ExecutorThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExecutorThreads, ProducesSequentialResult) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  const std::uint64_t n = 10000;
  std::vector<std::uint64_t> out(n, 0);
  // body: out[i] = i^2; any reordering or lost iteration corrupts the sum.
  ex.run(n, 128, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) out[i] = i * i;
  });
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * i) << "iteration " << i;
}

TEST_P(ExecutorThreads, LoopCarriedDependencePreserved) {
  // acc[i] = acc[i-1] + 1: only correct if iterations run in strict order
  // with cross-chunk visibility (the release/acquire pair on the token).
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  const std::uint64_t n = 5000;
  std::vector<std::uint64_t> acc(n + 1, 0);
  ex.run(n, 64, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) acc[i + 1] = acc[i] + 1;
  });
  EXPECT_EQ(acc[n], n);
}

TEST_P(ExecutorThreads, ExactlyOneExecutionPhaseAtATime) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  std::atomic<int> in_exec{0};
  std::atomic<bool> violated{false};
  ex.run(2000, 50, [&](std::uint64_t, std::uint64_t) {
    if (in_exec.fetch_add(1) != 0) violated = true;
    for (volatile int spin = 0; spin < 200;) {
      spin = spin + 1;
    }
    in_exec.fetch_sub(1);
  });
  EXPECT_FALSE(violated.load()) << "two execution phases overlapped";
}

TEST_P(ExecutorThreads, ChunksArriveInOrder) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  std::vector<std::uint64_t> begins;
  ex.run(1000, 64, [&](std::uint64_t b, std::uint64_t) { begins.push_back(b); });
  ASSERT_EQ(begins.size(), 16u);
  for (std::size_t i = 0; i < begins.size(); ++i) EXPECT_EQ(begins[i], i * 64);
}

TEST_P(ExecutorThreads, HelperPrecedesExecOnTheSameThread) {
  // A chunk's helper (when it runs at all — the executor may skip it if the
  // token has already arrived) must run on the thread that later executes
  // the chunk, and strictly before its execution phase.
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  constexpr int kChunks = 12;
  std::atomic<std::uint64_t> clock{0};
  std::array<std::uint64_t, kChunks> helper_at{};
  std::array<std::uint64_t, kChunks> exec_at{};
  std::array<std::thread::id, kChunks> helper_tid{};
  std::array<std::thread::id, kChunks> exec_tid{};
  std::array<bool, kChunks> helper_ran{};
  ex.run(
      kChunks * 10, 10,
      [&](std::uint64_t b, std::uint64_t) {
        exec_at[b / 10] = ++clock;
        exec_tid[b / 10] = std::this_thread::get_id();
      },
      [&](std::uint64_t b, std::uint64_t, const TokenWatch&) {
        helper_ran[b / 10] = true;
        helper_at[b / 10] = ++clock;
        helper_tid[b / 10] = std::this_thread::get_id();
        return true;
      });
  for (int c = 0; c < kChunks; ++c) {
    ASSERT_GT(exec_at[c], 0u) << "chunk " << c << " never executed";
    if (helper_ran[c]) {
      EXPECT_LT(helper_at[c], exec_at[c]) << "chunk " << c;
      EXPECT_EQ(helper_tid[c], exec_tid[c]) << "chunk " << c;
    }
  }
}

TEST_P(ExecutorThreads, StatsAccountForEveryChunk) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  ex.run(
      1000, 64, [](std::uint64_t, std::uint64_t) {},
      [](std::uint64_t, std::uint64_t, const TokenWatch&) { return true; });
  const auto& stats = ex.last_run_stats();
  EXPECT_EQ(stats.num_chunks, 16u);
  // The final pass() has no receiving processor, so 16 chunks make 15
  // hand-offs (the paper's "#chunks x transfer cost" model).
  EXPECT_EQ(stats.transfers, 15u);
  // Chunk 0 has no helper phase; every other chunk's helper either finished
  // or jumped out.
  EXPECT_EQ(stats.helpers_completed + stats.helpers_jumped_out, 15u);
  EXPECT_EQ(stats.chunks_executed, 16u);
  EXPECT_EQ(stats.total_iters, 1000u);
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.first_failed_chunk, casc::rt::RunStats::kNoFailedChunk);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ExecutorThreads,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Executor, ZeroIterationsIsANoop) {
  CascadeExecutor ex(ExecutorConfig{2, false});
  int calls = 0;
  ex.run(0, 10, [&](std::uint64_t, std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(ex.last_run_stats().num_chunks, 0u);
}

TEST(Executor, RejectsMissingExecOrZeroChunk) {
  CascadeExecutor ex(ExecutorConfig{2, false});
  EXPECT_THROW(ex.run(10, 0, [](std::uint64_t, std::uint64_t) {}), CheckFailure);
  EXPECT_THROW(ex.run(10, 5, casc::rt::ExecFn{}), CheckFailure);
}

TEST(Executor, ReusableAcrossRuns) {
  CascadeExecutor ex(ExecutorConfig{3, false});
  for (int round = 0; round < 5; ++round) {
    std::uint64_t sum = 0;
    ex.run(100, 7, [&](std::uint64_t b, std::uint64_t e) {
      for (std::uint64_t i = b; i < e; ++i) sum += i;
    });
    EXPECT_EQ(sum, 4950u) << "round " << round;
  }
}

TEST(Executor, SingleChunkDegeneratesToCallerOnly) {
  CascadeExecutor ex(ExecutorConfig{4, false});
  const auto caller = std::this_thread::get_id();
  std::thread::id exec_thread;
  ex.run(10, 100, [&](std::uint64_t, std::uint64_t) {
    exec_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(exec_thread, caller) << "chunk 0 belongs to the calling thread";
}

TEST(Executor, SingleChunkRunHasNoHandOffs) {
  // total_iters < iters_per_chunk: one chunk, zero control transfers — the
  // cascade degenerates to a plain sequential loop on the caller.
  CascadeExecutor ex(ExecutorConfig{4, false});
  std::uint64_t covered = 0;
  ex.run(
      10, 100, [&](std::uint64_t b, std::uint64_t e) { covered = e - b; },
      [](std::uint64_t, std::uint64_t, const TokenWatch&) { return true; });
  const auto& stats = ex.last_run_stats();
  EXPECT_EQ(covered, 10u);
  EXPECT_EQ(stats.num_chunks, 1u);
  EXPECT_EQ(stats.transfers, 0u);
  EXPECT_EQ(stats.chunks_executed, 1u);
  // Chunk 0 has no helper phase, so nothing is completed or jumped out.
  EXPECT_EQ(stats.helpers_completed, 0u);
  EXPECT_EQ(stats.helpers_jumped_out, 0u);
}

TEST(Executor, SingleThreadSkipsEveryHelper) {
  // With P == 1 the token is always already at the worker's next chunk when
  // the helper would start (the executor.cpp skip-when-signalled branch):
  // every helper after chunk 0's (which has no helper phase) must be counted
  // as jumped out and never invoked.
  CascadeExecutor ex(ExecutorConfig{1, false});
  std::uint64_t helper_calls = 0;
  ex.run(
      640, 64, [](std::uint64_t, std::uint64_t) {},
      [&](std::uint64_t, std::uint64_t, const TokenWatch&) {
        ++helper_calls;
        return true;
      });
  const auto& stats = ex.last_run_stats();
  EXPECT_EQ(helper_calls, 0u);
  EXPECT_EQ(stats.helpers_completed, 0u);
  EXPECT_EQ(stats.helpers_jumped_out, 9u);
  EXPECT_EQ(stats.chunks_executed, 10u);
  EXPECT_EQ(stats.transfers, 9u);
}

TEST(Executor, ZeroIterationsAfterFailedRunResetsStats) {
  CascadeExecutor ex(ExecutorConfig{2, false});
  EXPECT_THROW(ex.run(100, 10,
                      [](std::uint64_t b, std::uint64_t) {
                        if (b == 30) throw std::runtime_error("boom");
                      }),
               std::runtime_error);
  EXPECT_TRUE(ex.last_run_stats().aborted);
  int calls = 0;
  ex.run(0, 10, [&](std::uint64_t, std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(ex.last_run_stats().num_chunks, 0u);
  EXPECT_FALSE(ex.last_run_stats().aborted) << "a no-op run clears the failure";
  EXPECT_EQ(ex.last_run_stats().first_failed_chunk,
            casc::rt::RunStats::kNoFailedChunk);
}

TEST(Executor, DefaultThreadCountIsHardwareConcurrency) {
  CascadeExecutor ex;
  EXPECT_EQ(ex.num_threads(),
            std::max(1u, std::thread::hardware_concurrency()));
}

// ---- run_tasks: fork-join on the pool ---------------------------------------

class TaskThreads : public ::testing::TestWithParam<unsigned> {};

/// 0 + 1 + ... + 99 as a cascade of 7-iteration chunks on `ex`.
std::uint64_t cascade_sum(CascadeExecutor& ex) {
  std::uint64_t sum = 0;
  ex.run(100, 7, [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) sum += i;
  });
  return sum;
}

TEST_P(TaskThreads, EveryIndexRunsExactlyOnce) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{threads - 1},
        std::uint64_t{threads}, std::uint64_t{1000}}) {
    std::vector<std::atomic<unsigned>> hits(n);
    ex.run_tasks(n, [&](std::uint64_t i) { hits[i].fetch_add(1); });
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "n=" << n << " index " << i;
    }
  }
}

TEST_P(TaskThreads, OneTaskPerWorkerMeetAtABarrier) {
  // Each task waits until all P have arrived: only a pool that runs P tasks
  // at once gets every task past the barrier.  The timeout turns a serial
  // hand-out into a failure instead of a hang.
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  std::atomic<unsigned> arrived{0};
  std::atomic<unsigned> met{0};
  ex.run_tasks(threads, [&](std::uint64_t) {
    arrived.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < threads && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (arrived.load() == threads) met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), threads);
}

TEST_P(TaskThreads, TasksRunOnTheWorkersACascadeRunsOn) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  // Chunk c executes on worker c mod P, so 8P chunks visit every worker.
  std::set<std::thread::id> workers;
  ex.run(8 * threads, 1, [&](std::uint64_t, std::uint64_t) {
    workers.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(workers.size(), threads);
  std::mutex mutex;
  std::set<std::thread::id> task_threads;
  ex.run_tasks(1000, [&](std::uint64_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    task_threads.insert(std::this_thread::get_id());
  });
  for (const std::thread::id id : task_threads) {
    EXPECT_TRUE(workers.count(id)) << "a task ran outside the pool";
  }
}

TEST_P(TaskThreads, ThrowingTaskRethrowsAndLeavesTheExecutorUsable) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  std::atomic<std::uint64_t> ran{0};
  try {
    ex.run_tasks(200, [&](std::uint64_t i) {
      ran.fetch_add(1);
      if (i == 37) throw std::runtime_error("task 37");
    });
    ADD_FAILURE() << "run_tasks did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 37");
  }
  EXPECT_GE(ran.load(), 38u) << "indices are handed out in order";

  EXPECT_EQ(cascade_sum(ex), 4950u);
  std::atomic<std::uint64_t> total{0};
  ex.run_tasks(100, [&](std::uint64_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 4950u);
}

TEST_P(TaskThreads, LeavesTheLastCascadesStatsAlone) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  ex.run(1000, 64, [](std::uint64_t, std::uint64_t) {});
  ex.run_tasks(50, [](std::uint64_t) {});
  const auto& stats = ex.last_run_stats();
  EXPECT_EQ(stats.num_chunks, 16u);
  EXPECT_EQ(stats.chunks_executed, 16u);
  EXPECT_EQ(stats.total_iters, 1000u);
}

TEST_P(TaskThreads, NestingEitherWayFailsLoudly) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads, false});
  EXPECT_THROW(ex.run(100, 10,
                      [&](std::uint64_t, std::uint64_t) {
                        ex.run_tasks(1, [](std::uint64_t) {});
                      }),
               CheckFailure);
  EXPECT_THROW(ex.run_tasks(4,
                            [&](std::uint64_t) {
                              ex.run(10, 5, [](std::uint64_t, std::uint64_t) {});
                            }),
               CheckFailure);
  EXPECT_EQ(cascade_sum(ex), 4950u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TaskThreads, ::testing::Values(1u, 2u, 4u));

TEST(Executor, SingleWorkerRunsTasksInOrderOnTheCaller) {
  CascadeExecutor ex(ExecutorConfig{1, false});
  const auto caller = std::this_thread::get_id();
  std::vector<std::uint64_t> order;
  ex.run_tasks(20, [&](std::uint64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::uint64_t> want(20);
  std::iota(want.begin(), want.end(), std::uint64_t{0});
  EXPECT_EQ(order, want);
}

TEST(Helpers, PrefetchSpanCompletesWithoutSignal) {
  Token t;
  t.reset();
  std::vector<double> data(4096, 1.0);
  const TokenWatch watch(&t, 5);  // far in the future: never signalled
  EXPECT_TRUE(casc::rt::prefetch_span(data.data(), 0, data.size(), watch));
}

TEST(Helpers, PrefetchSpanJumpsOutWhenSignalled) {
  Token t;
  t.reset();
  std::vector<double> data(4096, 1.0);
  const TokenWatch watch(&t, 0);  // chunk 0 is already signalled
  EXPECT_FALSE(casc::rt::prefetch_span(data.data(), 0, data.size(), watch,
                                       /*poll_every=*/1));
}

}  // namespace
