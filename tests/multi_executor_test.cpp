// Multi-executor coexistence audit: casc::svc runs one CascadeExecutor per
// shard in the same process, so nothing in the runtime — token rings, futex
// parking, state-dump registry, telemetry — may be process-global mutable
// state.  These tests run >= 4 executors concurrently (with and without
// chaos, pinned and unpinned, across construction/destruction churn, and
// interleaving fork-join task jobs with cascades) and require every cascade
// to stay bit-identical to the sequential reference.
// The TSan CI job runs this binary to catch any shared-static race.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/state_dump.hpp"

namespace {

using namespace casc;

constexpr const char* kSpec = R"(loop multi
trip 4096
compute 4 3
layout conflicting
array y 8 4096 rw
array a 8 4096 ro
array b 8 4096 ro
access a read
access b read
access y write
)";

constexpr unsigned kExecutors = 4;
constexpr unsigned kThreadsEach = 2;

std::uint64_t mix(std::uint64_t seed, std::uint64_t n) {
  std::uint64_t z = seed + n * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Runs `runs` cascades on a private executor + private loop; every digest
/// must match the caller-computed reference.  Returns the failure count.
std::uint64_t drive(unsigned id, unsigned runs, bool pin, bool chaos,
                    std::uint64_t want_digest, std::uint64_t want_rw) {
  rt::ExecutorConfig cfg;
  cfg.num_threads = kThreadsEach;
  cfg.name = "stress-" + std::to_string(id);
  if (pin) {
    const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned k = 0; k < kThreadsEach; ++k) {
      cfg.cpus.push_back((id * kThreadsEach + k) % ncpu);
    }
  }
  cfg.resilience.retry_backoff = std::chrono::milliseconds(0);
  rt::CascadeExecutor executor(cfg);
  exec::MaterializedLoop loop(loopir::LoopSpec::parse(kSpec));

  std::uint64_t failures = 0;
  for (unsigned r = 0; r < runs; ++r) {
    exec::RtOptions opt;
    opt.helper = r % 3 == 0   ? exec::HelperMode::kNone
                 : r % 3 == 1 ? exec::HelperMode::kPrefetch
                              : exec::HelperMode::kRestructure;
    opt.iters_per_chunk = 512;
    rt::ChaosPlan plan;
    if (chaos) {
      plan = rt::ChaosPlan::make(mix(id, r), /*num_chunks=*/8,
                                 /*iters_per_chunk=*/512);
      opt.chaos = &plan;
    }
    try {
      const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
      if (got.digest != want_digest || got.rw_checksum != want_rw) ++failures;
    } catch (const std::exception&) {
      ++failures;
    }
  }
  return failures;
}

std::pair<std::uint64_t, std::uint64_t> reference() {
  exec::MaterializedLoop loop(loopir::LoopSpec::parse(kSpec));
  const exec::ExecResult ref = exec::run_reference(loop);
  return {ref.digest, ref.rw_checksum};
}

TEST(MultiExecutor, ConcurrentRingsStayBitIdentical) {
  const auto [digest, rw] = reference();
  std::vector<std::uint64_t> failures(kExecutors, 0);
  std::vector<std::thread> threads;
  for (unsigned id = 0; id < kExecutors; ++id) {
    threads.emplace_back([&, id] {
      failures[id] = drive(id, /*runs=*/24, /*pin=*/false, /*chaos=*/false,
                           digest, rw);
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned id = 0; id < kExecutors; ++id) {
    EXPECT_EQ(failures[id], 0u) << "executor " << id;
  }
}

TEST(MultiExecutor, PinnedPartitionsWithChaos) {
  // The svc shape: core-partitioned rings, one of them under chaos, all
  // degrading independently without cross-ring interference.
  const auto [digest, rw] = reference();
  std::vector<std::uint64_t> failures(kExecutors, 0);
  std::vector<std::thread> threads;
  for (unsigned id = 0; id < kExecutors; ++id) {
    threads.emplace_back([&, id] {
      failures[id] = drive(id, /*runs=*/16, /*pin=*/true, /*chaos=*/id == 0,
                           digest, rw);
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned id = 0; id < kExecutors; ++id) {
    EXPECT_EQ(failures[id], 0u) << "executor " << id;
  }
}

TEST(MultiExecutor, ConstructionChurnWhileOthersRun) {
  // Executor construction/destruction registers and unregisters with the
  // process-wide state-dump registry; churning that while other rings run
  // exercises the registry lock against the hot path.
  const auto [digest, rw] = reference();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> churn_failures{0};
  std::thread churner([&] {
    unsigned n = 0;
    while (!stop.load()) {
      churn_failures += drive(100 + n++, /*runs=*/2, /*pin=*/false,
                              /*chaos=*/false, digest, rw);
    }
  });
  std::uint64_t steady_failures =
      drive(0, /*runs=*/32, /*pin=*/false, /*chaos=*/true, digest, rw);
  stop.store(true);
  churner.join();
  EXPECT_EQ(steady_failures, 0u);
  EXPECT_EQ(churn_failures.load(), 0u);
}

TEST(MultiExecutor, TaskJobsAndCascadesInterleave) {
  // Each ring alternates a fork-join task job with a cascade on the same
  // pool: every task index runs once, and every cascade stays exact.
  const auto [digest, rw] = reference();
  std::vector<std::uint64_t> failures(kExecutors, 0);
  std::vector<std::thread> threads;
  for (unsigned id = 0; id < kExecutors; ++id) {
    threads.emplace_back([&, id] {
      rt::ExecutorConfig cfg;
      cfg.num_threads = kThreadsEach;
      rt::CascadeExecutor executor(cfg);
      exec::MaterializedLoop loop(loopir::LoopSpec::parse(kSpec));
      exec::RtOptions opt;
      opt.iters_per_chunk = 512;
      for (unsigned r = 0; r < 12; ++r) {
        std::vector<std::atomic<unsigned>> hits(64 + id);
        executor.run_tasks(hits.size(),
                           [&](std::uint64_t i) { hits[i].fetch_add(1); });
        for (const std::atomic<unsigned>& h : hits) {
          if (h.load() != 1) ++failures[id];
        }
        const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
        if (got.digest != digest || got.rw_checksum != rw) ++failures[id];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned id = 0; id < kExecutors; ++id) {
    EXPECT_EQ(failures[id], 0u) << "executor " << id;
  }
}

TEST(MultiExecutor, NamedSnapshotsIdentifyTheirRing) {
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  cfg.name = "shard-7";
  rt::CascadeExecutor executor(cfg);
  EXPECT_EQ(executor.name(), "shard-7");
  const rt::CascadeStateDump dump = executor.snapshot();
  EXPECT_EQ(dump.name, "shard-7");
  EXPECT_NE(rt::render(dump).find("[shard-7]"), std::string::npos);
}

}  // namespace
