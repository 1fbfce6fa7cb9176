// LoopPool contract: leases are exclusive, reuse is keyed by spec text,
// reused instances are indistinguishable from fresh ones (run_* entry points
// reset arrays), and the idle caps bound retained memory.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "casc/exec/bridge.hpp"
#include "casc/exec/loop_pool.hpp"
#include "casc/loopir/loop_spec.hpp"

namespace {

using namespace casc;

constexpr const char* kSpec = R"(loop pool
trip 512
compute 2 1
array y 8 512 rw
array a 8 512 ro
access a read
access y write
)";

loopir::LoopSpec spec() { return loopir::LoopSpec::parse(kSpec); }

TEST(LoopPool, MissThenHit) {
  exec::LoopPool pool;
  {
    exec::LoopLease lease = pool.acquire(spec(), kSpec);
    ASSERT_TRUE(lease.valid());
    EXPECT_FALSE(lease.reused());
  }
  exec::LoopLease lease = pool.acquire(spec(), kSpec);
  ASSERT_TRUE(lease.valid());
  EXPECT_TRUE(lease.reused());
  const exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(LoopPool, ConcurrentLeasesAreDistinctInstances) {
  exec::LoopPool pool;
  exec::LoopLease a = pool.acquire(spec(), kSpec);
  exec::LoopLease b = pool.acquire(spec(), kSpec);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_NE(&a.loop(), &b.loop());
  EXPECT_FALSE(b.reused());  // a still holds the only pooled instance
}

TEST(LoopPool, ReusedInstanceProducesFreshResults) {
  exec::LoopPool pool;
  std::uint64_t first_digest = 0;
  {
    exec::LoopLease lease = pool.acquire(spec(), kSpec);
    first_digest = exec::run_reference(lease.loop()).digest;
  }
  exec::LoopLease lease = pool.acquire(spec(), kSpec);
  ASSERT_TRUE(lease.reused());
  EXPECT_EQ(exec::run_reference(lease.loop()).digest, first_digest);
}

TEST(LoopPool, IdleCapsBoundRetention) {
  exec::LoopPool pool(/*max_idle_per_key=*/2, /*max_idle_total=*/2);
  {
    std::vector<exec::LoopLease> leases;
    for (int i = 0; i < 5; ++i) leases.push_back(pool.acquire(spec(), kSpec));
  }  // all five released; only two may be retained
  const exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.idle, 2u);
  EXPECT_EQ(stats.discarded, 3u);
}

TEST(LoopPool, DistinctKeysDoNotAlias) {
  const std::string other = std::string(kSpec) + "# variant\n";
  exec::LoopPool pool;
  { exec::LoopLease lease = pool.acquire(spec(), kSpec); }
  {
    // The kSpec instance is idle, but a different key must not reuse it.
    exec::LoopLease lease = pool.acquire(spec(), other);
    EXPECT_FALSE(lease.reused());
  }
  const exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.distinct_keys, 2u);
  EXPECT_EQ(stats.idle, 2u);
}

TEST(LoopPool, TotalCapEvictsLeastRecentlyLeasedFirst) {
  const std::string key_a = std::string(kSpec) + "# a\n";
  const std::string key_b = std::string(kSpec) + "# b\n";
  const std::string key_c = std::string(kSpec) + "# c\n";
  exec::LoopPool pool(/*max_idle_per_key=*/1, /*max_idle_total=*/2);
  { exec::LoopLease lease = pool.acquire(spec(), key_a); }
  { exec::LoopLease lease = pool.acquire(spec(), key_b); }
  // Both idle, at the total cap.  Touch A so B becomes the LRU key, then
  // overflow with C: B's instance must be the one evicted.
  { exec::LoopLease lease = pool.acquire(spec(), key_a); }
  { exec::LoopLease lease = pool.acquire(spec(), key_c); }
  exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.idle, 2u);
  {
    exec::LoopLease lease = pool.acquire(spec(), key_a);
    EXPECT_TRUE(lease.reused());  // A stayed warm
  }
  {
    exec::LoopLease lease = pool.acquire(spec(), key_b);
    EXPECT_FALSE(lease.reused());  // B was the eviction victim
  }
}

TEST(LoopPool, ReleasedLoopCarriesItsProof) {
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  exec::LoopPool pool;
  exec::ExecResult first;
  {
    exec::LoopLease lease = pool.acquire(spec(), kSpec);
    first = exec::run_cascaded(lease.loop(), executor, opt);
    EXPECT_GT(first.gate_seconds, 0.0);
  }
  exec::LoopLease lease = pool.acquire(spec(), kSpec);
  ASSERT_TRUE(lease.reused());
  const exec::ExecResult again = exec::run_cascaded(lease.loop(), executor, opt);
  EXPECT_EQ(again.gate_seconds, 0.0);  // the verdict came from the memo
  EXPECT_FALSE(again.preflight_refused);
  EXPECT_EQ(again.digest, first.digest);
  EXPECT_EQ(again.rw_checksum, first.rw_checksum);
}

// Indirect gather from the lower half of 't' while the loop writes the
// upper half, 't' claimed read-only: the certificate (not the claim) proves
// it, and the first proof restages 't' on the loop.
constexpr const char* kGatherSplit = R"(loop gather_split
trip 4096
compute 6 4
layout conflicting
array t 8 8192 ro
index gidx 4096 random 17
access t read via gidx
access t write offset 4096
)";

TEST(LoopPool, ConcurrentGateQueriesShareOneProof) {
  const loopir::LoopSpec gather = loopir::LoopSpec::parse(kGatherSplit);
  exec::LoopPool pool;
  exec::LoopLease lease = pool.acquire(gather, kGatherSplit);
  const exec::MaterializedLoop& loop = lease.loop();
  struct Verdict {
    bool proven = false;
    std::string rule;
    std::vector<std::string> certified;
  };
  std::vector<Verdict> verdicts(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < verdicts.size(); ++t) {
    threads.emplace_back([&, t] {
      const rt::PreflightGate gate =
          exec::gate_for(loop, 64 * 1024, 4, &verdicts[t].certified);
      verdicts[t].proven = gate.is_proven();
      verdicts[t].rule = gate.reason().rule;
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(verdicts[0].proven);
  EXPECT_FALSE(verdicts[0].certified.empty());
  for (const Verdict& v : verdicts) {
    EXPECT_EQ(v.proven, verdicts[0].proven);
    EXPECT_EQ(v.rule, verdicts[0].rule);
    EXPECT_EQ(v.certified, verdicts[0].certified);
  }
  // One proof served all four: the geometry is already in the memo.
  double seconds = -1.0;
  (void)loop.restructure_proof(
      exec::plan_for(loop, 64 * 1024).iters_per_chunk(), &seconds);
  EXPECT_EQ(seconds, 0.0);
}

TEST(LoopPool, ThreadedAcquireReleaseIsSafe) {
  exec::LoopPool pool;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        exec::LoopLease lease = pool.acquire(spec(), kSpec);
        if (!lease.valid()) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  const exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, 200u);
  EXPECT_GE(stats.hits, 190u);  // 4 threads -> at most ~4 concurrent misses
}

}  // namespace
