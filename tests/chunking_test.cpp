// Tests for chunk planning, including property sweeps over the partition
// invariants the cascade engine depends on.
#include <gtest/gtest.h>

#include "casc/common/check.hpp"
#include "casc/core/chunk.hpp"

namespace {

using casc::core::ChunkPlan;
using casc::common::CheckFailure;
using casc::loopir::ArrayId;
using casc::loopir::LayoutPolicy;
using casc::loopir::LoopNest;

LoopNest nest_with_bytes_per_iter(std::uint64_t n) {
  // Two 8-byte operands per iteration -> 16 bytes/iteration.
  LoopNest nest("n");
  const ArrayId x = nest.add_array({"X", 8, n, false});
  const ArrayId a = nest.add_array({"A", 8, n, true});
  nest.add_access({a, false, 1, 0, {}});
  nest.add_access({x, true, 1, 0, {}});
  nest.set_trip(n);
  nest.finalize(LayoutPolicy::kStaggered);
  return nest;
}

TEST(ChunkPlan, ForBytesDividesByIterationFootprint) {
  const LoopNest nest = nest_with_bytes_per_iter(10000);
  const ChunkPlan plan = ChunkPlan::for_bytes(nest, 64 * 1024);
  EXPECT_EQ(plan.iters_per_chunk(), 64u * 1024 / 16);
  EXPECT_EQ(plan.total_iters(), 10000u);
}

TEST(ChunkPlan, TinyChunkStillGetsOneIteration) {
  const LoopNest nest = nest_with_bytes_per_iter(100);
  const ChunkPlan plan = ChunkPlan::for_bytes(nest, 1);  // < bytes/iter
  EXPECT_EQ(plan.iters_per_chunk(), 1u);
  EXPECT_EQ(plan.num_chunks(), 100u);
}

TEST(ChunkPlan, SingleChunkWhenChunkExceedsLoop) {
  const LoopNest nest = nest_with_bytes_per_iter(100);
  const ChunkPlan plan = ChunkPlan::for_bytes(nest, 1 << 20);
  EXPECT_EQ(plan.num_chunks(), 1u);
  EXPECT_EQ(plan.chunk(0).begin, 0u);
  EXPECT_EQ(plan.chunk(0).end, 100u);
}

TEST(ChunkPlan, ForItersExactAndRagged) {
  const ChunkPlan even = ChunkPlan::for_iters(100, 25);
  EXPECT_EQ(even.num_chunks(), 4u);
  EXPECT_EQ(even.chunk(3).size(), 25u);

  const ChunkPlan ragged = ChunkPlan::for_iters(100, 30);
  EXPECT_EQ(ragged.num_chunks(), 4u);
  EXPECT_EQ(ragged.chunk(3).size(), 10u);  // last chunk is short
}

TEST(ChunkPlan, RejectsDegenerateInputs) {
  EXPECT_THROW(ChunkPlan::for_iters(0, 10), CheckFailure);
  EXPECT_THROW(ChunkPlan::for_iters(10, 0), CheckFailure);
  const LoopNest nest = nest_with_bytes_per_iter(10);
  EXPECT_THROW(ChunkPlan::for_bytes(nest, 0), CheckFailure);
}

TEST(ChunkPlan, OutOfRangeChunkThrows) {
  const ChunkPlan plan = ChunkPlan::for_iters(10, 3);
  EXPECT_THROW((void)plan.chunk(4), CheckFailure);
}

// Property sweep: for any (total, per_chunk), the chunks tile [0, total)
// exactly — contiguous, non-overlapping, complete.
struct PlanParams {
  std::uint64_t total;
  std::uint64_t per_chunk;
};

class ChunkPlanSweep : public ::testing::TestWithParam<PlanParams> {};

TEST_P(ChunkPlanSweep, ChunksTileTheIterationSpace) {
  const auto [total, per_chunk] = GetParam();
  const ChunkPlan plan = ChunkPlan::for_iters(total, per_chunk);
  std::uint64_t expect_begin = 0;
  for (std::uint64_t c = 0; c < plan.num_chunks(); ++c) {
    const ChunkPlan::Range r = plan.chunk(c);
    EXPECT_EQ(r.begin, expect_begin);
    EXPECT_GT(r.end, r.begin);
    EXPECT_LE(r.size(), per_chunk);
    if (c + 1 < plan.num_chunks()) {
      EXPECT_EQ(r.size(), per_chunk);
    }
    expect_begin = r.end;
  }
  EXPECT_EQ(expect_begin, total);
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, ChunkPlanSweep,
    ::testing::Values(PlanParams{1, 1}, PlanParams{1, 100}, PlanParams{100, 1},
                      PlanParams{100, 7}, PlanParams{100, 100}, PlanParams{101, 100},
                      PlanParams{4096, 64}, PlanParams{99999, 1000},
                      PlanParams{1 << 20, 4096}));

}  // namespace
