// Tests for the cascade simulation engine: baseline equivalences, helper
// effects on the execution-phase cache behaviour, timeline accounting,
// jump-out, helper-time models, and start states.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "casc/cascade/engine.hpp"
#include "casc/common/check.hpp"
#include "casc/synth/synthetic_loop.hpp"
#include "test_util.hpp"

namespace {

using casc::cascade::CascadeOptions;
using casc::cascade::CascadeResult;
using casc::cascade::CascadeSimulator;
using casc::cascade::HelperKind;
using casc::cascade::HelperTimeModel;
using casc::cascade::SequentialResult;
using casc::cascade::StartState;
using casc::common::CheckFailure;
using casc::loopir::LayoutPolicy;
using casc::loopir::LoopNest;
using casc::test::make_gather_loop;
using casc::test::make_stream_loop;
using casc::test::mini_machine;

// Footprint 4 * 2048 * 8 = 64 KB: four times the mini machine's L2.
LoopNest big_stream() {
  return make_stream_loop(2048, 3, LayoutPolicy::kConflicting);
}

// Same footprint without set conflicts: the layout where prefetching alone
// is effective (conflicting streams re-miss even after a prefetch, which is
// precisely the paper's R10000 observation).
LoopNest big_stream_staggered() {
  return make_stream_loop(2048, 3, LayoutPolicy::kStaggered);
}

TEST(EngineSequential, Deterministic) {
  CascadeSimulator sim(mini_machine());
  const LoopNest nest = big_stream();
  const SequentialResult a = sim.run_sequential(nest);
  const SequentialResult b = sim.run_sequential(nest);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.l2.misses, b.l2.misses);
}

TEST(EngineSequential, TotalIsComputePlusMemory) {
  CascadeSimulator sim(mini_machine());
  const LoopNest nest = big_stream();
  const SequentialResult r = sim.run_sequential(nest);
  EXPECT_EQ(r.total_cycles, r.compute_cycles + r.memory_cycles);
  EXPECT_EQ(r.compute_cycles, nest.num_iterations() * nest.compute_cycles());
  EXPECT_GT(r.memory_cycles, 0u);
}

TEST(EngineSequential, RequiresFinalizedNest) {
  CascadeSimulator sim(mini_machine());
  LoopNest raw("raw");
  EXPECT_THROW(sim.run_sequential(raw), CheckFailure);
}

// The fundamental degenerate-case equivalence: one processor, no helper, no
// transfer charge => cascaded execution IS sequential execution.
TEST(EngineEquivalence, SingleProcNoHelperNoTransfersEqualsSequential) {
  CascadeSimulator sim(mini_machine(1));
  const LoopNest nest = big_stream();
  const SequentialResult seq = sim.run_sequential(nest);
  CascadeOptions opt;
  opt.helper = HelperKind::kNone;
  opt.charge_transfers = false;
  const CascadeResult casc = sim.run_cascaded(nest, opt);
  EXPECT_EQ(casc.total_cycles, seq.total_cycles);
  EXPECT_EQ(casc.l2_exec.misses, seq.l2.misses);
  EXPECT_EQ(casc.l1_exec.misses, seq.l1.misses);
  EXPECT_EQ(casc.stall_cycles, 0u);
  EXPECT_EQ(casc.helper_cycles, 0u);
}

TEST(EngineEquivalence, TransferChargeIsExactlyChunksTimesCost) {
  CascadeSimulator sim(mini_machine(1));
  const LoopNest nest = big_stream();
  CascadeOptions opt;
  opt.helper = HelperKind::kNone;
  opt.charge_transfers = false;
  const CascadeResult without = sim.run_cascaded(nest, opt);
  opt.charge_transfers = true;
  const CascadeResult with = sim.run_cascaded(nest, opt);
  EXPECT_EQ(with.transfers, with.num_chunks);
  const std::uint64_t per_chunk = mini_machine().control_transfer_cycles +
                                  mini_machine().chunk_startup_cycles;
  EXPECT_EQ(with.total_cycles, without.total_cycles + with.num_chunks * per_chunk);
  EXPECT_EQ(with.transfer_cycles, with.num_chunks * per_chunk);
}

TEST(EngineHelpers, UnboundedPrefetchSpeedsUpMemoryBoundLoop) {
  CascadeSimulator sim(mini_machine(1));
  const LoopNest nest = big_stream_staggered();
  CascadeOptions opt;
  opt.helper = HelperKind::kPrefetch;
  opt.time_model = HelperTimeModel::kUnbounded;
  opt.chunk_bytes = 4 * 1024;
  const double s = sim.speedup(nest, opt);
  EXPECT_GT(s, 1.2) << "prefetch helpers should hide most memory stalls";
}

TEST(EngineHelpers, PrefetchCutsExecutionPhaseMisses) {
  CascadeSimulator sim(mini_machine(1));
  const LoopNest nest = big_stream_staggered();
  const SequentialResult seq = sim.run_sequential(nest);
  CascadeOptions opt;
  opt.helper = HelperKind::kPrefetch;
  opt.time_model = HelperTimeModel::kUnbounded;
  opt.chunk_bytes = 4 * 1024;
  const CascadeResult casc = sim.run_cascaded(nest, opt);
  EXPECT_LT(casc.l2_exec.misses, seq.l2.misses / 4)
      << "helper should absorb the bulk of the misses";
  EXPECT_GT(casc.l2_helper.misses, 0u);
}

TEST(EngineHelpers, RestructureBeatsPrefetchUnderConflicts) {
  // Six read-only streams with conflicting bases thrash the 2-way mini L1/L2
  // even after prefetching; restructuring collapses them into one stream.
  const LoopNest nest = make_stream_loop(2048, 6, LayoutPolicy::kConflicting);
  CascadeSimulator sim(mini_machine(1));
  CascadeOptions opt;
  opt.time_model = HelperTimeModel::kUnbounded;
  opt.chunk_bytes = 4 * 1024;
  opt.helper = HelperKind::kPrefetch;
  const CascadeResult pre = sim.run_cascaded(nest, opt);
  opt.helper = HelperKind::kRestructure;
  const CascadeResult restr = sim.run_cascaded(nest, opt);
  EXPECT_LT(restr.total_cycles, pre.total_cycles);
  EXPECT_LT(restr.l2_exec.misses, pre.l2_exec.misses);
}

TEST(EngineHelpers, RestructureUsesCheaperCompute) {
  const LoopNest nest = make_gather_loop(1024, LayoutPolicy::kConflicting);
  ASSERT_LT(nest.restructured_compute_cycles(), nest.compute_cycles());
  CascadeSimulator sim(mini_machine(1));
  CascadeOptions opt;
  opt.helper = HelperKind::kRestructure;
  opt.time_model = HelperTimeModel::kUnbounded;
  opt.charge_transfers = false;
  const CascadeResult r = sim.run_cascaded(nest, opt);
  // Execution-phase cycles include iters * restructured compute; just assert
  // the run completes and used the buffer (helper staged every iteration).
  EXPECT_EQ(r.helper_iters_done, nest.num_iterations());
}

TEST(EngineTimeline, BoundedHelperCoverageGrowsWithProcessors) {
  const LoopNest nest = big_stream();
  CascadeOptions opt;
  opt.helper = HelperKind::kPrefetch;
  opt.chunk_bytes = 2 * 1024;
  double prev_coverage = -1.0;
  for (unsigned procs : {2u, 4u, 8u}) {
    CascadeSimulator sim(mini_machine(procs));
    const CascadeResult r = sim.run_cascaded(nest, opt);
    EXPECT_GE(r.helper_coverage(), prev_coverage)
        << "more processors => more helper time per chunk";
    prev_coverage = r.helper_coverage();
  }
}

TEST(EngineTimeline, UnboundedCompletesAllHelperIterations) {
  CascadeSimulator sim(mini_machine(2));
  const LoopNest nest = big_stream();
  CascadeOptions opt;
  opt.helper = HelperKind::kPrefetch;
  opt.time_model = HelperTimeModel::kUnbounded;
  const CascadeResult r = sim.run_cascaded(nest, opt);
  EXPECT_EQ(r.helper_iters_done, r.helper_iters_target);
  EXPECT_DOUBLE_EQ(r.helper_coverage(), 1.0);
  EXPECT_EQ(r.stall_cycles, 0u);
}

TEST(EngineTimeline, JumpOutAvoidsStalls) {
  const LoopNest nest = big_stream();
  CascadeOptions opt;
  opt.helper = HelperKind::kPrefetch;
  opt.chunk_bytes = 2 * 1024;
  opt.jump_out = true;
  CascadeSimulator sim(mini_machine(2));
  const CascadeResult with_jump = sim.run_cascaded(nest, opt);
  EXPECT_EQ(with_jump.stall_cycles, 0u);

  opt.jump_out = false;
  const CascadeResult without_jump = sim.run_cascaded(nest, opt);
  // With only two processors the helper cannot finish inside one execution
  // phase, so refusing to jump out must stall the cascade.
  EXPECT_GT(without_jump.stall_cycles, 0u);
  EXPECT_GE(without_jump.total_cycles, with_jump.total_cycles);
}

TEST(EngineTimeline, FirstChunkHasNoHelperWindow) {
  // Chunk 0 executes immediately: processor 0's helper budget is zero, so
  // with jump-out its helper does nothing for chunk 0.
  CascadeSimulator sim(mini_machine(4));
  const LoopNest nest = big_stream();
  CascadeOptions opt;
  opt.helper = HelperKind::kPrefetch;
  opt.chunk_bytes = 2 * 1024;
  const CascadeResult r = sim.run_cascaded(nest, opt);
  EXPECT_LT(r.helper_iters_done, r.helper_iters_target);
}

TEST(EngineStartStates, DistributedStartSlowsSequentialBaseline) {
  const LoopNest nest = big_stream();
  CascadeSimulator sim(mini_machine(4));
  const SequentialResult cold = sim.run_sequential(nest, StartState::kCold);
  const SequentialResult dist = sim.run_sequential(nest, StartState::kDistributed);
  // Remote-Modified lines must be fetched cache-to-cache: at least as slow as
  // cold misses (c2c latency 70 > memory 58 on the mini machine).
  EXPECT_GE(dist.total_cycles, cold.total_cycles);
}

TEST(EngineStartStates, WarmSingleIsFastestForCacheSizedLoop) {
  // 4 KB loop fits the 16 KB L2 entirely.
  const LoopNest nest = make_stream_loop(256, 1, LayoutPolicy::kStaggered);
  CascadeSimulator sim(mini_machine(2));
  const SequentialResult warm = sim.run_sequential(nest, StartState::kWarmSingle);
  const SequentialResult cold = sim.run_sequential(nest, StartState::kCold);
  EXPECT_LT(warm.total_cycles, cold.total_cycles);
  EXPECT_EQ(warm.l2.misses, 0u);
}

TEST(EngineAccounting, TotalDecomposition) {
  CascadeSimulator sim(mini_machine(4));
  const LoopNest nest = big_stream();
  CascadeOptions opt;
  opt.helper = HelperKind::kPrefetch;
  const CascadeResult r = sim.run_cascaded(nest, opt);
  EXPECT_EQ(r.total_cycles, r.exec_cycles + r.transfer_cycles + r.stall_cycles);
}

TEST(EngineAccounting, SpeedupMatchesManualRatio) {
  CascadeSimulator sim(mini_machine(4));
  const LoopNest nest = big_stream();
  CascadeOptions opt;
  opt.helper = HelperKind::kRestructure;
  const double s = sim.speedup(nest, opt);
  const SequentialResult seq = sim.run_sequential(nest, opt.start_state);
  const CascadeResult casc = sim.run_cascaded(nest, opt);
  EXPECT_DOUBLE_EQ(
      s, static_cast<double>(seq.total_cycles) / static_cast<double>(casc.total_cycles));
}

TEST(EngineBuffer, BytesPerIterationFormula) {
  // Gather X(i) = A(IJ(i)): A is read-only (8 bytes staged); the write to X
  // is direct, so no index is staged for it.
  const LoopNest gather = make_gather_loop(256, LayoutPolicy::kStaggered);
  EXPECT_EQ(CascadeSimulator::buffer_bytes_per_iteration(gather), 8u);

  // Scatter X(IJ(i)) = A(i): A staged (8) + resolved index for X (4).
  LoopNest scatter("scatter");
  const auto x = scatter.add_array({"X", 8, 256, false});
  const auto a = scatter.add_array({"A", 8, 256, true});
  const auto ij =
      scatter.add_index_array("IJ", 256, casc::loopir::IndexPattern::kRandomPerm, 1);
  scatter.add_access({a, false, 1, 0, {}});
  scatter.add_access({x, true, 1, 0, ij});
  scatter.set_trip(256);
  scatter.finalize(LayoutPolicy::kStaggered);
  EXPECT_EQ(CascadeSimulator::buffer_bytes_per_iteration(scatter), 12u);
}

TEST(EngineBuffer, RestructuredExecTouchesBufferNotReadOnlyArrays) {
  const LoopNest nest = make_stream_loop(512, 2, LayoutPolicy::kConflicting);
  CascadeSimulator sim(mini_machine(1));
  CascadeOptions opt;
  opt.helper = HelperKind::kRestructure;
  opt.time_model = HelperTimeModel::kUnbounded;
  const CascadeResult r = sim.run_cascaded(nest, opt);
  // Execution phase: per iteration, 2 buffer reads + 1 write to X = 3 refs.
  EXPECT_EQ(r.l1_exec.accesses, nest.num_iterations() * 3);
}

TEST(EngineSynthetic, SparseLoopIsMoreMemoryBoundThanDense) {
  const std::uint64_t n = 16 * 1024;  // 64 KB arrays on the mini machine
  const auto dense = casc::synth::make_synthetic_loop(casc::synth::Density::kDense, n);
  const auto sparse = casc::synth::make_synthetic_loop(casc::synth::Density::kSparse, n);
  CascadeSimulator sim(mini_machine(1));
  const SequentialResult d = sim.run_sequential(dense, StartState::kCold);
  const SequentialResult s = sim.run_sequential(sparse, StartState::kCold);
  const double dense_cpi = static_cast<double>(d.total_cycles) /
                           static_cast<double>(dense.num_iterations());
  const double sparse_cpi = static_cast<double>(s.total_cycles) /
                            static_cast<double>(sparse.num_iterations());
  EXPECT_GT(sparse_cpi, 2.0 * dense_cpi)
      << "one-miss-per-iteration sparse walk must cost far more per iteration";
}

// Parameterized sweep: the engine's invariants hold across helper kinds,
// processor counts, and chunk sizes.  gtest names each case by the
// parameter's object bytes, so the struct spells out the bytes after the
// one-byte `helper` instead of leaving them as padding: uninitialized
// padding made the case names change from run to run.
struct EngineParams {
  HelperKind helper;
  std::uint8_t reserved[3] = {};
  unsigned procs;
  std::uint64_t chunk_bytes;
};
static_assert(std::has_unique_object_representations_v<EngineParams>,
              "every byte gtest prints must be initialized");

class EngineSweep : public ::testing::TestWithParam<EngineParams> {};

TEST_P(EngineSweep, InvariantsHold) {
  const EngineParams& p = GetParam();
  const HelperKind helper = p.helper;
  CascadeSimulator sim(mini_machine(p.procs));
  const LoopNest nest = big_stream();
  CascadeOptions opt;
  opt.helper = helper;
  opt.chunk_bytes = p.chunk_bytes;
  const CascadeResult r = sim.run_cascaded(nest, opt);

  EXPECT_EQ(r.total_cycles, r.exec_cycles + r.transfer_cycles + r.stall_cycles);
  EXPECT_EQ(r.transfers, r.num_chunks);
  EXPECT_LE(r.helper_iters_done, r.helper_iters_target);
  EXPECT_EQ(r.helper_iters_target, nest.num_iterations());
  if (helper == HelperKind::kNone) {
    EXPECT_EQ(r.helper_cycles, 0u);
    EXPECT_EQ(r.l1_helper.accesses, 0u);
  }
  // Execution phase must touch at least one reference per iteration.
  EXPECT_GE(r.l1_exec.accesses, nest.num_iterations());
  // Misses can never exceed accesses at any level.
  EXPECT_LE(r.l1_exec.misses, r.l1_exec.accesses);
  EXPECT_LE(r.l2_exec.misses, r.l2_exec.accesses);
  // L2 sees exactly the L1 misses of its phase.
  EXPECT_EQ(r.l2_exec.accesses, r.l1_exec.misses);
  EXPECT_EQ(r.l2_helper.accesses, r.l1_helper.misses);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineSweep,
    ::testing::Values(
        EngineParams{.helper = HelperKind::kNone, .procs = 1, .chunk_bytes = 2048},
        EngineParams{.helper = HelperKind::kNone, .procs = 4, .chunk_bytes = 4096},
        EngineParams{.helper = HelperKind::kPrefetch, .procs = 2, .chunk_bytes = 2048},
        EngineParams{.helper = HelperKind::kPrefetch, .procs = 4, .chunk_bytes = 4096},
        EngineParams{.helper = HelperKind::kPrefetch, .procs = 8, .chunk_bytes = 16384},
        EngineParams{.helper = HelperKind::kRestructure, .procs = 2, .chunk_bytes = 2048},
        EngineParams{.helper = HelperKind::kRestructure, .procs = 4, .chunk_bytes = 4096},
        EngineParams{.helper = HelperKind::kRestructure, .procs = 8, .chunk_bytes = 16384}));

}  // namespace
