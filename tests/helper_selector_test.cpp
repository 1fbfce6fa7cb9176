// Tests for automatic helper selection.
#include <gtest/gtest.h>

#include "casc/cascade/helper_selector.hpp"
#include "casc/common/check.hpp"
#include "test_util.hpp"

namespace {

using casc::cascade::CascadeOptions;
using casc::cascade::CascadeSimulator;
using casc::cascade::HelperChoice;
using casc::cascade::HelperKind;
using casc::cascade::select_helper;
using casc::cascade::select_helper_and_chunk;
using casc::common::CheckFailure;
using casc::loopir::LayoutPolicy;
using casc::test::make_stream_loop;
using casc::test::mini_machine;

TEST(HelperSelector, PicksRestructureForConflictingStreams) {
  // Six conflicting read-only streams thrash the 2-way mini caches even
  // after prefetching; restructuring must win.
  const auto nest = make_stream_loop(2048, 6, LayoutPolicy::kConflicting);
  CascadeSimulator sim(mini_machine(4));
  CascadeOptions opt;
  opt.chunk_bytes = 4 * 1024;
  const HelperChoice choice = select_helper(sim, nest, opt);
  EXPECT_EQ(choice.helper, HelperKind::kRestructure);
  EXPECT_GT(choice.speedup, 1.0);
}

TEST(HelperSelector, ReportsAllThreeSpeedups) {
  const auto nest = make_stream_loop(2048, 3, LayoutPolicy::kStaggered);
  CascadeSimulator sim(mini_machine(4));
  CascadeOptions opt;
  opt.chunk_bytes = 4 * 1024;
  const HelperChoice choice = select_helper(sim, nest, opt);
  for (double s : choice.speedup_by_kind) EXPECT_GT(s, 0.0);
  // The chosen helper's speedup is the max of the three.
  double best = 0;
  for (double s : choice.speedup_by_kind) best = std::max(best, s);
  EXPECT_DOUBLE_EQ(choice.speedup, best);
  EXPECT_EQ(choice.chunk_bytes, 4u * 1024);
}

TEST(HelperSelector, FlagsSequentialPreferenceForTinyLoops) {
  // Two iterations of work: cascading can only add transfer overhead.
  casc::loopir::LoopNest nest("tiny");
  const auto a = nest.add_array({"A", 8, 16, true});
  nest.add_access({a, false, 1, 0, {}});
  nest.set_trip(16);
  nest.set_compute_cycles(2);
  nest.finalize(LayoutPolicy::kStaggered);

  auto cfg = mini_machine(4);
  cfg.control_transfer_cycles = 5000;  // make overhead bite hard
  cfg.chunk_startup_cycles = 5000;
  CascadeSimulator sim(cfg);
  CascadeOptions opt;
  opt.chunk_bytes = 64;  // many chunks
  const HelperChoice choice = select_helper(sim, nest, opt);
  // Even the best cascaded configuration loses to sequential execution.
  EXPECT_LT(choice.speedup, 1.0);
}

TEST(HelperSelector, ChunkSweepPicksJointOptimum) {
  const auto nest = make_stream_loop(2048, 3, LayoutPolicy::kStaggered);
  CascadeSimulator sim(mini_machine(4));
  CascadeOptions opt;
  const HelperChoice best =
      select_helper_and_chunk(sim, nest, opt, 1024, 16 * 1024);
  EXPECT_GE(best.chunk_bytes, 1024u);
  EXPECT_LE(best.chunk_bytes, 16u * 1024);
  // The joint optimum is at least as good as any fixed-chunk choice we try.
  for (std::uint64_t bytes : {1024u, 4096u, 16384u}) {
    opt.chunk_bytes = bytes;
    const HelperChoice fixed = select_helper(sim, nest, opt);
    EXPECT_GE(best.speedup, fixed.speedup * 0.999);
  }
}

TEST(HelperSelector, RejectsBadSweepRange) {
  const auto nest = make_stream_loop(512, 1, LayoutPolicy::kStaggered);
  CascadeSimulator sim(mini_machine(2));
  CascadeOptions opt;
  EXPECT_THROW(select_helper_and_chunk(sim, nest, opt, 0, 1024), CheckFailure);
  EXPECT_THROW(select_helper_and_chunk(sim, nest, opt, 4096, 1024), CheckFailure);
}

}  // namespace
