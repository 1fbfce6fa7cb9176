// Property tests: randomly generated loop nests driven through the loop IR,
// the cascade engine, and the miss classifier, checking the invariants that
// must hold for *any* workload — not just the curated ones.
#include <gtest/gtest.h>

#include "casc/cascade/engine.hpp"
#include "casc/common/rng.hpp"
#include "casc/sim/three_cs.hpp"
#include "test_util.hpp"

namespace {

using casc::cascade::CascadeOptions;
using casc::cascade::CascadeResult;
using casc::cascade::CascadeSimulator;
using casc::cascade::HelperKind;
using casc::cascade::SequentialResult;
using casc::cascade::StartState;
using casc::common::Rng;
using casc::loopir::AccessSpec;
using casc::loopir::ArrayId;
using casc::loopir::IndexPattern;
using casc::loopir::LayoutPolicy;
using casc::loopir::LoopNest;
using casc::loopir::Ref;
using casc::test::mini_machine;

/// Builds a random but valid loop nest from a seed.  Sizes are kept small so
/// a property case runs in milliseconds.
LoopNest random_nest(std::uint64_t seed) {
  Rng rng(seed);
  LoopNest nest("fuzz_" + std::to_string(seed));

  const unsigned num_arrays = static_cast<unsigned>(rng.in_range(1, 5));
  std::vector<ArrayId> plain;
  std::vector<ArrayId> index_arrays;
  for (unsigned a = 0; a < num_arrays; ++a) {
    const std::uint32_t elem = rng.uniform01() < 0.5 ? 4 : 8;
    const std::uint64_t elems = rng.in_range(64, 4096);
    const bool read_only = rng.uniform01() < 0.5;
    plain.push_back(nest.add_array(
        {std::string("A").append(std::to_string(a)), elem, elems, read_only}));
  }
  if (rng.uniform01() < 0.6) {
    const IndexPattern patterns[] = {IndexPattern::kIdentity, IndexPattern::kStrided,
                                     IndexPattern::kRandomPerm, IndexPattern::kRandom,
                                     IndexPattern::kBlockShuffle};
    index_arrays.push_back(nest.add_index_array(
        "IJ", rng.in_range(64, 2048), patterns[rng.below(5)], seed, 1 + rng.below(64)));
  }

  const unsigned num_accesses = static_cast<unsigned>(rng.in_range(1, 6));
  bool any = false;
  for (unsigned i = 0; i < num_accesses; ++i) {
    AccessSpec spec;
    spec.array = plain[rng.below(plain.size())];
    spec.is_write = !nest.array(spec.array).read_only && rng.uniform01() < 0.4;
    spec.stride = static_cast<std::int64_t>(rng.in_range(1, 4));
    spec.offset = static_cast<std::int64_t>(rng.in_range(0, 16)) - 8;
    if (!index_arrays.empty() && rng.uniform01() < 0.4) {
      spec.index_via = index_arrays[0];
    }
    nest.add_access(spec);
    any = true;
  }
  if (!any) {
    nest.add_access({plain[0], false, 1, 0, {}});
  }
  nest.set_trip(rng.in_range(32, 2048), rng.in_range(1, 4));
  nest.set_compute_cycles(static_cast<std::uint32_t>(rng.in_range(1, 40)));
  nest.finalize(rng.uniform01() < 0.5 ? LayoutPolicy::kConflicting
                                      : LayoutPolicy::kStaggered);
  return nest;
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, RefsAreDeterministicAndInBounds) {
  const LoopNest a = random_nest(GetParam());
  const LoopNest b = random_nest(GetParam());
  const std::vector<Ref> ra = a.all_refs();
  const std::vector<Ref> rb = b.all_refs();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].mem.addr, rb[i].mem.addr);
    EXPECT_EQ(ra[i].mem.size, rb[i].mem.size);
  }
  // Every reference lands inside some declared array.
  for (const Ref& r : ra) {
    bool inside = false;
    for (ArrayId id = 0; id < a.num_arrays(); ++id) {
      const std::uint64_t base = a.array_base(id);
      if (r.mem.addr >= base && r.mem.addr + r.mem.size <= base + a.array(id).size_bytes()) {
        inside = true;
        break;
      }
    }
    EXPECT_TRUE(inside) << "stray address " << std::hex << r.mem.addr;
  }
}

TEST_P(Fuzz, DegenerateCascadeEqualsSequential) {
  const LoopNest nest = random_nest(GetParam());
  CascadeSimulator sim(mini_machine(1));
  const SequentialResult seq = sim.run_sequential(nest, StartState::kCold);
  CascadeOptions opt;
  opt.helper = HelperKind::kNone;
  opt.charge_transfers = false;
  opt.start_state = StartState::kCold;
  opt.chunk_bytes = 1 + (GetParam() % (64 * 1024));
  const CascadeResult casc = sim.run_cascaded(nest, opt);
  EXPECT_EQ(casc.total_cycles, seq.total_cycles);
  EXPECT_EQ(casc.l1_exec.misses, seq.l1.misses);
  EXPECT_EQ(casc.l2_exec.misses, seq.l2.misses);
}

TEST_P(Fuzz, EngineInvariantsUnderAllHelpers) {
  const LoopNest nest = random_nest(GetParam());
  for (HelperKind helper :
       {HelperKind::kNone, HelperKind::kPrefetch, HelperKind::kRestructure}) {
    CascadeSimulator sim(mini_machine(1 + GetParam() % 5));
    CascadeOptions opt;
    opt.helper = helper;
    opt.chunk_bytes = 512 << (GetParam() % 5);
    const CascadeResult r = sim.run_cascaded(nest, opt);
    EXPECT_EQ(r.total_cycles, r.exec_cycles + r.transfer_cycles + r.stall_cycles);
    EXPECT_EQ(r.transfers, r.num_chunks);
    EXPECT_LE(r.helper_iters_done, r.helper_iters_target);
    EXPECT_EQ(r.helper_iters_target, nest.num_iterations());
    EXPECT_LE(r.l1_exec.misses, r.l1_exec.accesses);
    EXPECT_EQ(r.l2_exec.accesses, r.l1_exec.misses);
    EXPECT_EQ(r.l2_helper.accesses, r.l1_helper.misses);
    EXPECT_GE(r.l1_exec.accesses, nest.num_iterations());
  }
}

TEST_P(Fuzz, SequentialRunIsDeterministic) {
  const LoopNest nest = random_nest(GetParam());
  CascadeSimulator sim(mini_machine(2));
  const SequentialResult a = sim.run_sequential(nest);
  const SequentialResult b = sim.run_sequential(nest);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.l1.misses, b.l1.misses);
  EXPECT_EQ(a.l2.misses, b.l2.misses);
}

TEST_P(Fuzz, ThreeCsDecompositionIsConsistent) {
  const LoopNest nest = random_nest(GetParam());
  casc::sim::MissClassifier assoc({"t", 1024, 32, 2, 1});
  // A fully-associative cache of the same capacity can, by definition, have
  // no conflict misses.
  casc::sim::MissClassifier full({"f", 1024, 32, 32, 1});
  for (const Ref& r : nest.all_refs()) {
    assoc.access(r.mem.addr, r.mem.size);
    full.access(r.mem.addr, r.mem.size);
  }
  const auto& a = assoc.counts();
  const auto& f = full.counts();
  EXPECT_EQ(a.accesses, a.hits + a.misses());
  EXPECT_EQ(f.conflict, 0u);
  EXPECT_EQ(a.compulsory, f.compulsory);  // compulsory misses are geometry-free
  // The set-associative cache can never beat fully-associative LRU here...
  // except through LRU anomalies, which Belady warns about; what MUST hold
  // is the identity accesses = hits + misses and conflict-free FA.
  EXPECT_EQ(f.accesses, a.accesses);
}

TEST_P(Fuzz, UnboundedHelperCoverageIsTotal) {
  const LoopNest nest = random_nest(GetParam());
  CascadeSimulator sim(mini_machine(2));
  CascadeOptions opt;
  opt.helper = HelperKind::kRestructure;
  opt.time_model = casc::cascade::HelperTimeModel::kUnbounded;
  const CascadeResult r = sim.run_cascaded(nest, opt);
  EXPECT_EQ(r.helper_iters_done, r.helper_iters_target);
  EXPECT_EQ(r.stall_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Range<std::uint64_t>(1, 33));  // 32 seeds

}  // namespace
