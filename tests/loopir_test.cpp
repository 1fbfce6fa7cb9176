// Tests for the loop IR: builder validation, address layout policies,
// reference-stream generation, and the bytes-per-iteration estimator.
#include <gtest/gtest.h>

#include <set>

#include "casc/common/check.hpp"
#include "casc/loopir/loop_nest.hpp"

namespace {

using casc::common::CheckFailure;
using casc::loopir::AccessSpec;
using casc::loopir::ArrayId;
using casc::loopir::ArraySpec;
using casc::loopir::IndexPattern;
using casc::loopir::LayoutPolicy;
using casc::loopir::LoopNest;
using casc::loopir::Ref;
using casc::sim::AccessType;

LoopNest simple_copy(std::uint64_t n = 64) {
  // X(i) = A(i)
  LoopNest nest("copy");
  const ArrayId x = nest.add_array({"X", 8, n, false});
  const ArrayId a = nest.add_array({"A", 8, n, true});
  nest.add_access({a, false, 1, 0, {}});
  nest.add_access({x, true, 1, 0, {}});
  nest.set_trip(n);
  nest.finalize(LayoutPolicy::kStaggered);
  return nest;
}

TEST(LoopNestBuilder, RejectsDegenerateArrays) {
  LoopNest nest("bad");
  EXPECT_THROW(nest.add_array({"Z", 8, 0, false}), CheckFailure);
  EXPECT_THROW(nest.add_array({"Z", 0, 8, false}), CheckFailure);
}

TEST(LoopNestBuilder, RejectsWriteToReadOnlyArray) {
  LoopNest nest("bad");
  const ArrayId a = nest.add_array({"A", 8, 16, true});
  EXPECT_THROW(nest.add_access({a, true, 1, 0, {}}), CheckFailure);
}

TEST(LoopNestBuilder, RejectsUnknownArrayIds) {
  LoopNest nest("bad");
  EXPECT_THROW(nest.add_access({7, false, 1, 0, {}}), CheckFailure);
}

TEST(LoopNestBuilder, RejectsIndirectionThroughPlainArray) {
  LoopNest nest("bad");
  const ArrayId a = nest.add_array({"A", 8, 16, false});
  const ArrayId plain = nest.add_array({"P", 4, 16, true});
  EXPECT_THROW(nest.add_access({a, false, 1, 0, plain}), CheckFailure);
}

TEST(LoopNestBuilder, RejectsQueriesBeforeFinalize) {
  LoopNest nest("bad");
  const ArrayId a = nest.add_array({"A", 8, 16, true});
  nest.add_access({a, false, 1, 0, {}});
  nest.set_trip(16);
  EXPECT_THROW((void)nest.array_base(a), CheckFailure);
  std::vector<Ref> refs;
  EXPECT_THROW(nest.refs_for_iteration(0, refs), CheckFailure);
}

TEST(LoopNestBuilder, RejectsDoubleFinalizeAndLateMutation) {
  LoopNest nest = simple_copy();
  EXPECT_THROW(nest.finalize(LayoutPolicy::kStaggered), CheckFailure);
  EXPECT_THROW(nest.add_array({"B", 8, 4, true}), CheckFailure);
  EXPECT_THROW(nest.set_trip(4), CheckFailure);
}

TEST(LoopNestBuilder, RejectsFinalizeWithoutTripOrAccesses) {
  LoopNest nest("bad");
  const ArrayId a = nest.add_array({"A", 8, 16, true});
  nest.add_access({a, false, 1, 0, {}});
  EXPECT_THROW(nest.finalize(LayoutPolicy::kStaggered), CheckFailure);  // no trip

  LoopNest nest2("bad2");
  nest2.set_trip(16);
  EXPECT_THROW(nest2.finalize(LayoutPolicy::kStaggered), CheckFailure);  // no accesses
}

TEST(LoopNestLayout, ConflictingBasesShareAlignment) {
  LoopNest nest("conf");
  const ArrayId a = nest.add_array({"A", 8, 1024, true});
  const ArrayId b = nest.add_array({"B", 8, 1024, true});
  const ArrayId x = nest.add_array({"X", 8, 1024, false});
  nest.add_access({a, false, 1, 0, {}});
  nest.add_access({b, false, 1, 0, {}});
  nest.add_access({x, true, 1, 0, {}});
  nest.set_trip(1024);
  nest.finalize(LayoutPolicy::kConflicting);
  constexpr std::uint64_t kMiB = 1ull << 20;
  EXPECT_EQ(nest.array_base(a) % kMiB, 0u);
  EXPECT_EQ(nest.array_base(b) % kMiB, 0u);
  EXPECT_EQ(nest.array_base(x) % kMiB, 0u);
}

TEST(LoopNestLayout, StaggeredBasesDifferModuloWaySizes) {
  LoopNest nest("stag");
  std::vector<ArrayId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(nest.add_array({std::string("A").append(std::to_string(i)), 8, 1024, true}));
    nest.add_access({ids.back(), false, 1, 0, {}});
  }
  nest.set_trip(1024);
  nest.finalize(LayoutPolicy::kStaggered);
  // Distinct residues modulo the Pentium Pro L1 way size (4 KB).
  std::set<std::uint64_t> residues;
  for (ArrayId id : ids) residues.insert(nest.array_base(id) % 4096);
  EXPECT_EQ(residues.size(), ids.size());
}

TEST(LoopNestLayout, ArraysNeverOverlap) {
  LoopNest nest("big");
  std::vector<ArrayId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(
        nest.add_array({std::string("A").append(std::to_string(i)), 8, 300000, i != 0}));
  }
  nest.add_access({ids[0], true, 1, 0, {}});
  nest.add_access({ids[1], false, 1, 0, {}});
  nest.set_trip(1000);
  nest.finalize(LayoutPolicy::kConflicting);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    EXPECT_GE(nest.array_base(ids[i + 1]),
              nest.array_base(ids[i]) + nest.array(ids[i]).size_bytes());
  }
}

TEST(LoopNestRefs, DirectStreamAddresses) {
  LoopNest nest = simple_copy(64);
  std::vector<Ref> refs;
  nest.refs_for_iteration(0, refs);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].mem.type, AccessType::kRead);
  EXPECT_TRUE(refs[0].read_only_operand);
  EXPECT_FALSE(refs[0].is_index_load);
  EXPECT_EQ(refs[1].mem.type, AccessType::kWrite);
  EXPECT_FALSE(refs[1].read_only_operand);

  refs.clear();
  nest.refs_for_iteration(5, refs);
  EXPECT_EQ(refs[0].mem.addr, nest.array_base(1) + 5 * 8);
  EXPECT_EQ(refs[1].mem.addr, nest.array_base(0) + 5 * 8);
}

TEST(LoopNestRefs, StrideAndOffsetApply) {
  LoopNest nest("strided");
  const ArrayId a = nest.add_array({"A", 4, 256, true});
  nest.add_access({a, false, 2, 3, {}});
  nest.set_trip(16);
  nest.finalize(LayoutPolicy::kStaggered);
  std::vector<Ref> refs;
  nest.refs_for_iteration(4, refs);  // elem = 3 + 2*4 = 11
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].mem.addr, nest.array_base(a) + 11 * 4);
}

TEST(LoopNestRefs, NegativeOffsetWrapsFromEnd) {
  LoopNest nest("wrap");
  const ArrayId a = nest.add_array({"A", 4, 100, true});
  nest.add_access({a, false, 1, -1, {}});
  nest.set_trip(10);
  nest.finalize(LayoutPolicy::kStaggered);
  std::vector<Ref> refs;
  nest.refs_for_iteration(0, refs);  // elem = -1 -> wraps to 99
  EXPECT_EQ(refs[0].mem.addr, nest.array_base(a) + 99 * 4);
}

TEST(LoopNestRefs, LoopStepScalesInduction) {
  LoopNest nest("sparse");
  const ArrayId a = nest.add_array({"A", 4, 256, true});
  nest.add_access({a, false, 1, 0, {}});
  nest.set_trip(256, 8);
  nest.finalize(LayoutPolicy::kStaggered);
  EXPECT_EQ(nest.num_iterations(), 32u);
  std::vector<Ref> refs;
  nest.refs_for_iteration(3, refs);  // i = 24
  EXPECT_EQ(refs[0].mem.addr, nest.array_base(a) + 24 * 4);
}

TEST(LoopNestRefs, IndirectEmitsIndexLoadThenOperand) {
  LoopNest nest("gather");
  const ArrayId x = nest.add_array({"X", 8, 64, false});
  const ArrayId a = nest.add_array({"A", 8, 64, true});
  const ArrayId ij = nest.add_index_array("IJ", 64, IndexPattern::kIdentity);
  nest.add_access({a, false, 1, 0, ij});
  nest.add_access({x, true, 1, 0, {}});
  nest.set_trip(64);
  nest.finalize(LayoutPolicy::kStaggered);

  std::vector<Ref> refs;
  nest.refs_for_iteration(7, refs);
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_TRUE(refs[0].is_index_load);
  EXPECT_TRUE(refs[0].read_only_operand);
  EXPECT_EQ(refs[0].mem.addr, nest.array_base(ij) + 7 * 4);
  // Identity index: A element 7.
  EXPECT_FALSE(refs[1].is_index_load);
  EXPECT_TRUE(refs[1].read_only_operand);
  EXPECT_EQ(refs[1].mem.addr, nest.array_base(a) + 7 * 8);
}

TEST(LoopNestRefs, RandomPermVisitsEveryElementOnce) {
  LoopNest nest("perm");
  const std::uint64_t n = 128;
  const ArrayId a = nest.add_array({"A", 8, n, true});
  const ArrayId ij = nest.add_index_array("IJ", n, IndexPattern::kRandomPerm, 99);
  nest.add_access({a, false, 1, 0, ij});
  nest.set_trip(n);
  nest.finalize(LayoutPolicy::kStaggered);

  std::set<std::uint64_t> targets;
  std::vector<Ref> refs;
  for (std::uint64_t it = 0; it < n; ++it) {
    refs.clear();
    nest.refs_for_iteration(it, refs);
    targets.insert(refs[1].mem.addr);
  }
  EXPECT_EQ(targets.size(), n);  // a permutation hits each element exactly once
}

TEST(LoopNestRefs, IndexArraysAreDeterministicPerSeed) {
  auto build = [](std::uint64_t seed) {
    LoopNest nest("det");
    const ArrayId a = nest.add_array({"A", 8, 64, true});
    const ArrayId ij = nest.add_index_array("IJ", 64, IndexPattern::kRandom, seed);
    nest.add_access({a, false, 1, 0, ij});
    nest.set_trip(64);
    nest.finalize(LayoutPolicy::kStaggered);
    std::vector<Ref> refs = nest.all_refs();
    std::vector<std::uint64_t> addrs;
    for (const Ref& r : refs) addrs.push_back(r.mem.addr);
    return addrs;
  };
  EXPECT_EQ(build(5), build(5));
  EXPECT_NE(build(5), build(6));
}

TEST(LoopNestRefs, BlockShuffleKeepsBlocksContiguous) {
  LoopNest nest("blocks");
  const std::uint64_t n = 256;
  const ArrayId a = nest.add_array({"A", 8, n, true});
  const ArrayId bj = nest.add_index_array("BJ", n, IndexPattern::kBlockShuffle, 4, 16);
  nest.add_access({a, false, 1, 0, bj});
  nest.set_trip(n);
  nest.finalize(LayoutPolicy::kStaggered);

  std::vector<Ref> refs;
  std::set<std::uint64_t> seen;
  for (std::uint64_t it = 0; it < n; ++it) {
    refs.clear();
    nest.refs_for_iteration(it, refs);
    const std::uint64_t elem = (refs[1].mem.addr - nest.array_base(a)) / 8;
    seen.insert(elem);
    // Within a block (16 entries), consecutive iterations step by one.
    if (it % 16 != 0) {
      refs.clear();
      nest.refs_for_iteration(it - 1, refs);
      const std::uint64_t prev = (refs[1].mem.addr - nest.array_base(a)) / 8;
      EXPECT_EQ(elem, prev + 1);
    }
  }
  EXPECT_EQ(seen.size(), n);  // still a permutation
}

TEST(LoopNestEstimator, BytesPerIterationCountsOperandsAndIndexLoads) {
  LoopNest nest("est");
  const ArrayId x = nest.add_array({"X", 8, 64, false});
  const ArrayId a = nest.add_array({"A", 8, 64, true});
  const ArrayId ij = nest.add_index_array("IJ", 64, IndexPattern::kIdentity);
  nest.add_access({a, false, 1, 0, ij});   // 8 (A) + 4 (IJ)
  nest.add_access({x, true, 1, 0, {}});    // 8 (X)
  nest.set_trip(64);
  nest.finalize(LayoutPolicy::kStaggered);
  EXPECT_EQ(nest.bytes_per_iteration(), 20u);
}

TEST(LoopNestEstimator, LoopInvariantAccessesExcluded) {
  LoopNest nest("inv");
  const ArrayId a = nest.add_array({"A", 8, 64, true});
  const ArrayId s = nest.add_array({"S", 8, 1, true});
  nest.add_access({a, false, 1, 0, {}});
  nest.add_access({s, false, 0, 0, {}});  // stride 0: loop-invariant scalar
  nest.set_trip(64);
  nest.finalize(LayoutPolicy::kStaggered);
  EXPECT_EQ(nest.bytes_per_iteration(), 8u);
}

TEST(LoopNestEstimator, FootprintCountsEachArrayOnce) {
  LoopNest nest("fp");
  const ArrayId x = nest.add_array({"X", 8, 100, false});
  const ArrayId a = nest.add_array({"A", 8, 100, true});
  nest.add_access({a, false, 1, 0, {}});
  nest.add_access({a, false, 1, 1, {}});  // second access to A: not re-counted
  nest.add_access({x, true, 1, 0, {}});
  nest.set_trip(100);
  nest.finalize(LayoutPolicy::kStaggered);
  EXPECT_EQ(nest.footprint_bytes(), 1600u);
}

TEST(LoopNestCompute, DefaultRestructuredSavesIndexingWork) {
  LoopNest nest("cmp");
  const ArrayId a = nest.add_array({"A", 8, 64, true});
  const ArrayId ij = nest.add_index_array("IJ", 64, IndexPattern::kIdentity);
  nest.add_access({a, false, 1, 0, ij});
  nest.set_trip(64);
  nest.set_compute_cycles(10);
  nest.finalize(LayoutPolicy::kStaggered);
  EXPECT_EQ(nest.compute_cycles(), 10u);
  EXPECT_EQ(nest.restructured_compute_cycles(), 8u);  // one indirect access: -2
}

TEST(LoopNestCompute, ExplicitRestructuredOverrideValidated) {
  LoopNest nest("cmp2");
  const ArrayId a = nest.add_array({"A", 8, 64, true});
  nest.add_access({a, false, 1, 0, {}});
  EXPECT_THROW(nest.set_compute_cycles(5, 7), CheckFailure);  // > compute
  EXPECT_THROW(nest.set_compute_cycles(5, 0), CheckFailure);  // < 1
  nest.set_compute_cycles(5, 4);
  nest.set_trip(64);
  nest.finalize(LayoutPolicy::kStaggered);
  EXPECT_EQ(nest.restructured_compute_cycles(), 4u);
}

TEST(LoopNestRefs, AllRefsMatchesPerIterationAssembly) {
  LoopNest nest = simple_copy(32);
  const std::vector<Ref> all = nest.all_refs();
  ASSERT_EQ(all.size(), 64u);
  std::vector<Ref> manual;
  for (std::uint64_t it = 0; it < 32; ++it) nest.refs_for_iteration(it, manual);
  ASSERT_EQ(manual.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].mem.addr, manual[i].mem.addr);
    EXPECT_EQ(all[i].mem.type, manual[i].mem.type);
  }
}

TEST(LoopNestRefs, OutOfRangeIterationThrows) {
  LoopNest nest = simple_copy(8);
  std::vector<Ref> refs;
  EXPECT_THROW(nest.refs_for_iteration(8, refs), CheckFailure);
}

}  // namespace
