// Scalar-vs-SIMD bit-identity.  The scalar tier is the semantic ground
// truth; every vector tier the host supports must reproduce it bit for bit,
// at two levels:
//
//   1. the one remaining kernel (common/simd.hpp, gather_offsets_u64) over
//      randomized shapes, including every tail length the masked/remainder
//      paths handle;
//   2. the exec bridge: staged digests across all helper modes and chunk
//      plans must agree across tiers.  No run path dispatches a SIMD kernel,
//      so this pins that switching the tier changes nothing.
//
// Tier switching uses the force_tier() test hook, so one process exercises
// every tier the host supports (a host without AVX2/AVX-512 just runs the
// scalar arm against itself).  The CASC_NO_SIMD environment path is covered
// separately by the exec_bridge_nosimd ctest entry.
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casc/common/aligned_alloc.hpp"
#include "casc/common/rng.hpp"
#include "casc/common/simd.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/rt/executor.hpp"

namespace {

using namespace casc;
namespace simd = common::simd;

/// All tiers this host can actually run, scalar first.
std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(simd::detected_tier()); ++t) {
    tiers.push_back(static_cast<simd::Tier>(t));
  }
  return tiers;
}

/// RAII: force a tier for one scope, always restore.
struct ForcedTier {
  explicit ForcedTier(simd::Tier t) { simd::force_tier(t); }
  ~ForcedTier() { simd::clear_forced_tier(); }
};

// Lengths that exercise the full-vector loops, the masked/remainder tails,
// and the empty case.
const std::vector<std::size_t> kLens = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                        15, 16, 17, 31, 33, 100, 1023};

TEST(SimdKernels, TierOrderingAndNames) {
  EXPECT_STREQ("scalar", simd::tier_name(simd::Tier::kScalar));
  EXPECT_STREQ("avx2", simd::tier_name(simd::Tier::kAvx2));
  EXPECT_STREQ("avx512", simd::tier_name(simd::Tier::kAvx512));
  // active_tier never exceeds detected_tier, and force_tier only clamps down.
  EXPECT_LE(static_cast<int>(simd::active_tier()),
            static_cast<int>(simd::detected_tier()));
  ForcedTier f(simd::Tier::kScalar);
  EXPECT_EQ(simd::Tier::kScalar, simd::active_tier());
}

TEST(SimdKernels, GatherOffsetsU64MatchesScalarBitForBit) {
  common::Rng rng(0x51D0FF5E75ull);
  std::vector<std::byte> region(64 * 1024);
  for (std::size_t i = 0; i < region.size(); ++i) {
    region[i] = static_cast<std::byte>(rng.next());
  }
  for (const std::size_t n : kLens) {
    std::vector<std::uint64_t> offsets(n);
    for (auto& o : offsets) o = rng.next() % (region.size() - 8);
    std::vector<std::uint64_t> want(n, 0);
    {
      ForcedTier f(simd::Tier::kScalar);
      simd::gather_offsets_u64(region.data(), offsets.data(), n, want.data());
    }
    for (const simd::Tier tier : host_tiers()) {
      std::vector<std::uint64_t> got(n, 0xdeadbeef);
      ForcedTier f(tier);
      simd::gather_offsets_u64(region.data(), offsets.data(), n, got.data());
      EXPECT_EQ(want, got) << "n=" << n << " tier=" << simd::tier_name(tier);
    }
  }
}

// ---- aligned allocation -----------------------------------------------------

TEST(AlignedAlloc, TierPolicyAndStorageAlignment) {
  EXPECT_EQ(common::kCacheLineSize, common::alignment_for_size(1));
  EXPECT_EQ(common::kCacheLineSize,
            common::alignment_for_size(common::kHugePageThreshold - 1));
  EXPECT_EQ(common::kHugePageSize,
            common::alignment_for_size(common::kHugePageThreshold));
  common::AlignedStorage small(1000);
  EXPECT_EQ(common::kCacheLineSize, small.alignment());
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(small.data()) %
                    common::kCacheLineSize);
  EXPECT_GE(small.size(), 1000u);
  common::AlignedStorage huge(common::kHugePageSize);
  EXPECT_EQ(common::kHugePageSize, huge.alignment());
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(huge.data()) %
                    common::kHugePageSize);
}

TEST(AlignedAlloc, AllocatorBacksAlignedVectors) {
  std::vector<std::uint64_t, common::AlignedAllocator<std::uint64_t>> v(1024);
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(v.data()) %
                    common::kCacheLineSize);
  v.assign(2048, 7u);
  EXPECT_EQ(7u, v[2047]);
}

// ---- exec bridge: staged digests identical across tiers ---------------------

loopir::LoopSpec load_spec(const std::string& file) {
  const std::string path = std::string(CASC_TEST_SPEC_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return loopir::LoopSpec::parse(buffer.str());
}

TEST(SimdBridge, DigestsIdenticalAcrossTiersHelperModesAndChunkPlans) {
  const std::vector<std::string> specs = {
      "dense_sum.casc", "spmv_small.casc", "gather_split.casc",
      "dot_product.casc"};
  for (const std::string& file : specs) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    rt::ExecutorConfig cfg;
    cfg.num_threads = 2;
    rt::CascadeExecutor executor(cfg);
    for (const exec::HelperMode mode :
         {exec::HelperMode::kNone, exec::HelperMode::kPrefetch,
          exec::HelperMode::kRestructure}) {
      for (const std::uint64_t ipc : {0ull, 7ull, 512ull}) {
        for (const simd::Tier tier : host_tiers()) {
          ForcedTier f(tier);
          exec::RtOptions opt;
          opt.helper = mode;
          opt.iters_per_chunk = ipc;
          const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
          EXPECT_EQ(ref.digest, got.digest)
              << file << " mode=" << static_cast<int>(mode) << " ipc=" << ipc
              << " tier=" << simd::tier_name(tier);
          EXPECT_EQ(ref.rw_checksum, got.rw_checksum)
              << file << " mode=" << static_cast<int>(mode) << " ipc=" << ipc
              << " tier=" << simd::tier_name(tier);
        }
      }
    }
  }
}

/// The slot `kind` of `array` (by name) moving `width` bytes, in `loop`.
exec::BodySlot slot(const exec::MaterializedLoop& loop, exec::SlotKind kind,
                    const std::string& array, std::uint8_t width) {
  const loopir::LoopNest& nest = loop.nest();
  for (loopir::ArrayId id = 0; id < nest.num_arrays(); ++id) {
    if (nest.array(id).name == array) return exec::BodySlot{kind, width, id};
  }
  ADD_FAILURE() << "no array " << array;
  return {};
}

/// The compact direct stream holds exactly the references the staged stream
/// does not: total minus staged, with every iteration owning the same share.
void expect_streams_partition_the_body(const exec::MaterializedLoop& loop) {
  const std::uint64_t n = loop.num_iterations();
  const std::uint64_t total =
      static_cast<std::uint64_t>(loop.refs_end(n - 1) - loop.refs_begin(0));
  const exec::BodyShape& shape = loop.body_shape();
  EXPECT_EQ(total, n * shape.slots.size());
  EXPECT_EQ(total - loop.staged_refs_total(), loop.direct_refs_total());
  EXPECT_EQ(loop.staged_refs_total(), loop.staged_refs_before(n));
  EXPECT_EQ(loop.direct_refs_total(), loop.direct_refs_before(n));
  EXPECT_EQ(shape.staged_reads, shape.staged.size());
  EXPECT_EQ(shape.slots.size(),
            shape.staged_reads + shape.plain_reads + shape.writes);
}

TEST(SimdBridge, BodyShapeClassifiesTheCanonicalSpecs) {
  using K = exec::SlotKind;
  {
    // dense_sum: every iteration stages both reads, one trailing write.
    exec::MaterializedLoop loop(load_spec("dense_sum.casc"));
    const exec::BodyShape& shape = loop.body_shape();
    EXPECT_EQ(0u, shape.plain_reads);
    EXPECT_EQ(1u, shape.writes);
    EXPECT_EQ(exec::SlotKind::kWrite, shape.slots.back().kind);
    const std::vector<exec::BodySlot> want = {
        slot(loop, K::kStagedRead, "a", 8), slot(loop, K::kStagedRead, "b", 8),
        slot(loop, K::kWrite, "y", 8)};
    EXPECT_EQ(want, shape.slots);
    EXPECT_EQ((std::vector<exec::BodySlot>{want[0], want[1]}), shape.staged);
    expect_streams_partition_the_body(loop);
  }
  {
    // spmv_small: staged reads (the 4-byte index load among them) plus a
    // plain accumulator read and a write.
    exec::MaterializedLoop loop(load_spec("spmv_small.casc"));
    const exec::BodyShape& shape = loop.body_shape();
    EXPECT_GT(shape.staged_reads, 0u);
    const std::vector<exec::BodySlot> want = {
        slot(loop, K::kStagedRead, "val", 8),
        slot(loop, K::kStagedRead, "col", 4),
        slot(loop, K::kStagedRead, "x", 8), slot(loop, K::kPlainRead, "y", 8),
        slot(loop, K::kWrite, "y", 8)};
    EXPECT_EQ(want, shape.slots);
    EXPECT_EQ((std::vector<exec::BodySlot>{want[0], want[1], want[2]}),
              shape.staged);
    expect_streams_partition_the_body(loop);
  }
  {
    // gather_split: the demoted claim leaves the t gather plain until the
    // first certifying proof restages it; the streams repartition with it.
    exec::MaterializedLoop loop(load_spec("gather_split.casc"));
    EXPECT_EQ((std::vector<exec::BodySlot>{
                  slot(loop, K::kStagedRead, "gidx", 4),
                  slot(loop, K::kPlainRead, "t", 8), slot(loop, K::kWrite, "t", 8)}),
              loop.body_shape().slots);
    expect_streams_partition_the_body(loop);
    const std::uint64_t direct_before = loop.direct_refs_total();

    (void)loop.restructure_proof(loop.num_iterations());
    EXPECT_EQ((std::vector<exec::BodySlot>{
                  slot(loop, K::kStagedRead, "gidx", 4),
                  slot(loop, K::kStagedRead, "t", 8), slot(loop, K::kWrite, "t", 8)}),
              loop.body_shape().slots);
    expect_streams_partition_the_body(loop);
    EXPECT_EQ(direct_before - loop.num_iterations(), loop.direct_refs_total());
  }
}

}  // namespace
