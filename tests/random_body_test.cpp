// Randomized bridge bodies: seeded random LoopSpecs over every slot shape a
// staged chunk addresses through the body's slot table and the compact
// direct stream — element widths 1, 2, 4, 8 and 12, ro and rw arrays,
// index-via gathers, plain reads of rw arrays, one to three writes per body
// in any order, and now and then a false read-only claim that the sanitizer
// demotes (and a certificate may restage).  run_reference must agree with
// the test-side interpreter (test_util.hpp) on every spec, and every spec
// must reproduce run_reference's digest and checksum under every helper
// mode, at 1, 2 and 4 threads, for chunks of 1 and 7 iterations, the
// default geometry, and one chunk longer than the loop, on every SIMD tier
// the host supports.
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "casc/common/rng.hpp"
#include "casc/common/simd.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/rt/executor.hpp"
#include "test_util.hpp"

namespace {

using namespace casc;
namespace simd = common::simd;

constexpr std::uint64_t kSeeds = 24;

/// One random access line, after an optional `via <index>`.
std::string affine(common::Rng& rng) {
  static const std::int64_t kStrides[] = {1, 1, 1, 2, 3, -1, 0};
  const std::int64_t stride = kStrides[rng.below(std::size(kStrides))];
  const std::int64_t offset = static_cast<std::int64_t>(rng.below(9)) - 4;
  return " stride " + std::to_string(stride) + " offset " + std::to_string(offset);
}

/// A seeded random spec.  Every fourth seed is the all-staged-reads-then-
/// one-write shape (the fused reads-then-write kernel); the rest mix plain
/// reads, staged reads and writes in random order.
std::string random_spec(std::uint64_t seed) {
  common::Rng rng(0xB0D1E5ull + seed * 0x9e3779b97f4a7c15ull);
  static const unsigned kWidths[] = {1, 2, 4, 8, 12};
  const bool reads_then_write = seed % 4 == 0;

  std::string text = "loop random_body_" + std::to_string(seed) + "\n";
  text += "trip " + std::to_string(1 + rng.below(700)) + "\n";
  text += "compute 4 3\nlayout conflicting\n";
  auto declare = [&](const std::string& name, bool ro) {
    text += "array " + name + " " + std::to_string(kWidths[rng.below(5)]) + " " +
            std::to_string(1 + rng.below(200)) + (ro ? " ro\n" : " rw\n");
  };
  const std::uint64_t ro_count = 1 + rng.below(3);
  const std::uint64_t rw_count = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < ro_count; ++i) {
    declare(std::string("r").append(std::to_string(i)), true);
  }
  for (std::uint64_t i = 0; i < rw_count; ++i) {
    declare(std::string("w").append(std::to_string(i)), false);
  }
  static const char* kPatterns[] = {"random", "perm", "identity", "strided"};
  text += "index g " + std::to_string(1 + rng.below(300)) + " " +
          kPatterns[rng.below(4)] + " " + std::to_string(1 + rng.below(1000)) +
          "\n";

  auto ro_name = [&] {
    return std::string("r").append(std::to_string(rng.below(ro_count)));
  };
  auto rw_name = [&] {
    return std::string("w").append(std::to_string(rng.below(rw_count)));
  };
  std::vector<std::string> reads;
  const std::uint64_t read_count = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < read_count; ++i) {
    const std::uint64_t kind = reads_then_write ? rng.below(2) : rng.below(4);
    switch (kind) {
      case 0: reads.push_back("access " + ro_name() + " read" + affine(rng)); break;
      case 1: reads.push_back("access " + ro_name() + " read via g" + affine(rng)); break;
      case 2: reads.push_back("access " + rw_name() + " read" + affine(rng)); break;
      default: reads.push_back("access " + rw_name() + " read via g" + affine(rng)); break;
    }
  }
  std::vector<std::string> writes;
  const std::uint64_t write_count = reads_then_write ? 1 : 1 + rng.below(3);
  for (std::uint64_t i = 0; i < write_count; ++i) {
    // One body in six writes an array it claims read-only.
    const bool false_claim = !reads_then_write && rng.below(6) == 0;
    writes.push_back("access " + (false_claim ? ro_name() : rw_name()) +
                     " write" + affine(rng));
  }
  std::vector<std::string> body = reads;
  if (reads_then_write) {
    body.push_back(writes.front());
  } else {
    body.insert(body.end(), writes.begin(), writes.end());
    for (std::size_t i = body.size(); i > 1; --i) {
      std::swap(body[i - 1], body[rng.below(i)]);
    }
  }
  for (const std::string& line : body) text += line + "\n";
  return text;
}

std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(simd::detected_tier()); ++t) {
    tiers.push_back(static_cast<simd::Tier>(t));
  }
  return tiers;
}

struct ForcedTier {
  explicit ForcedTier(simd::Tier t) { simd::force_tier(t); }
  ~ForcedTier() { simd::clear_forced_tier(); }
};

class RandomBody : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomBody, MatchesTheReferenceEverywhere) {
  const std::string text = random_spec(GetParam());
  SCOPED_TRACE(text);
  const loopir::LoopSpec spec = loopir::LoopSpec::parse(text);
  exec::MaterializedLoop loop(spec);
  const exec::ExecResult ref = exec::run_reference(loop);
  const std::uint64_t trip = loop.num_iterations();

  // The reference agrees with the test-side interpreter, run over a fresh
  // loop's arrays, before any cascaded run is compared with it.
  exec::MaterializedLoop fresh(spec);
  std::vector<std::byte*> data;
  for (loopir::ArrayId id = 0; id < fresh.nest().num_arrays(); ++id) {
    data.push_back(fresh.array_data(id));
  }
  const test::OracleResult want = test::interpret_nest(fresh.nest(), data);
  EXPECT_EQ(ref.digest, want.digest);
  EXPECT_EQ(ref.rw_checksum, want.rw_checksum);

  std::uint64_t staged_chunks = 0;
  for (const unsigned threads : {1u, 2u, 4u}) {
    rt::ExecutorConfig cfg;
    cfg.num_threads = threads;
    rt::CascadeExecutor executor(cfg);
    for (const exec::HelperMode mode :
         {exec::HelperMode::kNone, exec::HelperMode::kPrefetch,
          exec::HelperMode::kRestructure}) {
      for (const std::uint64_t ipc : {std::uint64_t{1}, std::uint64_t{7},
                                      std::uint64_t{0}, trip + 5}) {
        for (const simd::Tier tier : host_tiers()) {
          ForcedTier forced(tier);
          exec::RtOptions opt;
          opt.helper = mode;
          opt.iters_per_chunk = ipc;
          const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
          EXPECT_EQ(ref.digest, got.digest)
              << "threads=" << threads << " mode=" << static_cast<int>(mode)
              << " ipc=" << ipc << " tier=" << simd::tier_name(tier);
          EXPECT_EQ(ref.rw_checksum, got.rw_checksum)
              << "threads=" << threads << " mode=" << static_cast<int>(mode)
              << " ipc=" << ipc << " tier=" << simd::tier_name(tier);
          if (mode == exec::HelperMode::kRestructure) {
            staged_chunks += got.staged_chunks;
          }
        }
      }
    }
  }
  // The staged path really ran: a loop the gate proves, with something to
  // stage, commits some chunk across its ~100 restructure runs.
  const exec::RtOptions defaults;
  if (exec::gate_for(loop, defaults.chunk_bytes).is_proven() &&
      loop.body_shape().staged_reads > 0 && trip > 7) {
    EXPECT_GT(staged_chunks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBody, ::testing::Range<std::uint64_t>(0, kSeeds));

/// The generator reaches every slot class the fused kernels address through
/// the slot table and the direct stream: narrow and wide writes and plain
/// reads, two or more writes in a body, 12-byte elements (moved as 8),
/// index gathers, both fused staged shapes, and restaged false claims.
TEST(RandomBodies, GeneratorCoversEverySlotClass) {
  bool narrow_write = false, wide_write = false, narrow_plain = false,
       wide_plain = false, two_writes = false, clamped = false, gathers = false,
       reads_then_write = false, mixed = false, demoted = false;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const loopir::LoopSpec spec = loopir::LoopSpec::parse(random_spec(seed));
    exec::MaterializedLoop loop(spec);
    const exec::BodyShape& shape = loop.body_shape();
    for (const exec::BodySlot& slot : shape.slots) {
      if (slot.kind == exec::SlotKind::kWrite) {
        (slot.width < 8 ? narrow_write : wide_write) = true;
      } else if (slot.kind == exec::SlotKind::kPlainRead) {
        (slot.width < 8 ? narrow_plain : wide_plain) = true;
      }
      if (loop.nest().array(slot.array).elem_size == 12) clamped = true;
    }
    for (const auto& access : spec.accesses) {
      if (access.index_via) gathers = true;
    }
    two_writes |= shape.writes >= 2;
    reads_then_write |= shape.plain_reads == 0 && shape.writes == 1 &&
                        shape.slots.back().kind == exec::SlotKind::kWrite;
    mixed |= shape.plain_reads > 0 && shape.staged_reads > 0;
    demoted |= !loop.demoted_claims().empty();
  }
  EXPECT_TRUE(narrow_write);
  EXPECT_TRUE(wide_write);
  EXPECT_TRUE(narrow_plain);
  EXPECT_TRUE(wide_plain);
  EXPECT_TRUE(two_writes);
  EXPECT_TRUE(clamped);
  EXPECT_TRUE(gathers);
  EXPECT_TRUE(reads_then_write);
  EXPECT_TRUE(mixed);
  EXPECT_TRUE(demoted);
}

}  // namespace
