// Gather kernel microbenchmark (google-benchmark): the runtime-dispatched
// SIMD gather by byte offset (casc/common/simd.hpp) against its
// forced-scalar reference, over scattered 8-byte words.  The SIMD variant
// runs at whatever tier the host dispatches (scalar on a non-AVX2 box — the
// names stay stable so bench_diff can gate on them; the simd_tier counter
// records what actually ran).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_gbench_json.hpp"
#include "casc/common/aligned_alloc.hpp"
#include "casc/common/simd.hpp"

namespace {

namespace simd = casc::common::simd;

constexpr std::size_t kRegionBytes = 8u << 20;  // far beyond L2: memory-bound
constexpr std::size_t kBatch = 1 << 16;         // gathers per iteration

/// Shared inputs: a pseudo-random region, scattered byte offsets (the same
/// multiplicative-hash scatter the rt benches use), and a cache-line-aligned
/// destination.
struct Inputs {
  casc::common::AlignedStorage region{kRegionBytes};
  std::vector<std::uint64_t> offsets;
  casc::common::AlignedStorage out{kBatch * 8};

  Inputs() : offsets(kBatch) {
    auto* words = reinterpret_cast<std::uint64_t*>(region.data());
    const std::size_t n = kRegionBytes / 8;
    for (std::size_t i = 0; i < n; ++i) words[i] = i * 0x9e3779b97f4a7c15ull;
    for (std::size_t k = 0; k < kBatch; ++k) {
      offsets[k] = (k * 2654435761u) % n * 8;
    }
  }
};

Inputs& inputs() {
  static Inputs in;
  return in;
}

void record(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch * 8));
  state.counters["simd_tier"] =
      static_cast<double>(static_cast<int>(simd::active_tier()));
}

template <bool kForceScalar>
void BM_GatherOffsetsU64(benchmark::State& state) {
  Inputs& in = inputs();
  if (kForceScalar) simd::force_tier(simd::Tier::kScalar);
  auto* out = reinterpret_cast<std::uint64_t*>(in.out.data());
  for (auto _ : state) {
    simd::gather_offsets_u64(in.region.data(), in.offsets.data(), kBatch, out);
    benchmark::ClobberMemory();
  }
  record(state);
  simd::clear_forced_tier();
}
BENCHMARK(BM_GatherOffsetsU64<true>)->Name("BM_GatherOffsetsU64Scalar");
BENCHMARK(BM_GatherOffsetsU64<false>)->Name("BM_GatherOffsetsU64Simd");

}  // namespace

int main(int argc, char** argv) {
  return casc::bench::run_gbench_and_report("rt_kernels", argc, argv);
}
