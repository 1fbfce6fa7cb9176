// Real-runtime end-to-end benchmarks (google-benchmark): a memory-bound
// scattered-gather loop run sequentially vs cascaded on real threads, with a
// prefetch helper and with no helper.  On a multi-core host the prefetch
// variant approaches the paper's behaviour; on a single-core host it
// documents the overhead floor (the README explains why — helpers then
// time-share the one core).  The restructure helper is measured through the
// exec bridge's staging engine instead, by bench_rt_pipeline and perfbench.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_gbench_json.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/helpers.hpp"

namespace {

using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::TokenWatch;

constexpr std::uint64_t kN = 1 << 20;           // 8 MB of doubles per array
constexpr std::uint64_t kChunkIters = 8 * 1024;  // 64 KB of operand data

struct Workload {
  std::vector<double> a;
  std::vector<std::uint32_t> ij;
  std::vector<double> x;

  Workload() : a(kN), ij(kN), x(kN, 0.0) {
    for (std::uint64_t i = 0; i < kN; ++i) {
      a[i] = static_cast<double>(i % 1024) * 0.25;
      ij[i] = static_cast<std::uint32_t>((i * 2654435761u) % kN);  // scattered reads
    }
  }
};

Workload& workload() {
  static Workload w;
  return w;
}

void BM_SequentialGather(benchmark::State& state) {
  Workload& w = workload();
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < kN; ++i) w.x[i] = w.a[w.ij[i]] + 1.0;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_SequentialGather);

void BM_CascadedGatherPrefetch(benchmark::State& state) {
  Workload& w = workload();
  CascadeExecutor ex(ExecutorConfig{static_cast<unsigned>(state.range(0)), false});
  for (auto _ : state) {
    ex.run(
        kN, kChunkIters,
        [&](std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t i = b; i < e; ++i) w.x[i] = w.a[w.ij[i]] + 1.0;
        },
        [&](std::uint64_t b, std::uint64_t e, const TokenWatch& watch) {
          for (std::uint64_t i = b; i < e; ++i) {
            if ((i & 63) == 0 && watch.signalled()) return false;
            casc::rt::force_load(&w.a[w.ij[i]]);
          }
          return true;
        });
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_CascadedGatherPrefetch)->Arg(2)->Arg(4);

// Helper-free cascade: pure framework overhead (chunking + token hand-offs)
// over the sequential loop.  Oversubscribed on a small host this is the
// number the futex parking tier exists for — sleeping waiters leave the
// token holder the whole core, so the wall should stay within a few percent
// of BM_SequentialGather.
void BM_CascadedGatherNoHelper(benchmark::State& state) {
  Workload& w = workload();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  CascadeExecutor ex(ExecutorConfig{threads, false});
  for (auto _ : state) {
    ex.run(kN, kChunkIters, [&](std::uint64_t b, std::uint64_t e) {
      for (std::uint64_t i = b; i < e; ++i) w.x[i] = w.a[w.ij[i]] + 1.0;
    });
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_CascadedGatherNoHelper)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  return casc::bench::run_gbench_and_report("rt_runtime", argc, argv);
}
