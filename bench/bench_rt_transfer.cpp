// Real-runtime microbenchmarks (google-benchmark): the cost of a control
// transfer on this host — the quantity the paper measured at ~120 cycles on
// the Pentium Pro and ~500 cycles on the R10000 (§3.3 footnote 2) — plus
// token primitives and the prefetch helper's sweep speed.
//
// NOTE: on a single-core host the hand-off between *threads* includes an OS
// reschedule, so the measured figure is an upper bound; the single-threaded
// token ping-pong below isolates the shared-memory flag cost itself.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_gbench_json.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/helpers.hpp"
#include "casc/rt/token.hpp"

namespace {

using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::Token;

// The raw shared-memory flag update + observation, single-threaded: the
// floor for any control transfer.
void BM_TokenPassAndObserve(benchmark::State& state) {
  Token token;
  token.reset();
  std::uint64_t chunk = 0;
  for (auto _ : state) {
    token.pass(chunk);
    benchmark::DoNotOptimize(token.current());
    ++chunk;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TokenPassAndObserve);

// Full cross-thread hand-off: empty chunks cascaded over N threads; the
// per-chunk time is dominated by transfer cost.  A 256-chunk run performs
// 255 hand-offs (the final pass() has no receiving processor), matching
// RunStats::transfers.
void BM_CrossThreadTransfer(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  CascadeExecutor ex(ExecutorConfig{threads, false});
  constexpr std::uint64_t kChunks = 256;
  constexpr std::uint64_t kTransfers = kChunks - 1;
  for (auto _ : state) {
    ex.run(kChunks, 1, [](std::uint64_t, std::uint64_t) {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTransfers);
  state.counters["transfers/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * kTransfers,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CrossThreadTransfer)->Arg(1)->Arg(2)->Arg(4);

// The same empty-chunk cascade at 1x/2x/4x oversubscription (threads =
// factor * cores) on the default config: at 1x the waiters spin, above it
// the executor parks them in the futex tier, which stops them stealing
// scheduler slices from the token holder.  The benchmark arg is the
// oversubscription factor, so names (and therefore baseline metric keys)
// are stable across hosts with different core counts.  tokens/s is the
// transfer rate the executor sustains.
void BM_TransferOversubscribed(benchmark::State& state) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = static_cast<unsigned>(state.range(0)) * cores;
  CascadeExecutor ex(ExecutorConfig{threads, false});
  constexpr std::uint64_t kChunks = 256;
  for (auto _ : state) {
    ex.run(kChunks, 1, [](std::uint64_t, std::uint64_t) {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kChunks);
  state.counters["tokens/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * kChunks,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TransferOversubscribed)->Arg(1)->Arg(2)->Arg(4);

// Forced-load prefetch sweep speed (helper-phase cache warming).
void BM_PrefetchSpan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> data(n, 2.0);
  Token token;
  token.reset();
  const casc::rt::TokenWatch watch(&token, 1);  // never signalled
  for (auto _ : state) {
    benchmark::DoNotOptimize(casc::rt::prefetch_span(data.data(), 0, n, watch));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_PrefetchSpan)->Arg(8192)->Arg(262144);

}  // namespace

int main(int argc, char** argv) {
  return casc::bench::run_gbench_and_report("rt_transfer", argc, argv);
}
