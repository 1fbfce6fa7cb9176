// Cross-module integration tests: the paper's qualitative claims, end to
// end — PARMVR miniatures under both machine models, the synthetic future
// study, and simulator/runtime agreement on the technique's structure.
#include <gtest/gtest.h>

#include <vector>

#include "casc/cascade/chunk_tuner.hpp"
#include "casc/cascade/engine.hpp"
#include "casc/common/stats.hpp"
#include "casc/report/table.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/helpers.hpp"
#include "casc/synth/synthetic_loop.hpp"
#include "casc/wave5/parmvr.hpp"

namespace {

using casc::cascade::CascadeOptions;
using casc::cascade::CascadeResult;
using casc::cascade::CascadeSimulator;
using casc::cascade::HelperKind;
using casc::cascade::HelperTimeModel;
using casc::cascade::SequentialResult;
using casc::cascade::StartState;
using casc::loopir::LoopNest;
using casc::sim::MachineConfig;
using casc::synth::Density;
using casc::synth::make_synthetic_loop;
using casc::wave5::make_parmvr;

// Scale 16 shrinks PARMVR footprints ~16x (16 KB .. 1.1 MB) — still several
// times both machines' L1 and around/above the PPro L2, so the qualitative
// cache story survives while tests stay fast.
constexpr unsigned kScale = 16;

double overall_speedup(const MachineConfig& cfg, HelperKind helper,
                       std::uint64_t chunk_bytes) {
  CascadeSimulator sim(cfg);
  CascadeOptions opt;
  opt.helper = helper;
  opt.chunk_bytes = chunk_bytes;
  std::uint64_t seq_total = 0, casc_total = 0;
  for (const LoopNest& nest : make_parmvr(kScale)) {
    seq_total += sim.run_sequential(nest).total_cycles;
    casc_total += sim.run_cascaded(nest, opt).total_cycles;
  }
  return static_cast<double>(seq_total) / static_cast<double>(casc_total);
}

TEST(PaperClaims, RestructuredParmvrSpeedsUpOnBothMachines) {
  // Paper: overall speedups of 1.35 (PPro) and 1.7 (R10000) for restructured
  // cascaded execution with 64 KB chunks.  At miniature scale we require the
  // direction (speedup > 1.05), not the paper's exact magnitudes — those are
  // checked at full scale by the benches and recorded in EXPERIMENTS.md.
  EXPECT_GT(overall_speedup(MachineConfig::pentium_pro(4), HelperKind::kRestructure,
                            16 * 1024),
            1.05);
  EXPECT_GT(overall_speedup(MachineConfig::r10000(8), HelperKind::kRestructure,
                            16 * 1024),
            1.05);
}

TEST(PaperClaims, RestructuringBeatsPrefetchingOverall) {
  // Paper §3.3: "Data restructuring is significantly more effective than
  // prefetching alone", on both platforms.
  EXPECT_GT(overall_speedup(MachineConfig::pentium_pro(4), HelperKind::kRestructure,
                            16 * 1024),
            overall_speedup(MachineConfig::pentium_pro(4), HelperKind::kPrefetch,
                            16 * 1024));
  EXPECT_GT(overall_speedup(MachineConfig::r10000(8), HelperKind::kRestructure,
                            16 * 1024),
            overall_speedup(MachineConfig::r10000(8), HelperKind::kPrefetch,
                            16 * 1024));
}

TEST(PaperClaims, SequentialR10000HasMoreL2MissesThanPPro) {
  // Paper §3.3: 2.59x more L2 misses sequentially on the R10000 (lower L2
  // associativity).  Require the direction and a nontrivial ratio.
  CascadeSimulator ppro(MachineConfig::pentium_pro(4));
  CascadeSimulator r10k(MachineConfig::r10000(8));
  std::uint64_t ppro_misses = 0, r10k_misses = 0;
  for (const LoopNest& nest : make_parmvr(kScale)) {
    ppro_misses += ppro.run_sequential(nest).l2.misses;
    r10k_misses += r10k.run_sequential(nest).l2.misses;
  }
  EXPECT_GT(static_cast<double>(r10k_misses), 1.3 * static_cast<double>(ppro_misses));
}

TEST(PaperClaims, SparseSyntheticGainsExceedDense) {
  // Paper §3.4 / Figure 7: sparse (k=8) speedups far exceed dense (k=1).
  const std::uint64_t n = 256 * 1024;  // 1 MB arrays: several x the mini L2s
  CascadeSimulator sim(MachineConfig::pentium_pro(1));
  CascadeOptions opt;
  opt.helper = HelperKind::kRestructure;
  opt.time_model = HelperTimeModel::kUnbounded;
  opt.chunk_bytes = 32 * 1024;
  const double dense = sim.speedup(make_synthetic_loop(Density::kDense, n), opt);
  const double sparse = sim.speedup(make_synthetic_loop(Density::kSparse, n), opt);
  EXPECT_GT(sparse, dense);
  EXPECT_GT(sparse, 2.0);
}

TEST(PaperClaims, PerLoopResultsVary) {
  // Paper Figure 3: individual loops range from slight slowdown to large
  // speedup under the same configuration.
  CascadeSimulator sim(MachineConfig::pentium_pro(4));
  CascadeOptions opt;
  opt.helper = HelperKind::kRestructure;
  opt.chunk_bytes = 16 * 1024;
  casc::common::RunningStats spread;
  for (const LoopNest& nest : make_parmvr(kScale)) {
    spread.add(sim.speedup(nest, opt));
  }
  EXPECT_LT(spread.min(), 1.1) << "some loop should barely benefit or slow down";
  EXPECT_GT(spread.max(), 1.5) << "some loop should benefit substantially";
}

TEST(Integration, TunerFindsMidRangeOptimumForParmvrLoop) {
  // Paper Figure 6: optimum chunk size is interior (16-64 KB at full scale) —
  // small chunks drown in transfers, huge chunks starve helpers.
  CascadeSimulator sim(MachineConfig::pentium_pro(4));
  const LoopNest nest = casc::wave5::make_parmvr_loop(9, kScale);
  CascadeOptions opt;
  opt.helper = HelperKind::kRestructure;
  const auto tune = casc::cascade::tune_chunk_size(sim, nest, opt, 1024, 256 * 1024);
  EXPECT_GT(tune.best_chunk_bytes, 1024u);
  EXPECT_LT(tune.best_chunk_bytes, 256u * 1024);
}

TEST(Integration, SimulatedAndRealRuntimeAgreeOnChunkStructure) {
  // The simulator's chunk plan and the real executor must partition work
  // identically for the same parameters.
  const std::uint64_t n = 3333, chunk_iters = 128;
  const auto plan = casc::core::ChunkPlan::for_iters(n, chunk_iters);
  casc::rt::CascadeExecutor ex(casc::rt::ExecutorConfig{2, false});
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
  ex.run(n, chunk_iters,
         [&](std::uint64_t b, std::uint64_t e) { seen.emplace_back(b, e); });
  ASSERT_EQ(seen.size(), plan.num_chunks());
  for (std::uint64_t c = 0; c < plan.num_chunks(); ++c) {
    EXPECT_EQ(seen[c].first, plan.chunk(c).begin);
    EXPECT_EQ(seen[c].second, plan.chunk(c).end);
  }
  // Hand-offs, not passes: the final pass() has no receiving processor.
  EXPECT_EQ(ex.last_run_stats().transfers, plan.num_chunks() - 1);
}

TEST(Integration, ReportRendersAFigureStyleTable) {
  CascadeSimulator sim(MachineConfig::pentium_pro(2));
  CascadeOptions opt;
  opt.helper = HelperKind::kRestructure;
  opt.chunk_bytes = 16 * 1024;
  casc::report::Table table({"loop", "seq cycles", "casc cycles", "speedup"});
  for (int id = 1; id <= 3; ++id) {
    const LoopNest nest = casc::wave5::make_parmvr_loop(id, 64);
    const SequentialResult seq = sim.run_sequential(nest);
    const CascadeResult casc = sim.run_cascaded(nest, opt);
    table.add_row({std::to_string(id), casc::report::fmt_count(seq.total_cycles),
                   casc::report::fmt_count(casc.total_cycles),
                   casc::report::fmt_double(static_cast<double>(seq.total_cycles) /
                                            static_cast<double>(casc.total_cycles))});
  }
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_FALSE(table.to_string().empty());
}

}  // namespace
