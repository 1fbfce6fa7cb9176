// The flagship pipeline bench: wave5's call-12 PARMVR chain — 15 loops over
// one shared array namespace — run as ONE pipelined cascade (one executor,
// one staging arena every stage gathers into) at 1/2/4 worker threads,
// against the sequential reference.
//
// Restructure proofs are memoized on the stage loops, so one untimed pass
// proves every stage before timing starts: otherwise the first timed thread
// count would pay every proof and the others would ride the memo.  The pass
// runs on the widest executor the bench times, which proves the stages side
// by side on its workers.
//
// The deterministic metric is a gate, not a measurement: digest_mismatch
// (the chain must reproduce the sequential reference bit for bit) baselines
// at ZERO, so any nonzero value blows the loose rt tolerance and fails the
// diff.  Wall-time ratios are host-dependent and ride the loose tolerance;
// the sim-backend cycle counts are deterministic at a given scale.
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/pipeline.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/rt/executor.hpp"
#include "casc/telemetry/bench_reporter.hpp"
#include "casc/wave5/parmvr.hpp"

namespace {

using namespace casc;

struct SimStudy {
  std::uint64_t seq_cycles = 0;
  std::uint64_t chain_cycles = 0;
};

/// Predicted on the simulated machine: the sequential chain and the cascaded
/// chain, each on one persistent machine (cache state carries stage to
/// stage).
SimStudy run_sim_study(exec::MaterializedPipeline& pipe,
                       std::uint64_t chunk_bytes) {
  const sim::MachineConfig cfg = sim::MachineConfig::pentium_pro();
  cascade::CascadeOptions opt;
  opt.chunk_bytes = chunk_bytes;
  opt.helper = cascade::HelperKind::kRestructure;
  cascade::CascadeSimulator seq_sim(cfg);
  cascade::CascadeSimulator chain_sim(cfg);
  SimStudy study;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    const loopir::LoopNest& nest = pipe.stage(k).nest();
    study.seq_cycles +=
        (k == 0 ? seq_sim.run_sequential(nest, opt.start_state)
                : seq_sim.continue_sequential(nest))
            .total_cycles;
    study.chain_cycles += (k == 0 ? chain_sim.run_cascaded(nest, opt)
                                  : chain_sim.continue_cascaded(nest, opt))
                              .total_cycles;
  }
  return study;
}

}  // namespace

int main() {
  bench::print_scale_banner();
  const unsigned scale = bench::workload_scale();
  const std::uint64_t chunk_bytes = 64 * 1024;

  const loopir::PipelineSpec spec = wave5::make_parmvr_pipeline(scale);
  exec::MaterializedPipeline pipe(spec);

  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  opt.chunk_bytes = chunk_bytes;

  telemetry::BenchReporter rep("rt_pipeline");
  rep.set_param("backend", std::string("rt"));
  rep.set_param("pipeline", spec.name);
  rep.set_param("stages", static_cast<std::uint64_t>(pipe.num_stages()));
  rep.set_param("chunk_bytes", chunk_bytes);
  rep.set_param("helper", std::string("restructure"));

  bench::run_and_report(rep, [&] {
    const exec::PipelineResult ref = exec::run_pipeline_reference(pipe);
    rep.add_metric("reference_seconds", ref.seconds);

    const SimStudy sim_study = run_sim_study(pipe, chunk_bytes);
    rep.add_metric("sim.seq_cycles", static_cast<double>(sim_study.seq_cycles));
    rep.add_metric("sim.chain_cycles",
                   static_cast<double>(sim_study.chain_cycles));

    {
      rt::ExecutorConfig cfg;
      cfg.num_threads = 4;
      rt::CascadeExecutor executor(cfg);
      (void)exec::run_pipeline_cascaded(pipe, executor, opt);
    }

    report::Table table({"Threads", "Pipeline s", "vs reference", "Digest"});
    table.set_title("PARMVR call-12 chain: pipelined cascade vs the sequential "
                    "reference (restructure, 64 KB chunks)");
    for (const unsigned threads : {1u, 2u, 4u}) {
      rt::ExecutorConfig cfg;
      cfg.num_threads = threads;
      rt::CascadeExecutor executor(cfg);
      const exec::PipelineResult chain =
          exec::run_pipeline_cascaded(pipe, executor, opt);

      const std::uint64_t mismatches =
          (chain.chain_digest != ref.chain_digest ? 1u : 0u) +
          (chain.rw_checksum != ref.rw_checksum ? 1u : 0u);

      const double vs_reference =
          chain.seconds > 0.0 ? ref.seconds / chain.seconds : 0.0;
      const std::string key = std::string("t").append(std::to_string(threads));
      rep.add_metric(key + ".pipeline_seconds", chain.seconds);
      rep.add_metric(key + ".pipeline_vs_reference", vs_reference);
      rep.add_metric(key + ".digest_mismatch", static_cast<double>(mismatches));

      table.add_row({std::to_string(threads),
                     report::fmt_double(chain.seconds),
                     report::fmt_double(vs_reference),
                     mismatches == 0 ? "match" : "MISMATCH"});
    }
    table.print(std::cout);
    std::cout << "sim predicted vs reference: "
              << report::fmt_double(
                     sim_study.chain_cycles > 0
                         ? static_cast<double>(sim_study.seq_cycles) /
                               static_cast<double>(sim_study.chain_cycles)
                         : 0.0)
              << "x (" << report::fmt_count(sim_study.seq_cycles) << " vs "
              << report::fmt_count(sim_study.chain_cycles) << " cycles)\n";
  });
  return 0;
}
