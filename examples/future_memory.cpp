// Example: project cascaded execution onto future machines (paper §3.4) by
// scaling memory latency on the Pentium Pro model and running the synthetic
// loop, dense and sparse.  As the memory-access-to-compute ratio grows, so
// does the technique's benefit.
#include <iostream>

#include "casc/cascade/engine.hpp"
#include "casc/report/table.hpp"
#include "casc/sim/machine.hpp"
#include "casc/synth/synthetic_loop.hpp"

int main() {
  using namespace casc;  // NOLINT(build/namespaces)
  constexpr std::uint64_t kN = 1 << 20;  // 4 MB integer arrays

  const auto dense = synth::make_synthetic_loop(synth::Density::kDense, kN);
  const auto sparse = synth::make_synthetic_loop(synth::Density::kSparse, kN);

  report::Table table({"Memory scale", "Mem latency", "Dense speedup",
                       "Sparse speedup"});
  table.set_title(
      "Restructured cascaded execution vs memory latency (unbounded helpers, "
      "32 KB chunks)");

  for (const double memory_scale : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    sim::MachineConfig cfg = memory_scale == 1.0
                                 ? sim::MachineConfig::pentium_pro(1)
                                 : sim::MachineConfig::future(memory_scale, 1);
    cfg.num_processors = 1;  // the paper's single-processor alternation model
    cascade::CascadeSimulator sim(cfg);
    cascade::CascadeOptions opt;
    opt.helper = cascade::HelperKind::kRestructure;
    opt.time_model = cascade::HelperTimeModel::kUnbounded;
    opt.chunk_bytes = 32 * 1024;
    opt.start_state = cascade::StartState::kCold;
    table.add_row({std::string("x").append(report::fmt_double(memory_scale, 0)),
                   std::to_string(cfg.memory_latency),
                   report::fmt_double(sim.speedup(dense, opt)),
                   report::fmt_double(sim.speedup(sparse, opt))});
  }
  table.print(std::cout);
  std::cout << "\nReading: the sparse loop (no spatial locality) gains most; this "
               "is the paper's 'speedups as high as 16 on future machines' story.\n";
  return 0;
}
