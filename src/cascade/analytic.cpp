#include "casc/cascade/analytic.hpp"

#include <algorithm>
#include <cmath>

#include "casc/cascade/engine.hpp"
#include "casc/common/check.hpp"
#include "casc/core/chunk.hpp"

namespace casc::cascade {

AnalyticPrediction predict(const AnalyticInputs& in) {
  CASC_CHECK(in.seq_cycles_per_iter > 0, "sequential cost must be positive");
  CASC_CHECK(in.staged_cycles_per_iter > 0, "staged cost must be positive");
  CASC_CHECK(in.num_processors >= 1, "need at least one processor");

  AnalyticPrediction out;
  out.inputs = in;

  // Coverage fixed point.  With coverage c, one iteration of execution costs
  //   exec(c) = c * staged + (1 - c) * seq
  // and the helper window per iteration is (P-1) * (exec(c) + overhead), so
  //   c = min(1, (P-1) * (exec(c) + overhead) / helper).
  // Iterate to convergence (the map is monotone and bounded; a handful of
  // iterations suffices for any sane inputs).
  const double P = static_cast<double>(in.num_processors);
  double c = in.num_processors > 1 ? 1.0 : 0.0;  // optimistic start
  if (in.helper_cycles_per_iter > 0 && in.num_processors > 1) {
    for (int iter = 0; iter < 64; ++iter) {
      const double exec =
          c * in.staged_cycles_per_iter + (1.0 - c) * in.seq_cycles_per_iter;
      const double next = std::min(
          1.0, (P - 1.0) * (exec + in.overhead_cycles_per_iter) /
                   in.helper_cycles_per_iter);
      if (std::abs(next - c) < 1e-12) {
        c = next;
        break;
      }
      c = next;
    }
  } else if (in.num_processors <= 1) {
    c = 0.0;  // no helper window at all
  }

  out.helper_coverage = c;
  out.exec_cycles_per_iter =
      c * in.staged_cycles_per_iter + (1.0 - c) * in.seq_cycles_per_iter;
  out.predicted_speedup =
      in.seq_cycles_per_iter /
      (out.exec_cycles_per_iter + in.overhead_cycles_per_iter);
  return out;
}

AnalyticInputs derive_inputs(const loopir::LoopNest& nest,
                             const sim::MachineConfig& config,
                             const CascadeOptions& opt,
                             const SequentialResult& sequential) {
  CASC_CHECK(nest.finalized(), "loop nest must be finalized");
  const double iters = static_cast<double>(nest.num_iterations());
  CASC_CHECK(iters > 0, "empty loop");

  AnalyticInputs in;
  in.num_processors = config.num_processors;
  in.seq_cycles_per_iter =
      static_cast<double>(sequential.total_cycles) / iters;

  // Execution-phase reference counts under the chosen helper.
  double exec_refs = 0;
  double staged_values = 0;  // values the restructuring helper writes per iter
  for (const loopir::AccessSpec& acc : nest.accesses()) {
    const loopir::ArraySpec& target = nest.array(acc.array);
    const bool restructured_away =
        opt.helper == HelperKind::kRestructure && target.read_only && !acc.is_write;
    if (opt.helper == HelperKind::kRestructure) {
      if (restructured_away) {
        exec_refs += 1;  // one buffer read replaces index load + operand
        staged_values += 1;
      } else {
        exec_refs += 1;                      // the in-place access stays
        if (acc.index_via) {
          exec_refs += 1;  // buffer read of the resolved index
          staged_values += 1;
        }
      }
    } else {
      exec_refs += acc.index_via ? 2 : 1;
    }
  }

  // Staged accesses are served where the chunk's data fits.
  const std::uint64_t chunk_iters =
      core::ChunkPlan::for_bytes(nest, opt.chunk_bytes).iters_per_chunk();
  const double chunk_data =
      static_cast<double>(chunk_iters) *
      static_cast<double>(std::max<std::uint64_t>(1, nest.bytes_per_iteration()));
  const double hit_cost = chunk_data <= static_cast<double>(config.l1.size_bytes)
                              ? config.l1.hit_latency
                              : config.l2.hit_latency;
  const double compute = opt.helper == HelperKind::kRestructure
                             ? nest.restructured_compute_cycles()
                             : nest.compute_cycles();
  in.staged_cycles_per_iter = compute + exec_refs * hit_cost;

  // The helper absorbs the sequential memory stalls and, for restructuring,
  // additionally writes the staged values (mostly cache hits: one line per
  // few values).
  if (opt.helper == HelperKind::kNone) {
    in.helper_cycles_per_iter = 0;
  } else {
    const double memory_per_iter =
        static_cast<double>(sequential.memory_cycles) / iters;
    const double staging_cost =
        opt.helper == HelperKind::kRestructure
            ? staged_values * config.l1.hit_latency
            : 0.0;
    in.helper_cycles_per_iter = memory_per_iter + staging_cost;
  }

  in.overhead_cycles_per_iter =
      static_cast<double>(config.control_transfer_cycles + config.chunk_startup_cycles) /
      static_cast<double>(chunk_iters);
  return in;
}

AnalyticPrediction predict(const loopir::LoopNest& nest,
                           const sim::MachineConfig& config, const CascadeOptions& opt,
                           const SequentialResult& sequential) {
  return predict(derive_inputs(nest, config, opt, sequential));
}

}  // namespace casc::cascade
