#include "casc/cascade/helper_selector.hpp"

#include "casc/common/check.hpp"

namespace casc::cascade {

namespace {
constexpr HelperKind kAllKinds[] = {HelperKind::kNone, HelperKind::kPrefetch,
                                    HelperKind::kRestructure};
}

HelperChoice select_helper(CascadeSimulator& sim, const core::Workload& workload,
                           CascadeOptions opt) {
  const SequentialResult seq = sim.run_sequential(workload, opt.start_state);
  HelperChoice choice;
  choice.chunk_bytes = opt.chunk_bytes;
  for (HelperKind kind : kAllKinds) {
    opt.helper = kind;
    const CascadeResult r = sim.run_cascaded(workload, opt);
    const double speedup = static_cast<double>(seq.total_cycles) /
                           static_cast<double>(r.total_cycles);
    choice.speedup_by_kind[static_cast<int>(kind)] = speedup;
    if (kind == HelperKind::kRestructure && r.preflight_demoted) {
      // The verifier refused the restructure trial; what ran was prefetch.
      // An unproven helper must never win the selection.
      choice.restructure_refused = true;
      continue;
    }
    if (speedup > choice.speedup) {
      choice.speedup = speedup;
      choice.helper = kind;
    }
  }
  return choice;
}

HelperChoice select_helper(CascadeSimulator& sim, const loopir::LoopNest& nest,
                           CascadeOptions opt) {
  return select_helper(sim, core::LoopWorkload(nest), opt);
}

HelperChoice select_helper_and_chunk(CascadeSimulator& sim,
                                     const core::Workload& workload,
                                     CascadeOptions opt, std::uint64_t min_bytes,
                                     std::uint64_t max_bytes) {
  CASC_CHECK(min_bytes > 0 && min_bytes <= max_bytes, "invalid chunk range");
  HelperChoice best;
  for (std::uint64_t bytes = min_bytes; bytes <= max_bytes; bytes *= 2) {
    opt.chunk_bytes = bytes;
    const HelperChoice here = select_helper(sim, workload, opt);
    if (here.speedup > best.speedup) best = here;
  }
  return best;
}

HelperChoice select_helper_and_chunk(CascadeSimulator& sim,
                                     const loopir::LoopNest& nest, CascadeOptions opt,
                                     std::uint64_t min_bytes, std::uint64_t max_bytes) {
  return select_helper_and_chunk(sim, core::LoopWorkload(nest), opt, min_bytes,
                                 max_bytes);
}

}  // namespace casc::cascade
