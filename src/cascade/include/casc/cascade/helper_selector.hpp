// Automatic helper-strategy selection.  The paper evaluates prefetching and
// restructuring separately and finds which wins depends on the machine (L2
// associativity, compiler prefetching) and on the loop (read-only share,
// conflict behaviour).  A runtime system would pick per loop; this component
// does exactly that by trial simulation, optionally combined with the chunk
// tuner.
#pragma once

#include <array>
#include <cstdint>

#include "casc/cascade/engine.hpp"
#include "casc/cascade/options.hpp"
#include "casc/loopir/loop_nest.hpp"

namespace casc::cascade {

/// Outcome of a helper-selection trial.
struct HelperChoice {
  HelperKind helper = HelperKind::kNone;
  std::uint64_t chunk_bytes = 0;
  double speedup = 0.0;  ///< of the chosen configuration
  /// Speedups measured for each strategy (indexed by HelperKind) at the
  /// chosen chunk size; useful for reporting the margin of the decision.
  std::array<double, 3> speedup_by_kind{};
  /// True when the preflight verifier refused the restructure trial (a
  /// staged operand is written); its slot in speedup_by_kind then reports the
  /// prefetch fallback the engine actually ran, and restructure is never the
  /// selected helper.
  bool restructure_refused = false;
};

/// Tries every helper strategy at `opt.chunk_bytes` and returns the best.
/// An unproven restructure helper is demoted by the engine and never
/// selected.
HelperChoice select_helper(CascadeSimulator& sim, const core::Workload& workload,
                           CascadeOptions opt);
HelperChoice select_helper(CascadeSimulator& sim, const loopir::LoopNest& nest,
                           CascadeOptions opt);

/// Tries every helper strategy across a geometric chunk sweep
/// [min_bytes, max_bytes] and returns the best (strategy, chunk) pair.
HelperChoice select_helper_and_chunk(CascadeSimulator& sim,
                                     const core::Workload& workload,
                                     CascadeOptions opt, std::uint64_t min_bytes,
                                     std::uint64_t max_bytes);
HelperChoice select_helper_and_chunk(CascadeSimulator& sim,
                                     const loopir::LoopNest& nest, CascadeOptions opt,
                                     std::uint64_t min_bytes, std::uint64_t max_bytes);

}  // namespace casc::cascade
