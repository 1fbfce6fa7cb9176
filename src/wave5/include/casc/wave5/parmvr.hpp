// A parameterized model of PARMVR, the subroutine that dominates wave5
// (Spec95fp): ~50% of sequential execution time, called ~5000 times, 15 loops
// that resist parallelization (paper §3.1).  The original Fortran is not
// redistributable and its reference data set is too small for modern caches;
// the paper's authors enlarged it so each loop touches 256 KB – 17 MB.  We
// model each of the 15 loops as a LoopNest with a realistic particle-in-cell
// access mix — streaming updates, indirect gathers/scatters through particle
// index arrays, stencils, reductions — at the enlarged sizes.  What matters
// for reproducing the paper is the *memory reference behaviour* (footprints,
// direct/indirect mix, read-only vs read-write operands, conflict mapping),
// not the physics.
#pragma once

#include <string>
#include <vector>

#include "casc/loopir/loop_nest.hpp"
#include "casc/loopir/pipeline_spec.hpp"

namespace casc::wave5 {

inline constexpr int kNumParmvrLoops = 15;

/// Static description of one modeled loop.
struct ParmvrLoopInfo {
  int id = 0;                ///< 1-based, matching the paper's loop numbering
  std::string name;
  std::string description;   ///< access-pattern summary
};

/// Metadata for loop `id` (1..15).
const ParmvrLoopInfo& parmvr_loop_info(int id);

/// Builds loop `id` (1..15).  `scale` divides every array extent (and trip
/// count) — scale 1 is the paper's enlarged problem; larger scales give
/// fast-running miniatures for tests.
loopir::LoopNest make_parmvr_loop(int id, unsigned scale = 1);

/// All 15 loops in order.
std::vector<loopir::LoopNest> make_parmvr(unsigned scale = 1);

/// One PARMVR invocation ("call 12" of the ~5000) as a loop CHAIN: the 15
/// phases of a particle push — charge sweep, per-component field gathers,
/// velocity/position pushes, sorted gathers, smoothing, deposit — over ONE
/// shared particle-arrays namespace, so loop k's writes are loop k+1's
/// operand values.  The gather phases are the point: adjacent components
/// read the IDENTICAL gathered field stream (same index array, same
/// operands, different write target), and each component gathers it
/// afresh through the chain's one staging arena.  This is the flagship
/// pipeline bench subject (bench_rt_pipeline: one pipeline vs 15
/// independent cascades).
loopir::PipelineSpec make_parmvr_pipeline(unsigned scale = 1);

}  // namespace casc::wave5
