// The LoopSpec → real-runtime bridge: runs a MaterializedLoop under
// rt::CascadeExecutor with the cascade's helper phases, or sequentially as
// the bit-identity reference.
//
// Chunk geometry comes from core::ChunkPlan::for_iters_per_bytes — the SAME
// call the simulator's engine makes — so a spec executed on both backends
// uses the same iters-per-chunk.  The restructure gate comes from
// casc::analysis (the verifier pipeline over the spec's original claims):
// the runtime itself stays analysis-free, exactly as its PreflightGate
// contract prescribes, and a spec with unsound claims degrades to prefetch
// with the refusal recorded in the result.
//
// Helper phases on real hardware:
//   * prefetch:    force_load every operand line of the coming chunk,
//                  polling the token watch to jump out;
//   * restructure: stage every proven-read-only operand VALUE of the coming
//                  chunk into a staging region, one plain load per value at
//                  its slot's array and width (MaterializedLoop::body_shape());
//                  the execution phase then drains values strictly
//                  sequentially instead of gathering them, and takes its
//                  remaining load and store addresses from the loop's
//                  compact direct offset stream.  A jump-out leaves the
//                  chunk unflagged, and it executes from the arrays.
// The reference, the prefetch mode and every chunk that was not staged run
// the generic interpreter over the resolved ResolvedRef stream.
//
// One staging engine runs every cascaded path.  A single loop is a one-stage
// chain: run_cascaded and run_pipeline_independent stage through the loop's
// own region (MaterializedLoop::staging_region), run_pipeline_cascaded
// through the chain's one arena (MaterializedPipeline::region).  Either way
// staged reference p lives at word p of the region, so the chunk geometry
// never shifts the bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "casc/core/chunk.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/exec/pipeline.hpp"
#include "casc/rt/executor.hpp"

namespace casc::rt {
class ChaosPlan;  // casc/rt/fault_injection.hpp
}  // namespace casc::rt

namespace casc::exec {

enum class HelperMode { kNone, kPrefetch, kRestructure };

struct RtOptions {
  HelperMode helper = HelperMode::kRestructure;
  /// Paper §2.2 chunk byte budget; drives the shared ChunkPlan.
  std::uint64_t chunk_bytes = 64 * 1024;
  /// Explicit override; 0 derives from chunk_bytes like the simulator does.
  std::uint64_t iters_per_chunk = 0;
  /// Seeded helper-fault schedule (non-owning; must outlive the run).  The
  /// planned faults are armed onto the run's helper phases — with
  /// HelperMode::kNone a no-op helper is installed so the faults still fire.
  /// The fail-soft runtime must absorb all of them: the run completes with
  /// the sequential digest, degraded counters record the damage.
  const rt::ChaosPlan* chaos = nullptr;
  /// Soft-budget demotion, derived from the sequential estimate: when both
  /// are > 0 the executor demotes helpers after (soft_budget_factor x
  /// estimated_seq_seconds) and goes fully sequential after twice that.
  /// Persists on the executor until changed (see set_soft_budget()).
  double soft_budget_factor = 0.0;
  double estimated_seq_seconds = 0.0;
};

/// Outcome of one run (either backend-side entry point).
struct ExecResult {
  std::uint64_t digest = 0;       ///< final interpreter accumulator
  /// FNV-1a over the loop's writable array contents after the run
  /// (MaterializedLoop::rw_checksum()), set by the per-loop entry points
  /// run_reference / run_cascaded.  Always 0 in a pipeline's stage results:
  /// a chain checks its state once, in PipelineResult::rw_checksum.
  std::uint64_t rw_checksum = 0;
  double seconds = 0.0;           ///< wall time of the loop itself
  /// Wall time this call spent proving its chunk geometry before the loop
  /// (restructure runs only); exactly 0 when the loop's memo held the proof.
  double gate_seconds = 0.0;
  std::uint64_t total_iters = 0;
  std::uint64_t num_chunks = 1;
  std::uint64_t iters_per_chunk = 0;
  std::uint64_t transfers = 0;
  std::uint64_t helpers_completed = 0;
  std::uint64_t helpers_jumped_out = 0;
  std::uint64_t staged_chunks = 0;  ///< chunks whose staging was committed
  bool preflight_refused = false;
  std::string preflight_diag;
  // Fail-soft degradation (mirrors rt::RunStats; all zero on a clean run).
  std::uint64_t helper_faults = 0;
  std::uint64_t chunks_reclaimed = 0;
  std::uint64_t helper_retries = 0;
  std::uint64_t stagings_invalidated = 0;
  unsigned workers_quarantined = 0;
  unsigned demotion_level = 0;
  bool degraded = false;  ///< RunStats::degraded() of the underlying run
};

/// The chunk plan a cascaded run of `loop` uses — exposed so callers (and the
/// parity test) can confirm both backends derive identical geometry.
[[nodiscard]] core::ChunkPlan plan_for(const MaterializedLoop& loop,
                                       std::uint64_t chunk_bytes);

/// Restructure-safety gate for `loop` in chunks of `chunk_bytes`, derived
/// from the analysis verifier over the spec's ORIGINAL claims (a demoted
/// claim refuses the gate even though the sanitized nest no longer stages
/// the offending operand).  Both overloads answer from the loop's proof of
/// that chunk geometry (MaterializedLoop::restructure_proof): the first call
/// proves, later calls — either overload, any worker count — are lookups.
[[nodiscard]] rt::PreflightGate gate_for(const MaterializedLoop& loop,
                                         std::uint64_t chunk_bytes);

/// Certificate-aware gate for a ring of `workers`.  When the strict verifier
/// refuses and every error is a staging-claim failure, the race certifier
/// gets the final word: a certificate proving the staged bytes write-free
/// (or token-ordered at this worker count) flips the gate to proven, and
/// `certified` (when non-null) receives the operand names whose staging the
/// certificate re-enables (the proof has already restaged them on the loop).
/// Non-staging errors (layout, footprint, parse) always refuse.
[[nodiscard]] rt::PreflightGate gate_for(const MaterializedLoop& loop,
                                         std::uint64_t chunk_bytes,
                                         std::uint64_t workers,
                                         std::vector<std::string>* certified);

/// A commutative-reduction operand as the analysis classifier reports it.
struct ReductionOperand {
  std::string name;       ///< operand (array) name
  std::string reduce_op;  ///< merge operator: "sum", "min", or "max"
  std::string klass;      ///< OperandClass::kind(), i.e. "reduction"
};

/// The first reduction operand of `spec` (classifier order), or nullopt when
/// the spec has none.  Callers above the analysis layer (the service) use
/// this to refuse reduction specs precisely — naming the operand and the
/// merge operator a future privatization runtime would need — without
/// depending on casc::analysis directly.
[[nodiscard]] std::optional<ReductionOperand> find_reduction_operand(
    const loopir::LoopSpec& spec);

/// Sequential reference interpretation (arrays reset first): the ground
/// truth every cascaded run must match bit for bit.
ExecResult run_reference(MaterializedLoop& loop);

/// Cascaded execution on the real threaded runtime (arrays reset first).
ExecResult run_cascaded(MaterializedLoop& loop, rt::CascadeExecutor& executor,
                        const RtOptions& opt = {});

// ---- pipelines -------------------------------------------------------------

/// Outcome of one stage within a pipeline run.
struct PipelineStageResult {
  std::string name;  ///< stage name (without the pipeline prefix)
  /// Always false: every restructured stage gathers its own stream.  Kept
  /// only because perfbench still reads it (ROADMAP.md).
  bool reused_staging = false;
  ExecResult result;
};

/// Outcome of one whole-chain run.  The chain digest folds every stage
/// digest, and the checksum covers the pipeline's shared arrays, so the
/// three execution paths (reference / pipelined cascade / independent
/// cascades) are comparable bit for bit.
struct PipelineResult {
  std::uint64_t chain_digest = 0;
  /// MaterializedPipeline::rw_checksum() after the last stage; the only
  /// checksum a chain run computes.
  std::uint64_t rw_checksum = 0;
  /// Wall time of the stage loop, from the first stage's start to the last
  /// stage's end; excludes the chain's reset and checksum.
  double seconds = 0.0;
  /// Always 0 (see PipelineStageResult::reused_staging).
  std::uint64_t stages_reused = 0;
  std::vector<PipelineStageResult> stages;

  [[nodiscard]] bool degraded() const noexcept {
    for (const PipelineStageResult& s : stages) {
      if (s.result.degraded) return true;
    }
    return false;
  }
};

/// Sequential reference for the whole chain: shared arrays reset ONCE, then
/// every stage interpreted in order (stage k's writes are stage k+1's
/// inputs).  The ground truth both cascaded paths must match bit for bit.
PipelineResult run_pipeline_reference(MaterializedPipeline& pipe);

/// The pipelined cascade: every stage runs on the SAME executor — the token
/// ring never tears down between loops — and every restructured stage
/// gathers into the chain's one staging arena; chunks whose staging never
/// committed fall back to direct array loads.  Digests are unconditionally
/// bit-identical to the reference.
PipelineResult run_pipeline_cascaded(MaterializedPipeline& pipe,
                                     rt::CascadeExecutor& executor,
                                     const RtOptions& opt = {});

/// The baseline the pipeline is measured against: the same chain over the
/// same shared arrays, but each stage as an INDEPENDENT cascade — a fresh
/// executor (ring built up and torn down per loop) and each stage loop's own
/// staging region.  Digest-identical to the other two paths by
/// construction.
PipelineResult run_pipeline_independent(MaterializedPipeline& pipe,
                                        unsigned num_threads,
                                        const RtOptions& opt = {});

}  // namespace casc::exec
