// Materialization of a whole loop CHAIN for the real runtime.
//
// MaterializedPipeline owns the pipeline's array namespace ONCE — one
// aligned allocation per declared array, shared by every stage through
// MaterializedLoop's storage binder — so stage k's writes are stage k+1's
// operand values, exactly like consecutive loops of a real program over the
// same arrays.  It also owns the chain's single staging ARENA, sized by the
// analysis plan (analysis::plan_pipeline) to the largest stage's staged
// stream: stages run one after another, and each restructured stage gathers
// its own stream into the arena.
//
// Interpretation semantics are per-stage MaterializedLoop semantics; the
// chain-level result is the FNV fold of the stage digests plus ONE checksum
// of the final shared-array state, so any stage diverging on any path
// diverges the chain.  The chain is one sequential composition: its state is
// restored once before a run and checked once after it, never per stage,
// and both touch only the arrays some stage writes — the rest are filled
// once, at construction, and never change.  The restore copies back the
// written arrays' construction-time bytes, the same rule a single loop's
// reset follows.  bridge.hpp's run_pipeline_* entry points execute it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "casc/analysis/pipeline_plan.hpp"
#include "casc/common/aligned_alloc.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/pipeline_spec.hpp"

namespace casc::exec {

namespace detail {
class ArraySnapshot;  // array_state.hpp
class StateChecksum;  // array_state.hpp
}  // namespace detail

/// A pipeline spec with shared real backing arrays, per-stage resolved
/// streams, and the one staging arena.
class MaterializedPipeline {
 public:
  /// Materializes every stage against shared storage.  Throws CheckFailure
  /// on invalid specs (no stages, stage instantiation failures) or chains
  /// too large to materialize.
  explicit MaterializedPipeline(const loopir::PipelineSpec& spec);

  ~MaterializedPipeline();

  [[nodiscard]] const loopir::PipelineSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const analysis::PipelinePlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::size_t num_stages() const noexcept { return stages_.size(); }
  [[nodiscard]] MaterializedLoop& stage(std::size_t k) { return *stages_[k]; }
  [[nodiscard]] const MaterializedLoop& stage(std::size_t k) const {
    return *stages_[k];
  }

  /// Restores the chain's defined starting state: copies back the initial
  /// bytes of every shared array some stage writes, from a copy taken once,
  /// at construction, and never written again.  Arrays no stage writes keep
  /// their construction-time fill, which no run changes.  Every pipeline
  /// run_* entry point calls this ONCE per run; stages never reset shared
  /// arrays themselves.
  void reset();

  /// FNV-1a over the bytes of every shared array some stage writes, in
  /// declaration order — the chain's observable output state.  Served like
  /// MaterializedLoop::rw_checksum(): a call that finds the state the chain
  /// last hashed returns its hash after one byte comparison, any other call
  /// hashes in full.  Safe for concurrent callers while no run writes the
  /// arrays.
  [[nodiscard]] std::uint64_t rw_checksum() const;

  /// Stage k's staging region: the shared arena, or nullptr when the stage
  /// stages nothing.  Every staging stage gets the same arena, whose
  /// plan().arena_bytes bytes hold any one stage's staged stream.
  [[nodiscard]] std::byte* region(std::size_t k) noexcept {
    return plan_.stages[k].staged_bytes == 0 ? nullptr : arena_.data();
  }

  /// Always false: every restructured stage gathers its own stream.  Kept
  /// only because perfbench still reads it; it goes when perfbench stops
  /// (ROADMAP.md).
  [[nodiscard]] bool reuses_previous(std::size_t /*k*/) const noexcept {
    return false;
  }

 private:
  /// Fills pipeline array `i` with its deterministic initial contents
  /// (construction only; reset() copies the written arrays back).
  void fill_array(std::size_t i);

  loopir::PipelineSpec spec_;
  analysis::PipelinePlan plan_;
  std::vector<common::AlignedStorage> shared_;  // one per pipeline array
  std::vector<std::unique_ptr<MaterializedLoop>> stages_;
  common::AlignedStorage arena_;
  // The initial bytes of the arrays some stage writes (see reset()).
  std::unique_ptr<const detail::ArraySnapshot> initial_;
  // The checksum over the same arrays (see rw_checksum()).
  std::unique_ptr<const detail::StateChecksum> checksum_;
};

}  // namespace casc::exec
