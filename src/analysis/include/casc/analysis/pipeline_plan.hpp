// Staging plan for a PipelineSpec: what each stage stages, and the one
// staging arena the exec layer runs the whole chain through.
//
// Each stage's staged slot signature mirrors the materializer's staging
// decisions (a read is staged iff its array is read-only in the stage's
// spec, and every index load is staged), so it fixes the bytes of the
// stage's staged stream: 8 per staged slot per iteration.  Stages run one
// after another on one executor, and each gathers its own stream, so one
// arena as large as the largest stream serves every stage in turn.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "casc/loopir/pipeline_spec.hpp"

namespace casc::telemetry {
class JsonWriter;  // casc/telemetry/json.hpp
}  // namespace casc::telemetry

namespace casc::analysis {

/// One staged reference slot of a stage's per-iteration body, in body order,
/// with every field that feeds its offset resolution.
struct StagedSlot {
  std::string array;         ///< source array (pipeline namespace)
  bool is_index_load = false;  ///< the gather of the index value itself
  std::uint32_t elem_size = 0;
  std::int64_t stride = 1;
  std::int64_t offset = 0;
  std::string via;  ///< index array a data gather resolves through ("" = affine)
};

/// Per-stage staging facts.
struct StagePlan {
  std::string name;  ///< stage name (without the pipeline prefix)
  std::uint64_t iterations = 0;
  std::uint64_t trip = 0;
  std::uint64_t step = 1;
  std::vector<StagedSlot> staged_signature;  ///< per-iteration staged slots
  std::uint64_t staged_bytes = 0;  ///< iterations * signature size * 8
};

/// The complete plan artifact.  casclint prints it; the exec layer's
/// MaterializedPipeline sizes its staging arena from it.
struct PipelinePlan {
  std::string pipeline;
  std::vector<StagePlan> stages;
  /// The chain's one staging arena: the largest stage's staged_bytes.
  std::uint64_t arena_bytes = 0;

  /// Always 0: no stage replays another's staged stream.  Kept only because
  /// perfbench still reads it; it goes when perfbench stops (ROADMAP.md).
  [[nodiscard]] std::uint64_t stages_reusing() const noexcept { return 0; }

  /// Human-readable multi-line rendering (cascsim, debugging).
  [[nodiscard]] std::string render_text() const;
  /// Writes the plan as one deterministic JSON object (fixed key order, no
  /// timestamps) into an in-progress writer — the form casclint embeds in
  /// its pipeline report and the goldens pin.
  void render_json(telemetry::JsonWriter& w) const;
  /// Standalone JSON rendering (indent 2).
  [[nodiscard]] std::string render_json() const;
};

/// Computes the staging plan for a parsed pipeline.  The spec must be
/// structurally valid (PipelineSpec::parse with no errors); the plan itself
/// never fails.
[[nodiscard]] PipelinePlan plan_pipeline(const loopir::PipelineSpec& spec);

}  // namespace casc::analysis
