// A loop-shaped subject the rotation drives: one materialized loop or one
// materialized chain, behind the same calls.  Each method is one public
// library call (or the exact sequence of them the library's runner makes),
// so the traced run can time them separately.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/exec/pipeline.hpp"
#include "casc/rt/executor.hpp"

namespace perfbench {

/// What one call returned, summed over stages for a chain.
struct Outcome {
  std::uint64_t digest = 0;    ///< loop digest, or chain digest
  std::uint64_t checksum = 0;  ///< rw_checksum of the loop / shared arrays
  double loop_s = 0.0;         ///< ExecResult::seconds
  std::uint64_t chunks = 0;
  std::uint64_t staged_chunks = 0;
  std::uint64_t transfers = 0;
  std::uint64_t helpers_completed = 0;
  std::uint64_t helpers_jumped_out = 0;
  std::uint64_t stages_reused = 0;
  bool degraded = false;
};

/// Chunk geometry of one loop: (iterations, iterations per chunk).
using Geometry = std::pair<std::uint64_t, std::uint64_t>;

/// Milliseconds spent in the parse, plan and materialize calls of a build.
struct BuildTimes {
  double parse_ms = 0.0;
  double plan_ms = 0.0;
  double materialize_ms = 0.0;
};

class Subject {
 public:
  virtual ~Subject() = default;

  virtual Outcome reference() = 0;
  virtual Outcome cascaded(casc::exec::HelperMode mode) = 0;

  /// The reset a run makes first.
  virtual void reset() = 0;
  /// The restructure gate calls a cascaded restructure run makes.
  virtual void gate() = 0;
  /// The rw_checksum calls a run makes (per stage for a chain).
  virtual std::uint64_t checksum() = 0;
  /// analysis::analyze / analysis::certify over every gated loop.
  virtual void analyze() = 0;
  virtual void certify() = 0;

  /// Per-loop chunk geometry of a cascaded run.
  [[nodiscard]] virtual std::vector<Geometry> geometry() const = 0;
  /// The loop whose staged stream feeds the SIMD gather probe.
  [[nodiscard]] virtual const casc::exec::MaterializedLoop& gather_loop() const = 0;
  /// Stage pairs the plan proved reusable (0 for a single loop).
  [[nodiscard]] virtual std::uint64_t planned_reuse() const = 0;
  /// Bytes of every array the subject owns.
  [[nodiscard]] virtual std::uint64_t footprint_bytes() const = 0;

  [[nodiscard]] const BuildTimes& build_times() const noexcept { return times_; }

 protected:
  Subject(casc::rt::CascadeExecutor& executor, std::uint64_t chunk_bytes)
      : executor_(executor), chunk_bytes_(chunk_bytes) {}

  casc::rt::CascadeExecutor& executor_;
  std::uint64_t chunk_bytes_;
  BuildTimes times_;
};

/// Parses `text` (LoopSpec or PipelineSpec), plans and materializes it.
std::unique_ptr<Subject> make_subject(const std::string& text,
                                      casc::rt::CascadeExecutor& executor,
                                      std::uint64_t chunk_bytes = 64 * 1024);

}  // namespace perfbench
