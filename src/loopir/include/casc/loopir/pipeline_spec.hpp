// A declarative, textual form of a loop CHAIN.  Real programs (wave5: ~15
// loops per PARMVR call) run sequences of loop nests over overlapping arrays;
// PipelineSpec is the builder-level description of such a chain: one shared
// array namespace declared at pipeline scope, plus an ordered list of loop
// blocks that access it.  Each loop block lowers to a plain LoopSpec
// (stage_spec()), so every existing consumer — the analysis verifier, the
// materializer, both backends — sees ordinary loop nests; what the pipeline
// adds is the SHARED namespace the staging planner
// (casc::analysis::plan_pipeline) and the shared-storage materializer
// (casc::exec::MaterializedPipeline) reason over.  stage_spec() marks
// exactly the arrays a stage writes as rw, so a stage's read-only claims
// are honest by construction.
//
// Format (one directive per line; '#' starts a comment):
//
//   pipeline <name>
//   layout conflicting|staggered              # default for every loop block
//   array <name> <elem_size> <num_elems> ro|rw
//   index <name> <num_elems> identity|strided|perm|random|blocks [<seed>] [<param>]
//   loop <name>
//     trip <n> [<step>]
//     compute <cycles> [<restructured>]
//     layout conflicting|staggered            # optional per-loop override
//     access <array> read|write [stride <s>] [offset <o>] [via <index>]
//     access <array> update sum|min|max [stride <s>] [offset <o>] [via <index>]
//   endloop
//
// Arrays live at pipeline scope only: a loop block references them but cannot
// declare its own.  Writes to a pipeline-`ro` array are rejected
// ("pipeline-write-ro").  A loop may write an `index` array — that is how a
// chain models an index rebuild between gathers, after which later gathers
// route through the rebuilt indices — but the same loop cannot also gather
// `via` that array ("pipeline-write-via"): a self-invalidating stage has no
// coherent single-loop semantics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "casc/common/diagnostic.hpp"
#include "casc/loopir/loop_spec.hpp"

namespace casc::loopir {

/// Declarative description of one chain of loop nests over a shared array
/// namespace.
struct PipelineSpec {
  /// One loop block.  Arrays are resolved against the pipeline's namespace.
  struct Stage {
    std::string name = "stage";
    std::uint64_t trip = 0;
    std::uint64_t step = 1;
    std::uint32_t compute_cycles = 1;
    std::optional<std::uint32_t> restructured_compute;
    /// Per-stage override of the pipeline's default layout policy.
    std::optional<LayoutPolicy> layout;
    std::vector<LoopSpec::AccessDecl> accesses;
    /// 1-based source line of the `loop` directive (0 when built in code).
    int line = 0;

    /// The stage stores into `array` through any of its accesses.
    [[nodiscard]] bool writes(const std::string& array) const noexcept {
      for (const LoopSpec::AccessDecl& acc : accesses) {
        if (acc.array == array && acc.writes()) return true;
      }
      return false;
    }
    /// The stage references `array` (as operand or as `via` index).
    [[nodiscard]] bool references(const std::string& array) const noexcept {
      for (const LoopSpec::AccessDecl& acc : accesses) {
        if (acc.array == array) return true;
        if (acc.index_via && *acc.index_via == array) return true;
      }
      return false;
    }
  };

  std::string name = "pipeline";
  LayoutPolicy layout = LayoutPolicy::kStaggered;
  std::vector<LoopSpec::ArrayDecl> arrays;
  std::vector<Stage> stages;

  /// The pipeline-scope declaration of `array`, or nullptr.
  [[nodiscard]] const LoopSpec::ArrayDecl* find_array(
      const std::string& array) const noexcept;

  /// Lowers stage `k` into a standalone LoopSpec named "<pipeline>.<stage>".
  /// Only the arrays the stage references are carried over, with HONEST
  /// per-stage mutability: an array the stage never writes is declared `ro`
  /// (so the materializer stages it), one it writes is `rw`.  An `index`
  /// array the stage writes is lowered to a plain rw array — the stage
  /// clobbers its VALUES; the pattern-materialized addressing belongs to the
  /// stages that gather via it.  Because the claims are derived rather than
  /// authored, sanitized_instantiate never demotes a stage spec.
  [[nodiscard]] LoopSpec stage_spec(std::size_t k) const;
  /// stage_spec() for every stage, in chain order.
  [[nodiscard]] std::vector<LoopSpec> stage_specs() const;

  /// Renders the spec back into the text format (parse(to_text(p)) == p up to
  /// formatting).
  [[nodiscard]] std::string to_text() const;

  /// Parses the text format.  Throws CheckFailure with a line number on the
  /// first syntax or semantic error.
  static PipelineSpec parse(std::string_view text);

  /// Diagnostic-collecting parse: recovers line-by-line, appending one
  /// Diagnostic per problem (LoopSpec's rules "parse-syntax",
  /// "duplicate-array", "undeclared-array", "parse-incomplete" plus the
  /// pipeline-specific "duplicate-loop", "pipeline-write-ro",
  /// "pipeline-write-via") instead of throwing.  Returns the best-effort
  /// spec; it is only instantiable when `diags.ok()`.
  static PipelineSpec parse(std::string_view text,
                            common::DiagnosticList& diags);
};

/// True when `text`'s first directive is `pipeline` — the dispatch test the
/// CLI tools and the service use to route a submitted spec without parsing
/// it twice.
[[nodiscard]] bool is_pipeline_text(std::string_view text);

}  // namespace casc::loopir
