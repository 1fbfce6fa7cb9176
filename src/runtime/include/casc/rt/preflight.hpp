// Runtime preflight gate for restructure helpers.
//
// The real-thread runtime executes opaque lambdas, so it cannot analyze a
// loop's accesses itself; instead the caller presents a PreflightGate built
// from an analysis verdict (casc::analysis::analyze over the loop's spec, or
// casc::analysis::verify_ref_stream over its reference stream).  A gate
// either carries a proof ("every operand the helper stages is read-only") or a
// refusal diagnostic.  The gated CascadeExecutor::run overload consults the
// gate before letting a helper stage values:
//   * proven        -> the helper runs normally;
//   * refused       -> the helper is not allowed to stage: the executor drops
//                      it, so the run has no helper phase at all (not even a
//                      prefetch), and the refusal is recorded in the run's
//                      stats — execution-phase results are identical either
//                      way, just slower.
// The proof alone decides: nothing overrides a refusal.
#pragma once

#include <string>
#include <utility>

#include "casc/common/diagnostic.hpp"

namespace casc::rt {

class PreflightGate {
 public:
  /// A proven-safe verdict: restructure staging is allowed.
  [[nodiscard]] static PreflightGate proven() {
    PreflightGate gate;
    gate.proven_ = true;
    return gate;
  }

  /// A refusal carrying the verifier's evidence.
  [[nodiscard]] static PreflightGate refused(common::Diagnostic reason) {
    PreflightGate gate;
    gate.proven_ = false;
    gate.reason_ = std::move(reason);
    return gate;
  }

  /// True when the helper may stage values.
  [[nodiscard]] bool is_proven() const noexcept { return proven_; }
  [[nodiscard]] const common::Diagnostic& reason() const noexcept { return reason_; }

 private:
  PreflightGate() = default;

  bool proven_ = false;
  // Every member is named: GCC 12 warns (-Wmissing-field-initializers) on
  // an aggregate initializer that omits one, designated or not.
  common::Diagnostic reason_{
      .severity = common::Severity::kError,
      .rule = "preflight-unproven",
      .message = "no safety proof presented for this loop",
      .loop = {},
      .object = {},
      .line = 0};
};

}  // namespace casc::rt
