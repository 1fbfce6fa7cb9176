// Runtime preflight gate for restructure helpers.
//
// The real-thread runtime executes opaque lambdas, so it cannot analyze a
// loop's accesses itself; instead the caller presents a PreflightGate built
// from an analysis verdict (casc::analysis::analyze over the loop's spec, or
// casc::analysis::verify_ref_stream over its reference stream).  A gate
// either carries a proof ("every operand the helper stages is read-only") or a
// refusal diagnostic.  Gated entry points (CascadeExecutor::run overload,
// RestructuredLoop::run overload) consult the gate before letting a helper
// stage values:
//   * proven        -> the helper runs normally;
//   * refused       -> the helper is not allowed to stage: the executor drops
//                      the helper, RestructuredLoop degrades it to a pure
//                      prefetch (gather-and-discard) pass, and the refusal is
//                      recorded in the run's stats — execution-phase results
//                      are identical either way, just slower;
//   * CASC_NO_VERIFY=1 in the environment overrides any refusal (escape
//     hatch for experiments; the diagnostic is still recorded).
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

  /// Convenience: proven() when `safe`, refused(reason) otherwise.
  [[nodiscard]] static PreflightGate from_verdict(bool safe,
                                                  common::Diagnostic reason) {
    return safe ? proven() : refused(std::move(reason));
  }

  /// True when the helper may stage values: proven, or verification globally
  /// disabled via CASC_NO_VERIFY (checked at call time).
  [[nodiscard]] bool allow_restructure() const {
    return proven_ || !common::verification_enabled();
  }

  [[nodiscard]] bool is_proven() const noexcept { return proven_; }
  [[nodiscard]] const common::Diagnostic& reason() const noexcept { return reason_; }

 private:
  PreflightGate() = default;

  bool proven_ = false;
  common::Diagnostic reason_{common::Severity::kError, "preflight-unproven",
                             "no safety proof presented for this loop"};
};

}  // namespace casc::rt
