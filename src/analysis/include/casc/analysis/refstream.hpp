// Reference-stream preflight verification — the single dynamic checker both
// backends trust.
//
// The restructuring helper (paper §2.2) copies operands it believes are
// read-only into a per-processor sequential buffer *before* the preceding
// chunks have executed.  That is only equivalent to sequential execution if
// no staged operand is ever written by the loop: a write to a claimed
// read-only address is a flow/anti hazard that crosses the chunk boundary
// the moment writer and reader land in different chunks, and the staged copy
// silently goes stale.  Both engines trust the Ref::read_only_operand
// classification; this pass checks it against the workload's own reference
// stream (the ground truth) and reports every violation as a Diagnostic.
//
// There is exactly one implementation of this check in the tree.  The
// simulator's engine calls it directly; the threaded runtime reaches it
// through casc::exec, which turns the report into an rt::PreflightGate.
#pragma once

#include <cstdint>
#include <vector>

#include "casc/common/diagnostic.hpp"
#include "casc/core/workload.hpp"

namespace casc::analysis {

struct RefStreamOptions {
  /// Chunk geometry used to classify hazards as crossing a chunk boundary
  /// (the same value the cascaded run will use).
  std::uint64_t chunk_bytes = 64 * 1024;
  /// Replay cap: workloads longer than this are verified over a prefix only,
  /// and the verdict is marked truncated (still sound for the prefix).
  std::uint64_t max_iterations = 1ull << 22;
  /// Cap on concrete hazard instances reported as diagnostics.
  std::uint64_t max_reported = 4;
};

/// Verdict of one preflight pass over a workload's reference stream.
struct RefStreamReport {
  /// No write ever lands in the claimed read-only (staged) footprint; the
  /// restructure helper provably preserves sequential semantics.
  bool restructure_safe = true;
  bool truncated = false;                 ///< hit RefStreamOptions::max_iterations
  std::uint64_t iterations_checked = 0;
  std::uint64_t refs_checked = 0;
  std::uint64_t claimed_ro_bytes = 0;     ///< distinct bytes claimed read-only
  std::uint64_t violating_writes = 0;     ///< writes into that footprint
  std::uint64_t cross_chunk_hazards = 0;  ///< violations spanning a chunk boundary
  common::DiagnosticList diags;
};

/// Streams `workload`'s references once and checks every claimed-read-only
/// byte against every write.  O(refs log writes) time; memory bounded by the
/// distinct write/staged footprints of the verified prefix.
[[nodiscard]] RefStreamReport verify_ref_stream(const core::Workload& workload,
                                                const RefStreamOptions& opt = {});

}  // namespace casc::analysis
