// The cascaded-execution engine over the simulated multiprocessor.
//
// run_sequential() replays a loop nest on one processor — the baseline every
// figure in the paper compares against.  run_cascaded() simulates the
// technique: chunks are handed round-robin across processors; each processor
// spends the time between its execution phases in a helper phase (prefetch or
// sequential-buffer restructuring) whose duration is bounded by the simulated
// timeline (or unbounded, reproducing the paper's §3.4 many-processor model).
// Control-transfer overhead is charged per chunk.  All cache behaviour —
// including the conflict misses that make restructuring win — is emergent
// from the sim::Machine the engine drives.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "casc/cascade/buffer_model.hpp"
#include "casc/cascade/options.hpp"
#include "casc/core/chunk.hpp"
#include "casc/core/workload.hpp"
#include "casc/loopir/loop_nest.hpp"
#include "casc/sim/machine.hpp"

namespace casc::cascade {

/// Simulates sequential and cascaded executions of loop nests on one machine
/// configuration.  Each run starts from a fresh machine (plus the requested
/// start state), so runs are independent and deterministic.
class CascadeSimulator {
 public:
  explicit CascadeSimulator(const sim::MachineConfig& config);

  /// Baseline: the loop runs to completion on processor 0, on a fresh
  /// machine prepared with `start`.
  SequentialResult run_sequential(const loopir::LoopNest& nest,
                                  StartState start = StartState::kDistributed);
  SequentialResult run_sequential(const core::Workload& workload,
                                  StartState start = StartState::kDistributed);

  /// Cascaded execution per `opt`, on a fresh machine.  A restructure run
  /// first checks the workload's read-only claims against its own reference
  /// stream (analysis::verify_ref_stream) and, on any violation, demotes the
  /// run to the prefetch helper — recording the evidence in
  /// CascadeResult::preflight_diags instead of computing unsound speedups.
  CascadeResult run_cascaded(const loopir::LoopNest& nest, const CascadeOptions& opt);
  CascadeResult run_cascaded(const core::Workload& workload, const CascadeOptions& opt);

  /// Like run_sequential(), but keeps the current machine's cache contents —
  /// the state left by the previous run — so repeated calls model a workload
  /// that invokes the same subroutine over and over (wave5 calls PARMVR
  /// ~5000 times; the paper measures call 12).  Statistics are reset per
  /// call.  Requires a prior run.
  SequentialResult continue_sequential(const loopir::LoopNest& nest);
  SequentialResult continue_sequential(const core::Workload& workload);

  /// Cascaded counterpart of continue_sequential().
  CascadeResult continue_cascaded(const loopir::LoopNest& nest,
                                  const CascadeOptions& opt);
  CascadeResult continue_cascaded(const core::Workload& workload,
                                  const CascadeOptions& opt);

  /// Convenience: sequential baseline and cascaded run with the same start
  /// state; returns baseline.total_cycles / cascaded.total_cycles.
  double speedup(const loopir::LoopNest& nest, const CascadeOptions& opt);

  /// The machine used by the most recent run (valid until the next run);
  /// exposed for tests and diagnostics.
  [[nodiscard]] const sim::Machine& machine() const;

  [[nodiscard]] const sim::MachineConfig& config() const noexcept { return config_; }

  /// Bytes of sequential-buffer space one iteration of `nest` needs under the
  /// restructuring helper (operand values of read-only accesses + resolved
  /// 4-byte indices for indirect accesses into read-write arrays).
  static std::uint64_t buffer_bytes_per_iteration(const loopir::LoopNest& nest);

 private:
  /// Establishes the requested pre-loop cache state, then zeroes statistics.
  void apply_start_state(const core::Workload& workload, StartState start);

  /// Core loops operating on the already-prepared machine_.
  SequentialResult sequential_impl(const core::Workload& workload);
  CascadeResult cascaded_impl(const core::Workload& workload, const CascadeOptions& opt);

  /// Emits the helper-phase references of iteration `it` into `out`.
  void build_helper_refs(const core::Workload& workload, HelperKind kind,
                         std::uint64_t it, SequentialBufferModel* buf,
                         std::vector<sim::MemRef>& out) const;

  /// Emits the execution-phase references of iteration `it` (under `kind`,
  /// assuming its operands were staged) and returns the compute cycles.
  std::uint32_t build_exec_refs(const core::Workload& workload, HelperKind kind,
                                std::uint64_t it, SequentialBufferModel* buf,
                                std::vector<sim::MemRef>& out) const;

  sim::MachineConfig config_;
  std::unique_ptr<sim::Machine> machine_;
  // Scratch buffers reused across iterations to avoid per-iteration churn.
  mutable std::vector<loopir::Ref> scratch_orig_;
  mutable std::vector<sim::MemRef> scratch_refs_;
};

}  // namespace casc::cascade
