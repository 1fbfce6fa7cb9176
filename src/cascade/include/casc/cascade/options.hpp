// Option and result types for simulated cascaded execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "casc/common/diagnostic.hpp"
#include "casc/sim/cache.hpp"
#include "casc/sim/machine.hpp"

namespace casc::cascade {

/// What a processor does with its helper phase (paper §2.1).
enum class HelperKind : std::uint8_t {
  kNone,         ///< ablation: cascade the loop but do no memory optimization
  kPrefetch,     ///< shadow loop that loads operand data into the local caches
  kRestructure,  ///< copy read-only operands (and resolved indices) into a
                 ///< per-processor sequential buffer, prefetching the rest
};

/// How much time helpers get (paper §3.3 vs §3.4).
enum class HelperTimeModel : std::uint8_t {
  /// Helpers run only while other processors execute; budget emerges from the
  /// simulated timeline (real P-processor behaviour).
  kBounded,
  /// Helpers always run to completion before their execution phase begins,
  /// and their time is not charged — the paper's model of "enough processors
  /// that each completes each helper phase before being signaled" (§3.4).
  kUnbounded,
};

/// Initial cache state before the loop starts.
enum class StartState : std::uint8_t {
  kCold,         ///< all caches invalid
  kDistributed,  ///< data written block-cyclically by all processors, modelling
                 ///< a preceding parallel section (paper §1)
  kWarmSingle,   ///< data read once by processor 0 (best case for sequential)
};

/// Knobs for one cascaded run.
struct CascadeOptions {
  HelperKind helper = HelperKind::kPrefetch;
  std::uint64_t chunk_bytes = 64 * 1024;
  HelperTimeModel time_model = HelperTimeModel::kBounded;
  /// Abandon the helper phase as soon as the token arrives (paper §3.3 found
  /// this modification improves performance; disable for the ablation).
  bool jump_out = true;
  StartState start_state = StartState::kDistributed;
  /// Charge control-transfer overhead per chunk (disable for ablations).
  bool charge_transfers = true;
  /// How many of its own future chunks a processor may stage in one helper
  /// window (1 = the paper's scheme).  Deeper lookahead uses leftover window
  /// time to stage further ahead, trading cache pressure for coverage.
  unsigned helper_lookahead = 1;
  /// Record per-phase spans into CascadeResult::timeline (Figure 1 rendering;
  /// costs memory proportional to the chunk count).
  bool record_timeline = false;
};

/// One activity interval of one processor on the simulated timeline.
struct TimelineSpan {
  enum class Kind : std::uint8_t { kHelper, kExec, kTransfer, kStall };
  unsigned proc = 0;
  Kind kind = Kind::kExec;
  std::uint64_t begin = 0;  ///< cycles
  std::uint64_t end = 0;
};

/// Outcome of a plain sequential run (the baseline of every figure).
struct SequentialResult {
  std::uint64_t total_cycles = 0;
  std::uint64_t compute_cycles = 0;  ///< portion of total from instruction execution
  std::uint64_t memory_cycles = 0;   ///< portion of total from memory stalls
  sim::CacheStats l1;
  sim::CacheStats l2;
};

/// Outcome of a cascaded run.
struct CascadeResult {
  std::uint64_t total_cycles = 0;       ///< critical path (what the user waits)
  std::uint64_t exec_cycles = 0;        ///< sum of execution-phase times
  std::uint64_t transfer_cycles = 0;    ///< control-transfer cost
  std::uint64_t stall_cycles = 0;       ///< token waits for an unfinished helper
                                        ///< (nonzero only with jump_out = false)
  std::uint64_t helper_cycles = 0;      ///< helper time (off the critical path
                                        ///< unless it caused stalls)
  std::uint64_t num_chunks = 0;
  std::uint64_t transfers = 0;
  std::uint64_t helper_iters_done = 0;    ///< helper iterations completed
  std::uint64_t helper_iters_target = 0;  ///< helper iterations desired
  /// Execution-phase cache behaviour (the critical path; what the paper's
  /// Figures 4 and 5 report for the cascaded variants).
  sim::CacheStats l1_exec;
  sim::CacheStats l2_exec;
  /// Helper-phase cache behaviour (hidden behind other processors' work).
  sim::CacheStats l1_helper;
  sim::CacheStats l2_helper;
  sim::BusStats bus;
  /// Populated when CascadeOptions::record_timeline is set.
  std::vector<TimelineSpan> timeline;
  /// True when the preflight verifier refused the requested restructure
  /// helper (a staged operand is written by the loop) and the run fell back
  /// to prefetch; `preflight_diags` carries the evidence.
  bool preflight_demoted = false;
  std::vector<common::Diagnostic> preflight_diags;

  /// Fraction of desired helper iterations that fit in the available windows.
  [[nodiscard]] double helper_coverage() const noexcept {
    return helper_iters_target
               ? static_cast<double>(helper_iters_done) /
                     static_cast<double>(helper_iters_target)
               : 1.0;
  }
};

[[nodiscard]] std::string to_string(HelperKind kind);
[[nodiscard]] std::string to_string(HelperTimeModel model);
[[nodiscard]] std::string to_string(StartState state);

}  // namespace casc::cascade
