// The real-thread cascaded-execution runtime.
//
// CascadeExecutor owns a persistent pool of worker threads.  run() partitions
// an iteration space [0, n) into contiguous chunks, assigns chunk c to worker
// c mod P, and drives the cascade: each worker runs its helper for its next
// chunk (watching the token so it can jump out when signalled), awaits the
// token, runs the chunk's execution phase, and passes the token on.  Exactly
// one worker is in an execution phase at any instant, so the loop's
// sequential semantics are preserved while the other P-1 workers optimize
// their memory state.
//
// Failure semantics (full fail-stop -> fail-soft matrix in docs/RUNTIME.md):
//   * Execution-phase faults are fail-stop: an exception escaping an ExecFn
//     is a fault of the main line of control.  It poisons the token; every
//     other worker unwinds promptly instead of spinning, and run() rethrows
//     the first exception on the calling thread once the pool has quiesced.
//     No std::terminate, no wedged pool: the executor is reusable for the
//     next run().
//   * Helper-phase faults are fail-soft by default (Resilience::fail_soft):
//     helpers are purely speculative, so a helper that throws or stalls past
//     Resilience::helper_stall_grace costs only its speculation.  The faulty
//     worker's helper is backed off and retried (bounded, exponential), then
//     quarantined; any chunk it fails to execute in time is reclaimed and
//     executed in-place by whichever worker is awaiting the token, on the
//     unstaged fallback path, preserving bit-identity.  The run completes
//     with RunStats::degraded() true instead of throwing.
//   * An optional per-run watchdog deadline (ExecutorConfig::watchdog)
//     bounds how long run() will let the cascade make no progress; on expiry
//     the cascade is aborted, a CascadeStateDump is captured, and run()
//     throws WatchdogExpired carrying that dump.  Soft budgets
//     (Resilience::demote_helpers_after / go_sequential_after) act earlier:
//     they demote the run to fewer helpers or pure sequential instead of
//     killing it.
//   * After a failed run, last_run_stats() is still valid and records the
//     abort (aborted / chunks_executed / first_failed_chunk).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "casc/common/align.hpp"
#include "casc/common/first_error.hpp"
#include "casc/rt/function_ref.hpp"
#include "casc/rt/preflight.hpp"
#include "casc/rt/state_dump.hpp"
#include "casc/rt/token.hpp"
#include "casc/telemetry/event_log.hpp"

namespace casc::core {
class AdaptiveChunker;  // casc/core/chunk.hpp
}  // namespace casc::core

namespace casc::rt {

/// Executes iterations [begin, end) of the loop body.  Runs with the token
/// held; must not block indefinitely.  This owning alias exists for callers
/// that STORE a callable (FaultPlan::arm, user containers); run() itself
/// takes the non-allocating ExecRef below.
using ExecFn = std::function<void(std::uint64_t begin, std::uint64_t end)>;

/// Optimizes memory state for the coming execution of [begin, end).
/// Should poll `watch.signalled()` at a reasonable granularity and return
/// early (jump out) once it is true.  Returns true iff the helper work ran to
/// completion (used for statistics only).
using HelperFn =
    std::function<bool(std::uint64_t begin, std::uint64_t end, const TokenWatch& watch)>;

/// Borrowed views of the two phase callables.  run() is synchronous, so a
/// lambda temporary at the call site outlives the run; an empty std::function
/// converts to a null ref.  Chunk dispatch through these is one indirect
/// call, zero allocations (see function_ref.hpp).
using ExecRef = FunctionRef<void(std::uint64_t, std::uint64_t)>;
using HelperRef = FunctionRef<bool(std::uint64_t, std::uint64_t, const TokenWatch&)>;

/// How workers wait for the token (see token.hpp for the tier mechanics).
enum class WaitMode : std::uint8_t {
  /// Park when num_threads exceeds hardware_concurrency, pure spin/yield
  /// otherwise — the right choice unless you are benchmarking the tiers.
  kAuto,
  /// Never park: the pre-parking spin/yield loop.  Lowest hand-off latency
  /// when every worker owns a core; actively harmful oversubscribed.
  kSpin,
  /// Always fall through to the futex tier after the spin/yield budget.
  kPark,
};

/// Fail-soft policy: how the executor degrades instead of aborting when
/// helpers misbehave.  Execution-phase faults are always fail-stop — the
/// exec phase IS the computation, so its exceptions must reach the caller.
struct Resilience {
  /// Master switch.  When false every fault path reverts to PR 1's fail-stop
  /// protocol: any worker exception aborts the cascade and rethrows.
  bool fail_soft = true;
  /// Helper faults tolerated per worker before its helper is permanently
  /// quarantined for the rest of the run (it still executes its own chunks).
  unsigned max_helper_faults = 3;
  /// How long a token-awaiting worker lets the token sit on a chunk whose
  /// owner is stuck in a helper before reclaiming the chunk and executing it
  /// itself.  Also the stall fault charged to the stuck owner.
  std::chrono::milliseconds helper_stall_grace{25};
  /// Base backoff after a helper fault; doubles per consecutive fault
  /// (capped), so transient faults retry quickly and repeat offenders wait.
  std::chrono::milliseconds retry_backoff{1};
  /// Soft wall-clock budgets (0 = disabled): once a run has been in flight
  /// this long it is demoted live to level 1 (no helpers) respectively
  /// level 2 (pure sequential on the calling thread).  Callers derive these
  /// from the analytic model's sequential estimate (see set_soft_budget()).
  std::chrono::milliseconds demote_helpers_after{0};
  std::chrono::milliseconds go_sequential_after{0};
};

/// What the in-flight execution phase needs to know about how it got the
/// chunk.  Published to the executing thread only (serialized by the token),
/// read via CascadeExecutor::current_exec_context().
struct ExecContext {
  /// This chunk was reclaimed from a quarantined/stuck owner and is running
  /// on a non-owner thread: per-worker staging buffers belong to the owner
  /// and must not be read.
  bool reclaimed = false;
  /// The owner's staging is suspect (its helper faulted earlier this run):
  /// run the unstaged fallback path even if the chunk looks staged.
  bool staging_invalid = false;
};

/// Pool/behaviour configuration.
struct ExecutorConfig {
  /// Worker count (the calling thread is one of them); 0 means
  /// hardware_concurrency.
  unsigned num_threads = 0;
  /// Best-effort: pin worker i to CPU i (Linux only; ignored elsewhere or on
  /// failure).
  bool pin_threads = false;
  /// Explicit affinity list: worker i is pinned to cpus[i % cpus.size()]
  /// (implies pinning when non-empty).  This is how a multi-executor host —
  /// e.g. one casc::svc shard per core partition — keeps concurrent token
  /// rings off each other's cores; empty keeps the historical
  /// worker-i-to-CPU-i behaviour under pin_threads.
  std::vector<unsigned> cpus;
  /// Label for this executor in state dumps and diagnostics (e.g. a service
  /// shard id).  Empty renders as the anonymous single-executor form.
  std::string name;
  /// Per-run deadline; once exceeded the cascade is aborted and run() throws
  /// WatchdogExpired.  Zero (the default) disables the watchdog.
  std::chrono::milliseconds watchdog{0};
  /// Optional phase-event timeline (non-owning; must outlive the executor
  /// and have at least num_threads worker rings).  Every worker records
  /// token/helper/exec/abort events into its ring; null (the default) turns
  /// the instrumentation into a single never-taken branch on the hot path.
  /// The events also surface in snapshot()/render() failure dumps.
  telemetry::EventLog* event_log = nullptr;
  /// Token wait policy.  kAuto parks oversubscribed workers in the futex
  /// tier (threads > cores) and keeps the threads <= cores fast path
  /// pure-spin; kSpin/kPark force one behaviour for ablations.
  WaitMode wait_mode = WaitMode::kAuto;
  /// Fail-soft degradation policy (see struct Resilience above).
  Resilience resilience;
};

/// Statistics from the most recent run() — including a failed one.
struct RunStats {
  /// first_failed_chunk value when no chunk failed.
  static constexpr std::uint64_t kNoFailedChunk = ~0ull;

  std::uint64_t total_iters = 0;
  std::uint64_t num_chunks = 0;
  std::uint64_t iters_per_chunk = 0;
  std::uint64_t transfers = 0;           ///< token hand-offs with a receiver
                                         ///< (num_chunks - 1 on success)
  std::uint64_t helpers_completed = 0;   ///< helper phases that finished
  std::uint64_t helpers_jumped_out = 0;  ///< helper phases cut short by the token
  std::uint64_t chunks_executed = 0;     ///< execution phases that completed
  bool aborted = false;                  ///< the run was cut short
  std::uint64_t first_failed_chunk = kNoFailedChunk;  ///< chunk whose phase threw
  // Fail-soft degradation counters (all zero on a clean, undegraded run).
  std::uint64_t helper_faults = 0;     ///< helper throws/stall-outs survived
  std::uint64_t chunks_reclaimed = 0;  ///< chunks executed by a non-owner worker
  std::uint64_t helper_retries = 0;    ///< backed-off helpers retried
  std::uint64_t stagings_invalidated = 0;  ///< chunks forced onto the fallback
                                           ///< path because staging was suspect
  unsigned workers_quarantined = 0;  ///< workers whose helpers were retired
  unsigned demotion_level = 0;  ///< 0 full cascade, 1 helpers off, 2 sequential
  /// True iff the run survived any fault or demotion (output is still
  /// bit-identical to the sequential loop; only speed degraded).
  [[nodiscard]] bool degraded() const noexcept {
    return helper_faults != 0 || chunks_reclaimed != 0 || helper_retries != 0 ||
           stagings_invalidated != 0 || workers_quarantined != 0 ||
           demotion_level != 0;
  }
  /// True when a gated run() dropped its restructuring helper because the
  /// PreflightGate was a refusal; preflight_diag carries the rendered
  /// diagnostic explaining why.
  bool preflight_refused = false;
  std::string preflight_diag;
};

/// Thrown by run() when the watchdog deadline expires; carries the cascade
/// state captured at expiry.
class WatchdogExpired : public std::runtime_error {
 public:
  WatchdogExpired(const std::string& what, CascadeStateDump dump)
      : std::runtime_error(what), dump_(std::move(dump)) {}

  [[nodiscard]] const CascadeStateDump& dump() const noexcept { return dump_; }

 private:
  CascadeStateDump dump_;
};

/// The runtime.  Thread-safe for sequential use (one run() at a time from the
/// owning thread); not reentrant — a nested or concurrent run() fails loudly
/// with a CheckFailure instead of deadlocking.
class CascadeExecutor {
 public:
  explicit CascadeExecutor(ExecutorConfig config = {});
  ~CascadeExecutor();

  CascadeExecutor(const CascadeExecutor&) = delete;
  CascadeExecutor& operator=(const CascadeExecutor&) = delete;

  /// Cascades `exec` over [0, total_iters) in chunks of `iters_per_chunk`.
  /// `helper`, if provided, is invoked on each worker for its next chunk
  /// before that chunk's execution phase.  Blocks until the whole loop has
  /// executed — or, on failure, until every worker has quiesced, after which
  /// the first captured exception is rethrown here (see the header comment
  /// for the full failure semantics).  The calling thread participates as
  /// worker 0 (it executes chunk 0 immediately, so a cascade over fewer
  /// iterations than one chunk degenerates to a plain sequential loop).
  /// The callables are borrowed, not copied — they must stay alive until
  /// run() returns, which any callable written at the call site does.
  void run(std::uint64_t total_iters, std::uint64_t iters_per_chunk, ExecRef exec,
           HelperRef helper = nullptr);

  /// Gated variant for restructuring helpers: `helper` stages operand values
  /// early, which is only sequentially correct when every staged operand is
  /// read-only over the whole loop.  The gate carries that proof (or a
  /// refusal) from casc::analysis (analyze or verify_ref_stream).  On a
  /// refusal the helper is dropped — the cascade still runs, execution-phase
  /// results are identical, and the refusal is recorded in last_run_stats()
  /// (preflight_refused / preflight_diag).  CASC_NO_VERIFY=1 overrides a
  /// refusal at the caller's risk.
  void run(std::uint64_t total_iters, std::uint64_t iters_per_chunk, ExecRef exec,
           HelperRef helper, const PreflightGate& gate);

  /// Auto-chunk variant for repeated-call workloads (the wave5 pattern:
  /// thousands of invocations of the same loop): uses `chunker.current()` as
  /// the chunk size, times the run, and feeds the measurement back so the
  /// chunk size hill-climbs across calls.  The chunker is caller-owned state;
  /// one chunker per (loop, executor) pair.
  void run_auto(std::uint64_t total_iters, core::AdaptiveChunker& chunker,
                ExecRef exec, HelperRef helper = nullptr);

  /// Number of workers (including the calling thread).
  [[nodiscard]] unsigned num_threads() const noexcept { return num_threads_; }

  /// ExecutorConfig::name (empty for anonymous executors).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] const RunStats& last_run_stats() const noexcept { return stats_; }

  /// Sets the soft wall-clock budgets for subsequent runs (persists until
  /// changed): demote to no-helpers after `demote_helpers_after`, to pure
  /// sequential after `go_sequential_after` (0 disables either rung).
  /// Callers typically derive these from the analytic model's sequential
  /// estimate — the runtime itself stays analysis-free.
  void set_soft_budget(std::chrono::milliseconds demote_helpers_after,
                       std::chrono::milliseconds go_sequential_after) noexcept {
    resilience_.demote_helpers_after = demote_helpers_after;
    resilience_.go_sequential_after = go_sequential_after;
  }

  /// Context of the execution phase in flight on the calling thread.  Valid
  /// only inside an ExecFn (the token serializes writes; each exec phase sees
  /// the context of its own chunk).  Staging-aware exec functions consult it
  /// to decide between the staged and fallback paths.
  [[nodiscard]] const ExecContext& current_exec_context() const noexcept {
    return exec_context_;
  }

  /// Point-in-time diagnostic snapshot (see state_dump.hpp).  Callable from
  /// any thread, even while a run is in flight.
  [[nodiscard]] CascadeStateDump snapshot() const;

 private:
  struct Job {
    std::uint64_t total_iters = 0;
    std::uint64_t iters_per_chunk = 0;
    std::uint64_t num_chunks = 0;
    ExecRef exec;
    HelperRef helper;
  };

  /// Per-worker observability slot, written with relaxed stores on the hot
  /// path and read racily by snapshot().  Cache-aligned: a worker's phase
  /// updates must not false-share with its neighbours'.
  struct WorkerState {
    std::atomic<std::uint8_t> phase{0};  // WorkerPhase
    std::atomic<std::uint64_t> chunk{0};
    std::atomic<std::uint64_t> iters_completed{0};
  };

  /// Worker body for ids 1..P-1 (id 0 is the caller inside run()).
  void worker_main(unsigned id);
  /// Runs worker `id`'s share of the current job; returns its stats.
  struct WorkerOutcome {
    std::uint64_t helpers_completed = 0;
    std::uint64_t helpers_jumped_out = 0;
    std::uint64_t chunks_executed = 0;
  };
  WorkerOutcome participate(unsigned id, const Job& job);

  /// Per-worker fail-soft health, written/read with relaxed atomics (the
  /// claim CAS, not health state, is the execution-correctness gate).
  enum HealthState : std::uint8_t {
    kHealthy = 0,   ///< helper runs normally
    kBackoff = 1,   ///< helper faulted; skipped until retry_at_ns
    kDetached = 2,  ///< quarantined (fault cap) or demoted; worker 0 keeps
                    ///< executing, others leave the cascade
  };
  struct WorkerHealth {
    std::atomic<std::uint8_t> state{0};  // HealthState
    std::atomic<std::uint32_t> faults{0};
    std::atomic<std::int64_t> retry_at_ns{0};  // steady_clock ns of next retry
  };

  /// How await_or_rescue() resolved a worker's wait for chunk `c`.
  enum class Turn : std::uint8_t {
    kMine,     ///< token == c: our turn to (try to claim and) execute
    kPassed,   ///< token > c: the chunk was reclaimed by someone else
    kAborted,  ///< abort or watchdog expiry; unwind
  };

  /// Waits for chunk `c`'s turn.  When rescue is enabled, also monitors the
  /// token for chunks stuck on quarantined or helper-stalled owners and
  /// reclaims them (executing them on this thread) so the cascade keeps
  /// moving.  `c == job.num_chunks` is the drain form: wait for the protocol
  /// to finish, rescuing stragglers, and return kMine at completion.
  Turn await_or_rescue(unsigned id, std::uint64_t c, const Job& job,
                       WorkerOutcome& outcome);
  /// One rescue attempt for the token-current chunk `t` (stuck since
  /// `stuck_since`).  Returns true iff this thread claimed and executed it.
  bool maybe_rescue(unsigned id, std::uint64_t t,
                    std::chrono::steady_clock::time_point stuck_since,
                    std::chrono::steady_clock::time_point now, const Job& job,
                    WorkerOutcome& outcome);
  /// Executes reclaimed chunk `t` on this (non-owner) thread and passes the
  /// token.  An exception here is a main-line fault: fail-stop.
  void execute_reclaimed(unsigned id, std::uint64_t t, const Job& job,
                         WorkerOutcome& outcome);
  /// Charges one helper fault to `worker`, moving it to backoff or (at the
  /// fault cap) quarantine.
  void record_helper_fault(unsigned worker, std::uint64_t chunk);
  /// Raises demotion_level_ per the soft budgets; idempotent and monotonic.
  void update_demotion(std::chrono::steady_clock::time_point now);
  /// Claims chunk `c` for execution on this thread (CAS 0 -> 1).  The sole
  /// gate against double execution once rescue is possible.
  bool claim(std::uint64_t c) noexcept {
    std::uint8_t expected = 0;
    return claims_[c].compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel);
  }
  /// Telemetry hook: one predictable branch when no log is attached.
  void note(unsigned id, telemetry::EventKind kind, std::uint64_t chunk) noexcept {
    if (log_ != nullptr) log_->record(id, kind, chunk);
  }
  /// First caller captures the state dump and poisons the token.
  void fire_watchdog();

  unsigned num_threads_;
  unsigned cores_ = 1;  ///< hardware_concurrency, cached at construction
  std::string name_;    ///< ExecutorConfig::name
  WaitMode wait_mode_ = WaitMode::kAuto;
  telemetry::EventLog* log_ = nullptr;  ///< ExecutorConfig::event_log
  std::vector<std::thread> pool_;

  // Job hand-off: guarded by mutex_/cv_; workers wake on epoch_ changes.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  bool stopping_ = false;
  Job job_;
  unsigned workers_done_ = 0;
  WorkerOutcome pooled_outcome_;  // accumulated under mutex_

  Token token_;
  RunStats stats_;

  // Re-entrancy guard: set for the whole duration of run().
  std::atomic<bool> active_{false};

  // Failure state, reset at the start of each run.
  common::CacheAligned<common::FirstError> first_error_;
  std::atomic<bool> watchdog_fired_{false};
  CascadeStateDump watchdog_dump_;  // written by the fire_watchdog() winner

  // Watchdog deadline for the current run (valid when watchdog_enabled_).
  bool watchdog_enabled_ = false;
  std::chrono::milliseconds watchdog_budget_{0};
  std::chrono::steady_clock::time_point deadline_{};

  // Fail-soft state.  The per-run flags are set once in run() before workers
  // start and read-only during the run.
  Resilience resilience_;
  bool rescue_enabled_ = false;  ///< claims + reclamation active this run
  bool budget_enabled_ = false;  ///< soft demotion budgets active this run
  bool demote_at_set_ = false;
  bool seq_at_set_ = false;
  std::chrono::steady_clock::time_point demote_at_{};
  std::chrono::steady_clock::time_point seq_at_{};
  std::atomic<unsigned> demotion_level_{0};
  std::vector<common::CacheAligned<WorkerHealth>> health_;
  /// One claim byte per chunk (heap array: vector<atomic> cannot resize).
  std::unique_ptr<std::atomic<std::uint8_t>[]> claims_;
  std::uint64_t claims_capacity_ = 0;
  /// Context for the exec phase in flight; written by the executing thread
  /// between token acquire and exec call, so successive writes are ordered
  /// by the token's release/acquire chain (TSan-clean without atomics).
  ExecContext exec_context_;
  // Degradation counters, reset per run (cold path: faults only).
  std::atomic<std::uint64_t> ctr_helper_faults_{0};
  std::atomic<std::uint64_t> ctr_reclaimed_{0};
  std::atomic<std::uint64_t> ctr_retries_{0};
  std::atomic<std::uint64_t> ctr_invalidated_{0};
  std::atomic<unsigned> ctr_quarantined_{0};

  // Snapshot inputs that must be readable without mutex_.
  std::atomic<std::uint64_t> snap_num_chunks_{0};
  std::atomic<std::uint64_t> snap_total_iters_{0};
  std::vector<common::CacheAligned<WorkerState>> worker_state_;
};

namespace detail {
/// Process-wide executor registry backing dump_state() (state_dump.cpp).
void register_executor(const CascadeExecutor* executor);
void unregister_executor(const CascadeExecutor* executor);
}  // namespace detail

}  // namespace casc::rt
