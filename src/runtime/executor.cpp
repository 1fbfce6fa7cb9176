#include "casc/rt/executor.hpp"

#include <algorithm>
#include <string>

#include "casc/common/check.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace casc::rt {

namespace {

void try_pin_to_cpu(unsigned cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::max(1u, std::thread::hardware_concurrency()), &set);
  // Best-effort: failure (e.g. restricted cpuset) is not an error.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

/// Helper faults a worker survives per run; the last one quarantines its
/// helper for the rest of the run (it still executes its own chunks).
constexpr std::uint32_t kMaxHelperFaults = 3;

/// How long a token-awaiting worker lets the token sit on a chunk whose owner
/// is stuck in a helper before reclaiming the chunk and executing it itself.
/// Also the stall fault charged to the stuck owner.
constexpr std::chrono::milliseconds kHelperStallGrace{25};

/// Holds an executor's re-entrancy flag for one run() or run_tasks() call.
struct ActiveGuard {
  std::atomic<bool>& flag;
  ~ActiveGuard() { flag.store(false, std::memory_order_release); }
};

}  // namespace

CascadeExecutor::CascadeExecutor(ExecutorConfig config) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  num_threads_ = config.num_threads != 0 ? config.num_threads : cores;
  // Oversubscribed workers sleep in the futex tier; threads <= cores keeps
  // the pure spin/yield fast path.
  token_.set_park_enabled(num_threads_ > cores);
  name_ = std::move(config.name);
  log_ = config.event_log;
  watchdog_budget_ = config.watchdog;
  resilience_ = config.resilience;
  std::vector<common::CacheAligned<WorkerState>> slots(num_threads_);
  worker_state_ = std::move(slots);
  health_ = std::vector<common::CacheAligned<WorkerHealth>>(num_threads_);
  // An explicit cpu list implies pinning; worker i goes to cpus[i % size] so
  // several executors can partition one machine's cores between them.
  const bool pin = config.pin_threads || !config.cpus.empty();
  const auto cpu_for = [cpus = config.cpus](unsigned id) {
    return cpus.empty() ? id : cpus[id % cpus.size()];
  };
  if (pin) try_pin_to_cpu(cpu_for(0));
  pool_.reserve(num_threads_ - 1);
  for (unsigned id = 1; id < num_threads_; ++id) {
    pool_.emplace_back([this, id, pin, cpu_for] {
      if (pin) try_pin_to_cpu(cpu_for(id));
      worker_main(id);
    });
  }
  detail::register_executor(this);
}

CascadeExecutor::~CascadeExecutor() {
  detail::unregister_executor(this);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : pool_) t.join();
}

void CascadeExecutor::worker_main(unsigned id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    const WorkerOutcome outcome = participate(id, job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pooled_outcome_.helpers_completed += outcome.helpers_completed;
      pooled_outcome_.helpers_jumped_out += outcome.helpers_jumped_out;
      pooled_outcome_.chunks_executed += outcome.chunks_executed;
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

void CascadeExecutor::publish(const Job& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    workers_done_ = 0;
    pooled_outcome_ = WorkerOutcome{};
    ++epoch_;
  }
  cv_.notify_all();
}

CascadeStateDump CascadeExecutor::snapshot() const {
  CascadeStateDump dump;
  dump.name = name_;
  dump.run_active = active_.load(std::memory_order_relaxed);
  dump.aborted = token_.aborted();
  dump.watchdog_expired = watchdog_fired_.load(std::memory_order_relaxed);
  dump.token = token_.current();
  dump.num_chunks = snap_num_chunks_.load(std::memory_order_relaxed);
  dump.total_iters = snap_total_iters_.load(std::memory_order_relaxed);
  dump.workers.reserve(num_threads_);
  for (unsigned id = 0; id < num_threads_; ++id) {
    const WorkerState& ws = worker_state_[id].value;
    WorkerSnapshot w;
    w.id = id;
    w.phase = static_cast<WorkerPhase>(ws.phase.load(std::memory_order_relaxed));
    w.chunk = ws.chunk.load(std::memory_order_relaxed);
    w.iters_completed = ws.iters_completed.load(std::memory_order_relaxed);
    dump.workers.push_back(w);
  }
  dump.helper_faults = ctr_helper_faults_.load(std::memory_order_relaxed);
  dump.chunks_reclaimed = ctr_reclaimed_.load(std::memory_order_relaxed);
  dump.workers_quarantined = ctr_quarantined_.load(std::memory_order_relaxed);
  dump.demotion_level = demotion_level_.load(std::memory_order_relaxed);
  if (log_ != nullptr) {
    dump.recent_events = log_->recent(CascadeStateDump::kRecentEvents);
  }
  return dump;
}

void CascadeExecutor::fire_watchdog() {
  bool expected = false;
  if (watchdog_fired_.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
    // Capture the dump BEFORE poisoning the token so it shows the stuck
    // state (who holds the token, who is spinning) rather than the unwind.
    watchdog_dump_ = snapshot();
    watchdog_dump_.watchdog_expired = true;
    // Attributed to worker 0's ring: the firing thread has no worker id here
    // (it may be the done-waiter); the chunk payload is the stuck token.
    note(0, telemetry::EventKind::kWatchdog, token_.current());
    token_.abort();
  }
}

void CascadeExecutor::record_helper_fault(unsigned worker, std::uint64_t chunk) {
  WorkerHealth& h = health_[worker].value;
  const std::uint32_t faults = h.faults.fetch_add(1, std::memory_order_relaxed) + 1;
  ctr_helper_faults_.fetch_add(1, std::memory_order_relaxed);
  note(worker, telemetry::EventKind::kHelperFault, chunk);
  if (faults >= kMaxHelperFaults) {
    // exchange, not store: racing reporters (the owner's own catch and a
    // rescuer's stall charge) must count the quarantine exactly once.
    if (h.state.exchange(kDetached, std::memory_order_relaxed) != kDetached) {
      ctr_quarantined_.fetch_add(1, std::memory_order_relaxed);
      note(worker, telemetry::EventKind::kQuarantine, chunk);
    }
    return;
  }
  // Exponential backoff before the next helper attempt: transient faults
  // (EAGAIN-class staging hiccups, one-off stalls) deserve a cheap retry,
  // repeat offenders wait longer until the cap quarantines them.
  const auto backoff =
      resilience_.retry_backoff * (std::int64_t{1} << std::min<std::uint32_t>(faults - 1, 10));
  const std::int64_t retry_at =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          (std::chrono::steady_clock::now() + backoff).time_since_epoch())
          .count();
  h.retry_at_ns.store(retry_at, std::memory_order_relaxed);
  std::uint8_t cur = h.state.load(std::memory_order_relaxed);
  // Never downgrade a concurrent quarantine back to backoff.
  while (cur != kDetached &&
         !h.state.compare_exchange_weak(cur, kBackoff, std::memory_order_relaxed)) {
  }
}

void CascadeExecutor::update_demotion(std::chrono::steady_clock::time_point now) {
  unsigned target = 0;
  if (seq_at_set_ && now >= seq_at_) {
    target = 2;
  } else if (demote_at_set_ && now >= demote_at_) {
    target = 1;
  }
  if (target == 0) return;
  unsigned cur = demotion_level_.load(std::memory_order_relaxed);
  while (cur < target) {
    if (demotion_level_.compare_exchange_weak(cur, target,
                                              std::memory_order_relaxed)) {
      note(0, telemetry::EventKind::kDemote, target);
      break;
    }
  }
}

void CascadeExecutor::execute_reclaimed(unsigned id, std::uint64_t t, const Job& job,
                                        WorkerOutcome& outcome) {
  WorkerState& ws = worker_state_[id].value;
  const std::uint64_t begin = t * job.iters_per_chunk;
  const std::uint64_t end = std::min(begin + job.iters_per_chunk, job.total_iters);
  note(id, telemetry::EventKind::kReclaim, t);
  ws.chunk.store(t, std::memory_order_relaxed);
  ws.phase.store(static_cast<std::uint8_t>(WorkerPhase::kExecuting),
                 std::memory_order_relaxed);
  // Staging buffers belong to the (failed) owner; the fallback path is the
  // only one a non-owner may run.
  exec_context_.reclaimed = true;
  exec_context_.staging_invalid = true;
  note(id, telemetry::EventKind::kExecBegin, t);
  try {
    job.exec(begin, end);
  } catch (...) {
    // A reclaimed chunk IS the main line of control: exec faults stay
    // fail-stop no matter which thread runs them.
    note(id, telemetry::EventKind::kAbort, t);
    first_error_->capture(t);
    token_.abort();
    return;
  }
  note(id, telemetry::EventKind::kExecEnd, t);
  ctr_reclaimed_.fetch_add(1, std::memory_order_relaxed);
  ++outcome.chunks_executed;
  ws.iters_completed.fetch_add(end - begin, std::memory_order_relaxed);
  if (!token_.aborted()) {
    token_.pass(t);
    note(id, telemetry::EventKind::kTokenPass, t);
  }
  ws.phase.store(static_cast<std::uint8_t>(WorkerPhase::kAwaiting),
                 std::memory_order_relaxed);
}

bool CascadeExecutor::maybe_rescue(unsigned id, std::uint64_t t,
                                   std::chrono::steady_clock::time_point stuck_since,
                                   std::chrono::steady_clock::time_point now,
                                   const Job& job, WorkerOutcome& outcome) {
  const auto owner = static_cast<unsigned>(t % num_threads_);
  if (owner == id) return false;  // our own chunk executes through the normal path
  const WorkerHealth& oh = health_[owner].value;
  // A detached non-zero owner has left (or is leaving) the cascade: its
  // chunks are orphans, reclaim immediately.  Worker 0 never leaves — its
  // kDetached only quarantines its helper — so it keeps its own chunks.
  const bool owner_gone =
      owner != 0 && oh.state.load(std::memory_order_relaxed) == kDetached;
  bool stall_fault = false;
  if (!owner_gone) {
    // Grace-based reclamation: the owner is visibly stuck inside a helper
    // (one that ignores jump-out — a cooperative helper would have returned
    // the moment the token arrived) past the stall grace window.
    if (now - stuck_since < kHelperStallGrace) return false;
    const auto owner_phase = worker_state_[owner].value.phase.load(std::memory_order_relaxed);
    if (owner_phase != static_cast<std::uint8_t>(WorkerPhase::kHelper)) return false;
    stall_fault = true;
  }
  if (!claim(t)) return false;  // the owner (or another rescuer) got there first
  // Charge the stall after winning the claim so concurrent waiters can't
  // multi-charge one stall.
  if (stall_fault) record_helper_fault(owner, t);
  execute_reclaimed(id, t, job, outcome);
  return true;
}

CascadeExecutor::Turn CascadeExecutor::await_or_rescue(unsigned id, std::uint64_t c,
                                                       const Job& job,
                                                       WorkerOutcome& outcome) {
  SpinWait spin;
  std::uint32_t polls = 0;
  const bool may_park = token_.park_enabled();
  const bool ticks_needed = watchdog_enabled_ || budget_enabled_ || rescue_enabled_;
  // Rescue bookkeeping: which chunk the token has sat on and since when.
  // Local to this waiter — each measures its own grace window.
  std::uint64_t stuck_chunk = ~0ull;
  std::chrono::steady_clock::time_point stuck_since{};
  for (;;) {
    const std::uint64_t t = token_.current();
    if (t >= c) return t == c ? Turn::kMine : Turn::kPassed;
    if (token_.aborted()) return Turn::kAborted;
    const bool parking = may_park && spin.should_park();
    // Deadline/rescue checks are amortized: one clock read per futex slice
    // (milliseconds apart) or per 1024 spin polls.
    if (ticks_needed && (parking || (++polls & 0x3FFu) == 0)) {
      const auto now = std::chrono::steady_clock::now();
      if (watchdog_enabled_ && now >= deadline_) {
        fire_watchdog();
        return Turn::kAborted;
      }
      if (budget_enabled_) update_demotion(now);
      if (rescue_enabled_) {
        if (t != stuck_chunk) {
          stuck_chunk = t;
          stuck_since = now;
        }
        if (maybe_rescue(id, t, stuck_since, now, job, outcome)) {
          if (token_.aborted()) return Turn::kAborted;
          // This thread just made progress; restart the wait fresh.
          stuck_chunk = ~0ull;
          spin.reset();
          polls = 0;
          continue;
        }
      }
    }
    if (parking) {
      token_.park_until_signal(c);
      continue;
    }
    spin.wait();
  }
}

CascadeExecutor::WorkerOutcome CascadeExecutor::participate(unsigned id,
                                                            const Job& job) {
  WorkerOutcome outcome;
  if (job.task) {
    // A task job: take the next unclaimed index until none is left or some
    // task has thrown.
    while (!first_error_->failed()) {
      const std::uint64_t i = next_task_.fetch_add(1);
      if (i >= job.total_iters) break;
      try {
        job.task(i);
      } catch (...) {
        first_error_->capture(i);
      }
    }
    return outcome;
  }
  const unsigned P = num_threads_;
  WorkerState& ws = worker_state_[id].value;
  WorkerHealth& health = health_[id].value;
  for (std::uint64_t c = id; c < job.num_chunks; c += P) {
    if (token_.aborted()) break;
    if (watchdog_enabled_ || budget_enabled_) {
      const auto now = std::chrono::steady_clock::now();
      if (watchdog_enabled_ && now >= deadline_) {
        // Covers stalls on this worker itself (including P == 1, where no one
        // is ever blocked in await_or_rescue to notice the expiry).
        fire_watchdog();
        break;
      }
      if (budget_enabled_) update_demotion(now);
    }
    if (rescue_enabled_ && id != 0 &&
        (health.state.load(std::memory_order_relaxed) == kDetached ||
         demotion_level_.load(std::memory_order_relaxed) >= 2)) {
      // Quarantined past usefulness, or demoted to sequential: leave the
      // cascade.  Publish kDetached first — that is what tells the workers
      // still in it (worker 0 at minimum) to reclaim every chunk this worker
      // would have owned.
      health.state.store(kDetached, std::memory_order_relaxed);
      ws.phase.store(static_cast<std::uint8_t>(WorkerPhase::kQuarantined),
                     std::memory_order_relaxed);
      return outcome;
    }
    ws.chunk.store(c, std::memory_order_relaxed);
    const std::uint64_t begin = c * job.iters_per_chunk;
    const std::uint64_t end = std::min(begin + job.iters_per_chunk, job.total_iters);
    // Chunk 0 has no helper phase: the token starts there, so its execution
    // phase begins at once and no helper is ever skipped or counted for it.
    if (job.helper && c != 0) {
      bool helper_enabled = true;
      const std::uint8_t st = health.state.load(std::memory_order_relaxed);
      if (st == kDetached ||
          (budget_enabled_ && demotion_level_.load(std::memory_order_relaxed) >= 1)) {
        helper_enabled = false;
      } else if (st == kBackoff) {
        const std::int64_t now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
        if (now_ns >= health.retry_at_ns.load(std::memory_order_relaxed)) {
          health.state.store(kHealthy, std::memory_order_relaxed);
          ctr_retries_.fetch_add(1, std::memory_order_relaxed);
          note(id, telemetry::EventKind::kRetry, c);
        } else {
          helper_enabled = false;  // still backing off: skip this helper
        }
      }
      if (!helper_enabled) {
        ++outcome.helpers_jumped_out;
      } else {
        ws.phase.store(static_cast<std::uint8_t>(WorkerPhase::kHelper),
                       std::memory_order_relaxed);
        const TokenWatch watch(&token_, c);
        // A helper that starts after the signal would only steal execution
        // time; skip it entirely in that case (degenerate jump-out).
        if (!watch.signalled()) {
          note(id, telemetry::EventKind::kHelperBegin, c);
          bool completed = false;
          bool faulted = false;
          try {
            completed = job.helper(begin, end, watch);
          } catch (...) {
            // Helpers are speculation: a throwing helper costs only its
            // speculation.  Charge the fault (backoff / quarantine) and carry
            // on — this chunk still executes below, on the fallback path.
            faulted = true;
            record_helper_fault(id, c);
          }
          if (faulted) {
            ++outcome.helpers_jumped_out;
          } else {
            note(id, telemetry::EventKind::kHelperEnd, c);
            (completed ? outcome.helpers_completed : outcome.helpers_jumped_out)++;
          }
        } else {
          ++outcome.helpers_jumped_out;
        }
      }
    }
    ws.phase.store(static_cast<std::uint8_t>(WorkerPhase::kAwaiting),
                   std::memory_order_relaxed);
    const Turn turn = await_or_rescue(id, c, job, outcome);
    if (turn == Turn::kAborted) break;
    if (turn == Turn::kPassed) continue;  // someone reclaimed this chunk already
    // The claim is the execution ticket: a rescuer may have taken chunk c in
    // the instant between the token arriving and us noticing.
    if (rescue_enabled_ && !claim(c)) continue;
    note(id, telemetry::EventKind::kTokenAcquire, c);
    ws.phase.store(static_cast<std::uint8_t>(WorkerPhase::kExecuting),
                   std::memory_order_relaxed);
    exec_context_.reclaimed = false;
    // Sticky distrust: once this worker's helper has faulted, any of its
    // chunks may carry half-written staging (including look-ahead slots), so
    // the rest of its chunks run the fallback path.  Costs speed, never
    // correctness.
    exec_context_.staging_invalid =
        static_cast<bool>(job.helper) &&
        health.faults.load(std::memory_order_relaxed) != 0;
    if (exec_context_.staging_invalid) {
      ctr_invalidated_.fetch_add(1, std::memory_order_relaxed);
    }
    note(id, telemetry::EventKind::kExecBegin, c);
    try {
      job.exec(begin, end);
    } catch (...) {
      // The thrower holds the token and will never pass it; poison the
      // cascade so every await/watch unwinds instead of spinning forever.
      note(id, telemetry::EventKind::kAbort, c);
      first_error_->capture(c);
      token_.abort();
      break;
    }
    note(id, telemetry::EventKind::kExecEnd, c);
    ++outcome.chunks_executed;
    ws.iters_completed.fetch_add(end - begin, std::memory_order_relaxed);
    // An abort that arrived mid-execution means the run has failed; don't
    // extend the chain (a successor may already have unwound past its turn).
    if (token_.aborted()) break;
    token_.pass(c);
    note(id, telemetry::EventKind::kTokenPass, c);
  }
  // Drain: a worker whose own chunks are done may still owe the cascade
  // rescues — the tail chunks of a quarantined worker have no owner left.
  // Wait for the protocol to complete (token == num_chunks), reclaiming any
  // straggler the wait loop surfaces.
  if (rescue_enabled_ && !token_.aborted()) {
    ws.phase.store(static_cast<std::uint8_t>(WorkerPhase::kAwaiting),
                   std::memory_order_relaxed);
    (void)await_or_rescue(id, job.num_chunks, job, outcome);
  }
  ws.phase.store(static_cast<std::uint8_t>(WorkerPhase::kIdle),
                 std::memory_order_relaxed);
  return outcome;
}

void CascadeExecutor::run(std::uint64_t total_iters, std::uint64_t iters_per_chunk,
                          ExecRef exec, HelperRef helper) {
  CASC_CHECK(static_cast<bool>(exec), "run() requires an execution function");
  CASC_CHECK(iters_per_chunk > 0, "iters_per_chunk must be positive");
  CASC_CHECK(!active_.exchange(true, std::memory_order_acq_rel),
             "run() is not reentrant: a cascade or task job is already in "
             "flight on this executor (nested or concurrent calls would deadlock)");
  const ActiveGuard guard{active_};

  if (total_iters == 0) {
    stats_ = RunStats{};
    return;
  }

  Job job;
  job.total_iters = total_iters;
  job.iters_per_chunk = iters_per_chunk;
  job.num_chunks = (total_iters + iters_per_chunk - 1) / iters_per_chunk;
  job.exec = exec;
  job.helper = helper;

  token_.reset();
  first_error_->reset();
  watchdog_fired_.store(false, std::memory_order_relaxed);
  watchdog_dump_ = CascadeStateDump{};
  watchdog_enabled_ = watchdog_budget_.count() > 0;
  if (watchdog_enabled_) {
    deadline_ = std::chrono::steady_clock::now() + watchdog_budget_;
  }
  // Fail-soft per-run state.  Rescue (claims + reclamation) is armed only
  // when it can matter — multiple workers and chunks, and either helpers
  // (which can fault/stall) or soft budgets (which detach workers) in play —
  // so helperless runs keep the plain hot path untouched.
  budget_enabled_ =
      demote_helpers_after_.count() > 0 || go_sequential_after_.count() > 0;
  rescue_enabled_ = num_threads_ > 1 && job.num_chunks > 1 &&
                    (static_cast<bool>(helper) || budget_enabled_);
  demote_at_set_ = seq_at_set_ = false;
  if (budget_enabled_) {
    const auto now = std::chrono::steady_clock::now();
    if (demote_helpers_after_.count() > 0) {
      demote_at_ = now + demote_helpers_after_;
      demote_at_set_ = true;
    }
    if (go_sequential_after_.count() > 0) {
      seq_at_ = now + go_sequential_after_;
      seq_at_set_ = true;
    }
  }
  demotion_level_.store(0, std::memory_order_relaxed);
  for (auto& slot : health_) {
    slot.value.state.store(kHealthy, std::memory_order_relaxed);
    slot.value.faults.store(0, std::memory_order_relaxed);
    slot.value.retry_at_ns.store(0, std::memory_order_relaxed);
  }
  ctr_helper_faults_.store(0, std::memory_order_relaxed);
  ctr_reclaimed_.store(0, std::memory_order_relaxed);
  ctr_retries_.store(0, std::memory_order_relaxed);
  ctr_invalidated_.store(0, std::memory_order_relaxed);
  ctr_quarantined_.store(0, std::memory_order_relaxed);
  exec_context_ = ExecContext{};
  if (rescue_enabled_) {
    if (claims_capacity_ < job.num_chunks) {
      claims_ = std::make_unique<std::atomic<std::uint8_t>[]>(job.num_chunks);
      claims_capacity_ = job.num_chunks;
    }
    for (std::uint64_t i = 0; i < job.num_chunks; ++i) {
      claims_[i].store(0, std::memory_order_relaxed);
    }
  }
  snap_num_chunks_.store(job.num_chunks, std::memory_order_relaxed);
  snap_total_iters_.store(total_iters, std::memory_order_relaxed);
  for (auto& slot : worker_state_) {
    slot.value.phase.store(static_cast<std::uint8_t>(WorkerPhase::kIdle),
                           std::memory_order_relaxed);
    slot.value.chunk.store(0, std::memory_order_relaxed);
    slot.value.iters_completed.store(0, std::memory_order_relaxed);
  }

  publish(job);
  note(0, telemetry::EventKind::kRunBegin, job.num_chunks);

  // The calling thread is worker 0; it executes chunk 0 without waiting.
  const WorkerOutcome mine = participate(0, job);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto done = [&] { return workers_done_ == num_threads_ - 1; };
    if (watchdog_enabled_ && !done_cv_.wait_until(lock, deadline_, done)) {
      // The done-waiter doubles as the watchdog sentinel: abort the cascade,
      // then wait (without a deadline) for the pool to quiesce.  Workers
      // stuck in user code can only be awaited, never preempted.  Exception:
      // a cascade whose protocol already completed (token == num_chunks) is
      // only waiting out a straggler helper — that is quiescence latency,
      // not lack of progress, so a finished (possibly degraded) run is not
      // killed.
      lock.unlock();
      if (token_.current() < job.num_chunks) fire_watchdog();
      lock.lock();
    }
    done_cv_.wait(lock, done);

    stats_ = RunStats{};
    stats_.total_iters = total_iters;
    stats_.num_chunks = job.num_chunks;
    stats_.iters_per_chunk = iters_per_chunk;
    stats_.helpers_completed =
        pooled_outcome_.helpers_completed + mine.helpers_completed;
    stats_.helpers_jumped_out =
        pooled_outcome_.helpers_jumped_out + mine.helpers_jumped_out;
    stats_.chunks_executed = pooled_outcome_.chunks_executed + mine.chunks_executed;
    stats_.aborted = token_.aborted();
    stats_.first_failed_chunk = first_error_->tag();
    stats_.helper_faults = ctr_helper_faults_.load(std::memory_order_relaxed);
    stats_.chunks_reclaimed = ctr_reclaimed_.load(std::memory_order_relaxed);
    stats_.helper_retries = ctr_retries_.load(std::memory_order_relaxed);
    stats_.stagings_invalidated = ctr_invalidated_.load(std::memory_order_relaxed);
    stats_.workers_quarantined = ctr_quarantined_.load(std::memory_order_relaxed);
    stats_.demotion_level = demotion_level_.load(std::memory_order_relaxed);
    // The final pass() closes the protocol but has no receiving processor,
    // so it is not a hand-off (the paper's "#chunks x transfer cost" model
    // charges num_chunks - 1).  On an aborted run, count only the hand-offs
    // that delivered a chunk which went on to execute — the poisoned
    // hand-off into the failing chunk is not one — so degraded/aborted runs
    // are auditable against chunks_executed rather than the planned schedule.
    stats_.transfers =
        stats_.aborted
            ? (stats_.chunks_executed > 0 ? stats_.chunks_executed - 1 : 0)
            : job.num_chunks - 1;
  }

  // All workers have quiesced: safe to rethrow / report.  The pool is back
  // in its idle wait, so the executor is immediately reusable.
  note(0, telemetry::EventKind::kRunEnd, stats_.chunks_executed);
  if (first_error_->failed()) first_error_->rethrow();
  if (watchdog_fired_.load(std::memory_order_acquire)) {
    throw WatchdogExpired("cascade watchdog expired after " +
                              std::to_string(watchdog_budget_.count()) +
                              " ms (chunk " + std::to_string(token_.current()) +
                              " of " + std::to_string(job.num_chunks) + ")",
                          watchdog_dump_);
  }
  CASC_CHECK(token_.current() == job.num_chunks,
             "cascade finished with an unexecuted chunk");
}

void CascadeExecutor::run_tasks(std::uint64_t n, TaskRef task) {
  CASC_CHECK(static_cast<bool>(task), "run_tasks() requires a task");
  CASC_CHECK(!active_.exchange(true, std::memory_order_acq_rel),
             "run_tasks() is not reentrant: a cascade or task job is already in "
             "flight on this executor (nested or concurrent calls would deadlock)");
  const ActiveGuard guard{active_};
  if (n == 0) return;

  Job job;
  job.total_iters = n;
  job.task = task;
  first_error_->reset();
  next_task_.store(0);
  publish(job);
  (void)participate(0, job);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return workers_done_ == num_threads_ - 1; });
  }
  if (first_error_->failed()) first_error_->rethrow();
}

void CascadeExecutor::run(std::uint64_t total_iters, std::uint64_t iters_per_chunk,
                          ExecRef exec, HelperRef helper, const PreflightGate& gate) {
  // A refused gate means the helper would stage operand values that some
  // chunk writes: running it could feed execution stale data.  Drop it — the
  // cascade degenerates to token hand-offs over the plain loop body, which is
  // always correct — and record the refusal so callers can see why their
  // helper never ran.
  const bool refused = static_cast<bool>(helper) && !gate.is_proven();
  run(total_iters, iters_per_chunk, exec, refused ? HelperRef{} : helper);
  if (refused) {
    stats_.preflight_refused = true;
    stats_.preflight_diag = common::render_text(gate.reason());
  }
}

}  // namespace casc::rt
