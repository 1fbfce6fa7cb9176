// High-level restructuring adapter for the real runtime.  Wires together the
// executor, per-worker sequential buffers, staged-chunk tracking, and
// jump-out so that user code only supplies two lambdas:
//
//   gather(i)  -> V   resolve iteration i's read-only operand value
//                     (the helper runs this and stages the result)
//   consume(i, v)     the execution body, given the operand value
//
// If a chunk's helper could not finish before the token arrived (jump-out),
// its execution phase simply re-resolves operands via gather() — the
// original sequential data path — so results are always identical to the
// plain loop `for i: consume(i, gather(i))`.
//
// Hot-path structure (see docs/RUNTIME.md, "Performance tuning"):
//   * Staging writes through a SequentialBuffer::WriteCursor — one hard
//     bounds check per chunk, commit-to-publish, so a jump-out abandons the
//     cursor and the buffer stays unpublished (never a half-staged drain).
//   * Draining reads through a ReadCursor with a software prefetch running
//     `drain_prefetch_distance` elements ahead of the consume position.
//   * With lookahead L > 1 a worker that finishes staging its next chunk
//     keeps going: it stages up to L-1 of its own future chunks (c+P, c+2P,
//     ...) into its private buffer ring until the token signals it.  All
//     staged flags for those chunks belong to the same worker, so no
//     synchronization is added.
//   * auto_chunk mode feeds each run's wall time into an AdaptiveChunker and
//     uses its hill-climbed chunk size for the next run (the wave5 pattern:
//     thousands of invocations of the same loop).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "casc/common/check.hpp"
#include "casc/common/simd.hpp"
#include "casc/common/stopwatch.hpp"
#include "casc/core/chunk.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/helpers.hpp"
#include "casc/rt/preflight.hpp"
#include "casc/rt/seq_buffer.hpp"

namespace casc::rt {

/// A gather expressible as `base[idx[i]]` — the cascade's canonical
/// scattered-operand shape.  Declaring the structure (instead of hiding it
/// inside an opaque lambda) lets the staging helper run the runtime-
/// dispatched SIMD gather kernels (common/simd.hpp) over whole blocks of
/// indices; the jump-out fallback and the refused-gate path call
/// operator() exactly like any other gather, so results stay bit-identical
/// on every path.
template <typename T, typename I>
struct IndexedGather {
  const T* base = nullptr;
  const I* idx = nullptr;
  /// Element count of `base`.  Gates the 32-bit-lane SIMD kernels: every
  /// index is < base_len, so base_len <= 2^31 proves the kernels' signed-
  /// lane contract.  Larger bases silently take the scalar path.
  std::uint64_t base_len = 0;

  [[nodiscard]] T operator()(std::uint64_t i) const noexcept {
    return base[idx[i]];
  }
};

/// Deduction helper: `indexed_gather(a.data(), a.size(), ij.data())`.
template <typename T, typename I>
[[nodiscard]] IndexedGather<T, I> indexed_gather(const T* base,
                                                 std::uint64_t base_len,
                                                 const I* idx) noexcept {
  return IndexedGather<T, I>{base, idx, base_len};
}

namespace detail {

template <typename G>
struct is_indexed_gather : std::false_type {};
template <typename T, typename I>
struct is_indexed_gather<IndexedGather<T, I>> : std::true_type {};
template <typename G>
inline constexpr bool is_indexed_gather_v =
    is_indexed_gather<std::remove_cv_t<std::remove_reference_t<G>>>::value;

/// Consume callable that accepts a whole staged span `(begin, end, values)`
/// instead of one `(i, value)` at a time — the drain side's vector form.
template <typename C, typename V>
inline constexpr bool is_span_consume_v =
    std::is_invocable_v<C&, std::uint64_t, std::uint64_t, const V*>;

/// Gathers values[idx[begin..begin+len)] into `out` with the best kernel the
/// type combination and index range admit; the scalar path is the semantic
/// reference, so every path is bit-identical.
template <typename T, typename I>
void gather_block(const IndexedGather<T, I>& g, std::uint64_t begin,
                  std::uint64_t len, T* out) noexcept {
  if constexpr (std::is_same_v<T, double> && std::is_same_v<I, std::uint32_t>) {
    if (g.base_len <= (std::uint64_t{1} << 31)) {
      common::simd::gather_index_f64(g.base, g.idx + begin, len, out);
      return;
    }
  } else if constexpr (std::is_same_v<T, std::uint64_t> &&
                       std::is_same_v<I, std::uint32_t>) {
    if (g.base_len <= (std::uint64_t{1} << 31)) {
      common::simd::gather_index_u64(g.base, g.idx + begin, len, out);
      return;
    }
  }
  for (std::uint64_t k = 0; k < len; ++k) out[k] = g(begin + k);
}

}  // namespace detail

/// Tuning knobs for a RestructuredLoop (defaults reproduce the pre-lookahead
/// behaviour: one buffer per worker, fixed chunk size).
struct RestructuredOptions {
  /// Chunk geometry; with auto_chunk this is the starting size.
  std::uint64_t iters_per_chunk = 1024;
  /// Buffers per worker (>= 1).  L > 1 lets an idle helper stage up to L of
  /// its own future chunks ahead of the token.
  unsigned lookahead = 1;
  /// Hill-climb the chunk size across run() calls instead of fixing it.
  bool auto_chunk = false;
  /// Chunk-size bounds for auto_chunk (clamped to powers of two; buffers are
  /// sized for max_chunk_iters).
  std::uint64_t min_chunk_iters = 256;
  std::uint64_t max_chunk_iters = 64 * 1024;
  /// How many elements ahead of the consume position the drain loop
  /// prefetches (0 disables).
  std::uint64_t drain_prefetch_distance = 8;
  /// Seeded helper-fault schedule armed onto the staging helper (non-owning;
  /// must outlive run()).  The fail-soft executor absorbs the faults; faulted
  /// or reclaimed chunks consume through the gather() fallback path, so
  /// results stay bit-identical to the plain loop.
  const ChaosPlan* chaos = nullptr;
};

/// Statistics of the last restructured run.
struct RestructuredStats {
  std::uint64_t chunks = 0;
  std::uint64_t chunks_staged = 0;    ///< execution consumed the buffer
  std::uint64_t chunks_fallback = 0;  ///< helper jumped out; original path used
  /// Chunks whose staging completed in a look-ahead pass (before their own
  /// helper phase even started).  On a clean run a subset of chunks_staged;
  /// on a degraded run a staged-ahead chunk may still be consumed through
  /// the fallback path (its staging was distrusted or the chunk reclaimed),
  /// so the subset property only holds when !degraded.
  std::uint64_t chunks_staged_ahead = 0;
  /// Chunk size this run actually used (differs from the configured size in
  /// auto_chunk mode).
  std::uint64_t iters_per_chunk = 0;
  /// True when the run was gated and the PreflightGate refused: no chunk
  /// staged, the helper degraded to gather-and-discard (pure prefetch), and
  /// preflight_diag carries the rendered refusal.
  bool preflight_refused = false;
  std::string preflight_diag;
  // Fail-soft degradation of the underlying executor run (all zero on a
  // clean run).  A reclaimed or distrusted chunk counts as chunks_fallback
  // here even when its helper committed staging.
  std::uint64_t helper_faults = 0;
  std::uint64_t chunks_reclaimed = 0;
  unsigned workers_quarantined = 0;
  bool degraded = false;

  [[nodiscard]] double staged_fraction() const noexcept {
    return chunks ? static_cast<double>(chunks_staged) / static_cast<double>(chunks)
                  : 0.0;
  }
};

/// Reusable restructured-cascade driver for staged values of type V.
template <typename V>
class RestructuredLoop {
  static_assert(std::is_trivially_copyable_v<V>,
                "staged values must be trivially copyable");

 public:
  RestructuredLoop(CascadeExecutor& executor, RestructuredOptions options)
      : executor_(executor),
        options_(options),
        buffers_(executor.num_threads(), buffer_iters(options) * sizeof(V),
                 buffer_iters(options), std::max(1u, options.lookahead)) {
    CASC_CHECK(options.iters_per_chunk > 0, "iters_per_chunk must be positive");
    CASC_CHECK(options.lookahead > 0, "lookahead must be positive");
    if (options_.auto_chunk) {
      chunker_.emplace(options_.iters_per_chunk, options_.min_chunk_iters,
                       options_.max_chunk_iters);
    }
  }

  /// Fixed-geometry convenience constructor (the pre-options interface).
  RestructuredLoop(CascadeExecutor& executor, std::uint64_t iters_per_chunk)
      : RestructuredLoop(executor, make_fixed(iters_per_chunk)) {}

  /// Runs `consume(i, gather(i))` for i in [0, n), sequentially, cascaded
  /// across the executor's workers with a restructuring helper.
  template <typename Gather, typename Consume>
  void run(std::uint64_t n, Gather&& gather, Consume&& consume) {
    run_impl(n, gather, consume, /*allow_stage=*/true);
  }

  /// Gated variant: staging operand values early is only sequentially
  /// correct when the gathered operands are read-only over the whole loop.
  /// A refused gate degrades the helper to gather-and-discard — it still
  /// warms the worker's cache (the prefetch effect) but never publishes a
  /// staged buffer, so every execution phase re-resolves via gather() and
  /// results are exactly the plain loop's.  The refusal is recorded in
  /// last_run_stats().  CASC_NO_VERIFY=1 overrides a refusal.
  template <typename Gather, typename Consume>
  void run(std::uint64_t n, Gather&& gather, Consume&& consume,
           const PreflightGate& gate) {
    const bool allow = gate.allow_restructure();
    run_impl(n, gather, consume, allow);
    if (!allow) {
      stats_.preflight_refused = true;
      stats_.preflight_diag = common::render_text(gate.reason());
    }
  }

  [[nodiscard]] const RestructuredStats& last_run_stats() const noexcept {
    return stats_;
  }

  /// Chunk size the NEXT run will use (the adapted size in auto_chunk mode,
  /// the configured size otherwise).
  [[nodiscard]] std::uint64_t current_iters_per_chunk() const noexcept {
    return chunker_ ? chunker_->current() : options_.iters_per_chunk;
  }

 private:
  static RestructuredOptions make_fixed(std::uint64_t iters_per_chunk) {
    RestructuredOptions o;
    o.iters_per_chunk = iters_per_chunk;
    return o;
  }

  /// Iteration capacity each buffer must hold: the largest chunk this
  /// instance can ever be asked to stage.
  static std::uint64_t buffer_iters(const RestructuredOptions& o) {
    return o.auto_chunk ? std::max(o.iters_per_chunk, o.max_chunk_iters)
                        : o.iters_per_chunk;
  }

  template <typename Gather, typename Consume>
  void run_impl(std::uint64_t n, Gather& gather, Consume& consume,
                bool allow_stage) {
    const std::uint64_t ipc = current_iters_per_chunk();
    const std::uint64_t num_chunks = n == 0 ? 0 : (n + ipc - 1) / ipc;
    const std::uint64_t prefetch_dist = options_.drain_prefetch_distance;
    const unsigned P = executor_.num_threads();
    const unsigned lookahead = options_.lookahead;
    staged_.assign(num_chunks, 0);
    stats_ = RestructuredStats{};
    stats_.chunks = num_chunks;
    stats_.iters_per_chunk = ipc;

    // Stages chunk `c` through a write cursor.  Returns false on jump-out, in
    // which case the cursor is abandoned uncommitted: the buffer publishes
    // nothing and the chunk stays unstaged (the execution phase falls back).
    const auto stage_chunk = [&](std::uint64_t c, const TokenWatch& watch) {
      const std::uint64_t b = c * ipc;
      const std::uint64_t e = std::min(b + ipc, n);
      SequentialBuffer& buf = buffers_.for_chunk_index(c);
      buf.reset();
      auto cursor = buf.template write_cursor<V>(e - b);
      if constexpr (detail::is_indexed_gather_v<Gather>) {
        // SIMD fast path: gather whole blocks straight into the cursor's
        // reserved span, polling the token between blocks.  A jump-out
        // abandons the cursor exactly like the scalar path.
        constexpr std::uint64_t kBlock = 1024;
        for (std::uint64_t i = b; i < e;) {
          if (watch.signalled()) return false;  // jump out
          const std::uint64_t len = std::min(kBlock, e - i);
          detail::gather_block(gather, i, len, cursor.reserve_span(len));
          cursor.advance(len);
          i += len;
        }
      } else {
        for (std::uint64_t i = b; i < e; ++i) {
          if ((i & 0x3f) == 0 && watch.signalled()) return false;  // jump out
          cursor.push(gather(i));
        }
      }
      cursor.commit();
      // Written and later read by the same worker: chunk c's helper and
      // execution phases (and any look-ahead pass that reaches c) all run on
      // worker c mod P, so a plain byte is race-free.
      staged_[c] = 1;
      return true;
    };

    const auto exec = [&](std::uint64_t begin, std::uint64_t end) {
      const std::uint64_t chunk = begin / ipc;
      // The fail-soft context gates the staged path: a reclaimed chunk runs
      // on a non-owner thread (whose buffers these are not — and the
      // short-circuit also keeps it off the owner's staged_ byte), and a
      // suspect-staging chunk must ignore whatever its faulty helper
      // committed.  Both take the gather() fallback, preserving bit-identity.
      const ExecContext& ctx = executor_.current_exec_context();
      if (!ctx.reclaimed && !ctx.staging_invalid && staged_[chunk] != 0) {
        SequentialBuffer& buf = buffers_.for_chunk_index(chunk);
        auto cursor = buf.template read_cursor<V>(end - begin);
        if constexpr (detail::is_span_consume_v<Consume, V>) {
          // Vector drain: one call over the contiguous staged span; the
          // dense sequential walk is what the hardware stream prefetcher
          // (and the consumer's own vectorization) is built for.
          consume(begin, end, cursor.data());
        } else {
          for (std::uint64_t i = begin; i < end; ++i) {
            if (prefetch_dist != 0) cursor.prefetch(prefetch_dist);
            consume(i, cursor.next());
          }
        }
        ++stats_local_staged_;
      } else if constexpr (detail::is_span_consume_v<Consume, V>) {
        // Fallback for a span consumer: materialize block-wise into a stack
        // staging area (SIMD-gathered when the gather is indexed), then hand
        // out the same spans the staged path would.
        constexpr std::uint64_t kBlock = 1024;
        alignas(common::kCacheLineSize) V tmp[kBlock];
        for (std::uint64_t i = begin; i < end;) {
          const std::uint64_t len = std::min(kBlock, end - i);
          if constexpr (detail::is_indexed_gather_v<Gather>) {
            detail::gather_block(gather, i, len, tmp);
          } else {
            for (std::uint64_t k = 0; k < len; ++k) tmp[k] = gather(i + k);
          }
          consume(i, i + len, static_cast<const V*>(tmp));
          i += len;
        }
      } else {
        for (std::uint64_t i = begin; i < end; ++i) {
          consume(i, gather(i));
        }
      }
    };

    const auto helper = [&](std::uint64_t begin, std::uint64_t end,
                            const TokenWatch& watch) {
      const std::uint64_t chunk = begin / ipc;
      if (!allow_stage) {
        // Refused gate: keep the gather's cache-warming effect but never
        // publish a staged buffer.
        for (std::uint64_t i = begin; i < end; ++i) {
          if ((i & 0x3f) == 0 && watch.signalled()) return false;
          (void)gather(i);
        }
        return true;
      }
      (void)end;
      // Own chunk first (unless a look-ahead pass already staged it)...
      if (staged_[chunk] == 0 && !stage_chunk(chunk, watch)) return false;
      // ...then run ahead into this worker's future chunks until the
      // token (or the ring capacity) stops us.  The helper has completed
      // for ITS chunk either way, so the return value stays true.
      for (unsigned k = 1; k < lookahead; ++k) {
        const std::uint64_t f = chunk + std::uint64_t{k} * P;
        if (f >= num_chunks || watch.signalled()) break;
        if (staged_[f] != 0) continue;
        if (!stage_chunk(f, watch)) break;
        stats_local_ahead_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    };

    common::Stopwatch sw;
    if (options_.chaos != nullptr && !options_.chaos->empty()) {
      // The owning HelperFn local keeps the armed wrapper alive across run().
      const HelperFn armed = options_.chaos->arm(HelperFn(helper));
      executor_.run(n, ipc, exec, armed);
    } else {
      executor_.run(n, ipc, exec, helper);
    }

    if (chunker_ && n > 0) {
      const double seconds = sw.elapsed_seconds();
      if (seconds > 0.0) chunker_->record(seconds, n);
    }

    // chunks_staged is tallied on worker threads via relaxed counters; fold
    // them into the stats now that all workers have finished.
    stats_.chunks_staged = stats_local_staged_.exchange(0);
    stats_.chunks_staged_ahead = stats_local_ahead_.exchange(0);
    stats_.chunks_fallback = stats_.chunks - stats_.chunks_staged;
    const RunStats& run_stats = executor_.last_run_stats();
    stats_.helper_faults = run_stats.helper_faults;
    stats_.chunks_reclaimed = run_stats.chunks_reclaimed;
    stats_.workers_quarantined = run_stats.workers_quarantined;
    stats_.degraded = run_stats.degraded();
  }

  CascadeExecutor& executor_;
  RestructuredOptions options_;
  PerWorkerBuffers buffers_;
  std::optional<core::AdaptiveChunker> chunker_;
  std::vector<char> staged_;  // distinct bytes written by distinct workers
  std::atomic<std::uint64_t> stats_local_staged_{0};
  std::atomic<std::uint64_t> stats_local_ahead_{0};
  RestructuredStats stats_;
};

}  // namespace casc::rt
