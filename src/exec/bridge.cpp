#include "casc/exec/bridge.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "casc/analysis/verifier.hpp"
#include "casc/common/check.hpp"
#include "casc/common/simd.hpp"
#include "casc/common/stopwatch.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/helpers.hpp"

namespace casc::exec {

namespace {

// ---- interpretation kernels ------------------------------------------------
//
// One generic interpreter plus kernels fused per operand-class shape.  The
// generic form re-branches on every ResolvedRef (is it a write? is it
// staged?); for the common uniform bodies the classification already lives in
// MaterializedLoop::body_shape(), so the dispatch happens ONCE per span and
// the inner loops below touch only what their shape needs — the all-staged
// kernel never reads the ResolvedRef table at all.  Every kernel implements
// the same semantics (see materialize.hpp), so digests are bit-identical
// across kernels, helper modes, and SIMD tiers.

/// Generic reference interpreter.  `staged` non-null: consume the next staged
/// value for each staged read (the helper gathered them in stream order).
std::uint64_t interpret_generic(MaterializedLoop& loop, std::uint64_t begin,
                                std::uint64_t end, std::uint64_t acc,
                                const std::uint64_t* staged) {
  for (std::uint64_t it = begin; it < end; ++it) {
    for (const ResolvedRef* ref = loop.refs_begin(it); ref != loop.refs_end(it);
         ++ref) {
      if (ref->is_write) {
        const std::uint64_t w = MaterializedLoop::mix(acc, it);
        loop.store(*ref, w);
        acc = w;
      } else {
        std::uint64_t v;
        if (staged != nullptr && ref->staged) {
          v = *staged++;
        } else {
          v = loop.load(*ref);
        }
        acc = MaterializedLoop::mix(acc, v);
      }
    }
  }
  return acc;
}

/// Fused: every reference is a staged read.  Pure mix-fold over the dense
/// staged span — no ResolvedRef traffic, no branches, the exact loop the
/// hardware stream prefetcher is built for.
std::uint64_t interpret_reads_only(std::uint64_t begin, std::uint64_t end,
                                   std::uint64_t acc,
                                   const std::uint64_t* staged,
                                   std::uint32_t refs_per_iter) {
  const std::uint64_t n = (end - begin) * refs_per_iter;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc = MaterializedLoop::mix(acc, staged[k]);
  }
  return acc;
}

/// Fused: R staged reads then exactly one trailing write per iteration (the
/// dense_sum / gather_split shape).  Only the write slot's ResolvedRef is
/// touched.
std::uint64_t interpret_reads_then_write(MaterializedLoop& loop,
                                         std::uint64_t begin, std::uint64_t end,
                                         std::uint64_t acc,
                                         const std::uint64_t* staged,
                                         std::uint32_t reads) {
  for (std::uint64_t it = begin; it < end; ++it) {
    for (std::uint32_t r = 0; r < reads; ++r) {
      acc = MaterializedLoop::mix(acc, *staged++);
    }
    const ResolvedRef& w = *(loop.refs_end(it) - 1);
    const std::uint64_t wv = MaterializedLoop::mix(acc, it);
    loop.store(w, wv);
    acc = wv;
  }
  return acc;
}

/// Fused: arbitrary uniform slot sequence, driven from the precomputed shape
/// table instead of per-ref flag bytes (the spmv shape: staged reads mixed
/// with plain reads and writes).
std::uint64_t interpret_uniform(MaterializedLoop& loop, std::uint64_t begin,
                                std::uint64_t end, std::uint64_t acc,
                                const std::uint64_t* staged,
                                const std::vector<SlotKind>& slots) {
  for (std::uint64_t it = begin; it < end; ++it) {
    const ResolvedRef* ref = loop.refs_begin(it);
    for (const SlotKind kind : slots) {
      switch (kind) {
        case SlotKind::kStagedRead:
          acc = MaterializedLoop::mix(acc, *staged++);
          break;
        case SlotKind::kPlainRead:
          acc = MaterializedLoop::mix(acc, loop.load(*ref));
          break;
        case SlotKind::kWrite: {
          const std::uint64_t w = MaterializedLoop::mix(acc, it);
          loop.store(*ref, w);
          acc = w;
          break;
        }
      }
      ++ref;
    }
  }
  return acc;
}

/// Interprets iterations [begin, end) against real storage, continuing from
/// `acc`.  `staged` non-null: the chunk's staged operand values, gathered by
/// the helper in stream order.  Dispatches once to the best kernel the body
/// shape admits.
std::uint64_t interpret_span(MaterializedLoop& loop, std::uint64_t begin,
                             std::uint64_t end, std::uint64_t acc,
                             const std::uint64_t* staged) {
  if (staged != nullptr) {
    const BodyShape& shape = loop.body_shape();
    if (shape.uniform && shape.plain_reads == 0) {
      if (shape.writes == 0) {
        return interpret_reads_only(begin, end, acc, staged,
                                    shape.staged_reads);
      }
      if (shape.writes == 1 && shape.slots.back() == SlotKind::kWrite) {
        return interpret_reads_then_write(loop, begin, end, acc, staged,
                                          shape.staged_reads);
      }
    }
    if (shape.uniform) {
      return interpret_uniform(loop, begin, end, acc, staged, shape.slots);
    }
  }
  return interpret_generic(loop, begin, end, acc, staged);
}

}  // namespace

core::ChunkPlan plan_for(const MaterializedLoop& loop, std::uint64_t chunk_bytes) {
  return core::ChunkPlan::for_iters_per_bytes(loop.num_iterations(),
                                              loop.nest().bytes_per_iteration(),
                                              chunk_bytes);
}

namespace {

/// The strict gate: the analyzer's verdict over the claims alone.
rt::PreflightGate strict_gate(const RestructureProof& proof) {
  return proof.eligible ? rt::PreflightGate::proven()
                        : rt::PreflightGate::refused(proof.reason);
}

/// The certificate-aware gate for a ring of `workers`: a certificate proving
/// the staged bytes write-free (or token-ordered at this width) overturns a
/// strict refusal.
rt::PreflightGate ring_gate(const RestructureProof& proof,
                            std::uint64_t workers,
                            std::vector<std::string>* certified) {
  if (!proof.eligible && proof.certificate &&
      proof.certificate->certifies_staging(workers)) {
    if (certified != nullptr) {
      *certified = proof.certificate->certified_operands(workers);
    }
    return rt::PreflightGate::proven();
  }
  return strict_gate(proof);
}

}  // namespace

rt::PreflightGate gate_for(const MaterializedLoop& loop, std::uint64_t chunk_bytes) {
  return strict_gate(
      loop.restructure_proof(plan_for(loop, chunk_bytes).iters_per_chunk()));
}

rt::PreflightGate gate_for(const MaterializedLoop& loop,
                           std::uint64_t chunk_bytes, std::uint64_t workers,
                           std::vector<std::string>* certified) {
  return ring_gate(
      loop.restructure_proof(plan_for(loop, chunk_bytes).iters_per_chunk()),
      workers, certified);
}

std::optional<ReductionOperand> find_reduction_operand(
    const loopir::LoopSpec& spec) {
  common::DiagnosticList diags;
  for (const analysis::OperandClass& c :
       analysis::classify_operands(spec, diags)) {
    if (c.reduction()) return ReductionOperand{c.name, c.reduce_op, c.kind()};
  }
  return std::nullopt;
}

namespace {

/// Sequential interpretation against the arrays' CURRENT contents — the
/// pipeline paths reset and checksum at chain level, so the per-loop entry
/// point's reset and checksum are split out.
ExecResult reference_no_reset(MaterializedLoop& loop) {
  ExecResult result;
  result.total_iters = loop.num_iterations();
  result.iters_per_chunk = result.total_iters;
  common::Stopwatch watch;
  result.digest = interpret_span(loop, 0, result.total_iters,
                                 MaterializedLoop::kAccSeed, nullptr);
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace

ExecResult run_reference(MaterializedLoop& loop) {
  loop.reset();
  ExecResult result = reference_no_reset(loop);
  result.rw_checksum = loop.rw_checksum();
  return result;
}

namespace {

/// One cascaded run against the arrays' CURRENT contents (see
/// reference_no_reset): the body of the per-loop run_cascaded entry point,
/// also the per-stage engine of run_pipeline_independent.
ExecResult cascaded_no_reset(MaterializedLoop& loop,
                             rt::CascadeExecutor& executor,
                             const RtOptions& opt) {
  const std::uint64_t total = loop.num_iterations();
  std::uint64_t ipc = opt.iters_per_chunk;
  if (ipc == 0) ipc = plan_for(loop, opt.chunk_bytes).iters_per_chunk();
  CASC_CHECK(ipc > 0, "iters_per_chunk must be positive");
  const std::uint64_t num_chunks = total == 0 ? 0 : (total + ipc - 1) / ipc;

  ExecResult result;
  result.total_iters = total;
  result.iters_per_chunk = ipc;
  result.num_chunks = std::max<std::uint64_t>(1, num_chunks);
  if (total == 0) {
    result.digest = MaterializedLoop::kAccSeed;
    return result;
  }

  // The loop-carried accumulator crosses chunk boundaries on the token's
  // release/acquire edge — the same edge that makes the arrays' own writes
  // visible to the next execution phase.
  std::uint64_t acc = MaterializedLoop::kAccSeed;

  auto staged_in = [&](std::uint64_t begin, std::uint64_t end) {
    return loop.staged_refs_before(end) - loop.staged_refs_before(begin);
  };

  // Helper and execution phase of chunk c run on the same worker (c mod P),
  // so the staged flags need no synchronization.
  std::vector<char> chunk_staged(num_chunks, 0);
  rt::PreflightGate gate = rt::PreflightGate::proven();
  rt::PerWorkerBuffers* buffers = nullptr;
  std::unique_ptr<rt::PerWorkerBuffers> buffers_owned;
  if (opt.helper == HelperMode::kRestructure) {
    // Prove the geometry this run executes, before sizing: the first proof
    // may restage what a certificate re-enables (growing
    // max_staged_per_iter), so the buffers are sized after it.
    gate = ring_gate(loop.restructure_proof(ipc, &result.gate_seconds),
                     executor.num_threads(), nullptr);
    const std::uint64_t capacity =
        std::max<std::uint64_t>(64, loop.max_staged_per_iter() * ipc * 8);
    buffers_owned = std::make_unique<rt::PerWorkerBuffers>(
        executor.num_threads(), capacity, ipc, opt.lookahead);
    buffers = buffers_owned.get();
  }

  auto exec = [&](std::uint64_t begin, std::uint64_t end) {
    const std::uint64_t c = begin / ipc;
    // The fail-soft context gates the staged path: a reclaimed chunk runs on
    // a non-owner thread (whose buffers these are not — and the short-circuit
    // also keeps it from touching the owner's chunk_staged slot), and a
    // suspect-staging chunk must ignore whatever its faulty helper committed.
    const rt::ExecContext& ctx = executor.current_exec_context();
    if (buffers != nullptr && !ctx.reclaimed && !ctx.staging_invalid &&
        chunk_staged[c] != 0) {
      auto cursor = buffers->for_chunk_index(c).read_cursor<std::uint64_t>(
          staged_in(begin, end));
      acc = interpret_span(loop, begin, end, acc, cursor.data());
    } else {
      acc = interpret_span(loop, begin, end, acc, nullptr);
    }
  };

  auto prefetch_helper = [&](std::uint64_t begin, std::uint64_t end,
                             const rt::TokenWatch& watch) -> bool {
    for (std::uint64_t it = begin; it < end; ++it) {
      if ((it & 0x3f) == 0 && watch.signalled()) return false;
      for (const ResolvedRef* ref = loop.refs_begin(it); ref != loop.refs_end(it);
           ++ref) {
        rt::force_load(loop.addr(*ref));
      }
    }
    return true;
  };

  auto restructure_helper = [&](std::uint64_t begin, std::uint64_t end,
                                const rt::TokenWatch& watch) -> bool {
    const std::uint64_t c = begin / ipc;
    rt::SequentialBuffer& buf = buffers->for_chunk_index(c);
    buf.reset();
    // Walk the SoA staged stream for this chunk instead of the interleaved
    // ResolvedRef records: runs of same-array full-word references become one
    // SIMD gather call each, with the byte offsets as the index vector.
    const std::uint64_t p1 = loop.staged_refs_before(end);
    std::uint64_t p = loop.staged_refs_before(begin);
    auto cursor = buf.write_cursor<std::uint64_t>(p1 - p);
    const std::uint64_t* offs = loop.staged_offsets();
    const std::uint32_t* arrs = loop.staged_arrays();
    const std::uint8_t* sizes = loop.staged_sizes();
    constexpr std::uint64_t kPoll = 1024;  // staged refs between token polls
    while (p < p1) {
      // Abandoning the uncommitted cursor discards the partial staging; the
      // execution phase falls back to gathering from the arrays.
      if (watch.signalled()) return false;
      const std::uint64_t block_end = std::min(p1, p + kPoll);
      while (p < block_end) {
        const std::uint32_t a = arrs[p];
        if (sizes[p] == 8) {
          std::uint64_t q = p + 1;
          while (q < block_end && arrs[q] == a && sizes[q] == 8) ++q;
          common::simd::gather_offsets_u64(loop.array_data(a), offs + p, q - p,
                                           cursor.reserve_span(q - p));
          cursor.advance(q - p);
          p = q;
        } else {
          // Narrow element: zero-extended little-endian load, exactly
          // MaterializedLoop::load()'s semantics.
          std::uint64_t v = 0;
          std::memcpy(&v, loop.array_data(a) + offs[p],
                      std::min<std::size_t>(sizes[p], 8));
          cursor.push(v);
          ++p;
        }
      }
    }
    cursor.commit();
    chunk_staged[c] = 1;
    return true;
  };

  if (opt.soft_budget_factor > 0.0 && opt.estimated_seq_seconds > 0.0) {
    const auto demote_ms = std::chrono::milliseconds(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(opt.soft_budget_factor *
                                     opt.estimated_seq_seconds * 1e3)));
    executor.set_soft_budget(demote_ms, 2 * demote_ms);
  }

  // Chaos arming: wrap the run's helper in the planned fault schedule.  The
  // owning HelperFn locals keep the armed wrappers alive across run().
  const bool chaos_on = opt.chaos != nullptr && !opt.chaos->empty();
  rt::HelperFn armed;

  common::Stopwatch watch;
  switch (opt.helper) {
    case HelperMode::kNone:
      if (chaos_on) {
        // No helper to fault: install a no-op one so the planned faults
        // still exercise the quarantine/backoff machinery.
        armed = opt.chaos->arm(nullptr);
        executor.run(total, ipc, exec, armed);
      } else {
        executor.run(total, ipc, exec);
      }
      break;
    case HelperMode::kPrefetch:
      if (chaos_on) {
        armed = opt.chaos->arm(prefetch_helper);
        executor.run(total, ipc, exec, armed);
      } else {
        executor.run(total, ipc, exec, prefetch_helper);
      }
      break;
    case HelperMode::kRestructure: {
      if (chaos_on) {
        armed = opt.chaos->arm(restructure_helper);
        executor.run(total, ipc, exec, armed, gate);
      } else {
        executor.run(total, ipc, exec, restructure_helper, gate);
      }
      break;
    }
  }
  result.seconds = watch.elapsed_seconds();

  const rt::RunStats& stats = executor.last_run_stats();
  result.transfers = stats.transfers;
  result.helpers_completed = stats.helpers_completed;
  result.helpers_jumped_out = stats.helpers_jumped_out;
  result.preflight_refused = stats.preflight_refused;
  result.preflight_diag = stats.preflight_diag;
  result.helper_faults = stats.helper_faults;
  result.chunks_reclaimed = stats.chunks_reclaimed;
  result.helper_retries = stats.helper_retries;
  result.stagings_invalidated = stats.stagings_invalidated;
  result.workers_quarantined = stats.workers_quarantined;
  result.demotion_level = stats.demotion_level;
  result.degraded = stats.degraded();
  result.staged_chunks = static_cast<std::uint64_t>(
      std::count(chunk_staged.begin(), chunk_staged.end(), char{1}));
  result.digest = acc;
  return result;
}

}  // namespace

ExecResult run_cascaded(MaterializedLoop& loop, rt::CascadeExecutor& executor,
                        const RtOptions& opt) {
  loop.reset();
  ExecResult result = cascaded_no_reset(loop, executor, opt);
  result.rw_checksum = loop.rw_checksum();
  return result;
}

// ---- pipelines -------------------------------------------------------------

namespace {

/// Staging state of one arena region, carried from the stage that gathered
/// it to the stages the plan lets replay it.  The executor's run() return is
/// the happens-before edge: by the time a later stage consults these, every
/// helper write of the gather stage is visible.
struct RegionState {
  std::vector<char> chunk_staged;  ///< per-chunk commit flags (gather stage)
  std::uint64_t ipc = 0;           ///< the gather stage's chunk geometry
  /// The gather ran clean: staging committed under a proven gate with no
  /// helper faults, reclaimed chunks, or invalidated stagings.  Anything
  /// less and successor stages fall back to full re-staging — reuse is
  /// health-gated on top of the plan's proof.
  bool trustworthy = false;
};

/// Runs one pipeline stage on `executor` against the chain's CURRENT array
/// state, staging through the stage's arena `region` (flat layout: staged
/// reference p of the loop lives at region + 8p, so chunk geometry never
/// shifts the bytes).  With `reuse` the stage gathers nothing and executes
/// against the staged stream `rs` describes; otherwise it stages into the
/// region itself and rewrites `rs` for its successors.
ExecResult run_stage_arena(MaterializedLoop& loop,
                           rt::CascadeExecutor& executor, const RtOptions& opt,
                           std::byte* region, RegionState& rs, bool reuse) {
  const std::uint64_t total = loop.num_iterations();
  std::uint64_t ipc = opt.iters_per_chunk;
  if (ipc == 0 && reuse) ipc = rs.ipc;  // align chunks with the gather's flags
  if (ipc == 0) ipc = plan_for(loop, opt.chunk_bytes).iters_per_chunk();
  CASC_CHECK(ipc > 0, "iters_per_chunk must be positive");
  const std::uint64_t num_chunks = total == 0 ? 0 : (total + ipc - 1) / ipc;

  ExecResult result;
  result.total_iters = total;
  result.iters_per_chunk = ipc;
  result.num_chunks = std::max<std::uint64_t>(1, num_chunks);
  if (total == 0) {
    result.digest = MaterializedLoop::kAccSeed;
    return result;
  }

  if (reuse && (rs.ipc != ipc || rs.chunk_staged.size() != num_chunks)) {
    // Geometry drifted from the gather stage; the commit flags no longer
    // map chunk-for-chunk, so fall back to gathering afresh.  Unreachable
    // under the pipeline runner (full_reuse implies the same trip/step and
    // a reuse stage adopts the gather's ipc), but cheap to keep honest.
    reuse = false;
  }
  const bool staging = opt.helper == HelperMode::kRestructure &&
                       region != nullptr && !reuse;

  std::uint64_t acc = MaterializedLoop::kAccSeed;
  std::vector<char> chunk_staged(num_chunks, 0);
  std::uint64_t* const staged_base = reinterpret_cast<std::uint64_t*>(region);

  rt::PreflightGate gate = rt::PreflightGate::proven();
  if (staging) {
    // Stage specs carry derived (hence honest) read-only claims, so the
    // strict verdict is the whole story here: no demotions exist for a
    // certificate to overturn, and the staged stream always matches the
    // plan's signature — which is what sized the region.
    gate = strict_gate(loop.restructure_proof(ipc, &result.gate_seconds));
  }

  auto exec = [&](std::uint64_t begin, std::uint64_t end) {
    const std::uint64_t c = begin / ipc;
    const rt::ExecContext& ctx = executor.current_exec_context();
    const std::uint64_t* staged = nullptr;
    if (!ctx.reclaimed && !ctx.staging_invalid) {
      if (reuse && rs.chunk_staged[c] != 0) {
        staged = staged_base + loop.staged_refs_before(begin);
      } else if (staging && chunk_staged[c] != 0) {
        staged = staged_base + loop.staged_refs_before(begin);
      }
    }
    acc = interpret_span(loop, begin, end, acc, staged);
  };

  auto prefetch_helper = [&](std::uint64_t begin, std::uint64_t end,
                             const rt::TokenWatch& watch) -> bool {
    for (std::uint64_t it = begin; it < end; ++it) {
      if ((it & 0x3f) == 0 && watch.signalled()) return false;
      for (const ResolvedRef* ref = loop.refs_begin(it); ref != loop.refs_end(it);
           ++ref) {
        rt::force_load(loop.addr(*ref));
      }
    }
    return true;
  };

  auto arena_helper = [&](std::uint64_t begin, std::uint64_t end,
                          const rt::TokenWatch& watch) -> bool {
    const std::uint64_t c = begin / ipc;
    const std::uint64_t p1 = loop.staged_refs_before(end);
    std::uint64_t p = loop.staged_refs_before(begin);
    const std::uint64_t* offs = loop.staged_offsets();
    const std::uint32_t* arrs = loop.staged_arrays();
    const std::uint8_t* sizes = loop.staged_sizes();
    constexpr std::uint64_t kPoll = 1024;  // staged refs between token polls
    while (p < p1) {
      // A jump-out abandons the partially gathered chunk; its commit flag
      // stays clear and execution falls back to direct array loads.
      if (watch.signalled()) return false;
      const std::uint64_t block_end = std::min(p1, p + kPoll);
      while (p < block_end) {
        const std::uint32_t a = arrs[p];
        if (sizes[p] == 8) {
          std::uint64_t q = p + 1;
          while (q < block_end && arrs[q] == a && sizes[q] == 8) ++q;
          common::simd::gather_offsets_u64(loop.array_data(a), offs + p, q - p,
                                           staged_base + p);
          p = q;
        } else {
          std::uint64_t v = 0;
          std::memcpy(&v, loop.array_data(a) + offs[p],
                      std::min<std::size_t>(sizes[p], 8));
          staged_base[p] = v;
          ++p;
        }
      }
    }
    chunk_staged[c] = 1;
    return true;
  };

  if (opt.soft_budget_factor > 0.0 && opt.estimated_seq_seconds > 0.0) {
    const auto demote_ms = std::chrono::milliseconds(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(opt.soft_budget_factor *
                                     opt.estimated_seq_seconds * 1e3)));
    executor.set_soft_budget(demote_ms, 2 * demote_ms);
  }

  const bool chaos_on = opt.chaos != nullptr && !opt.chaos->empty();
  rt::HelperFn armed;

  common::Stopwatch watch;
  if (staging) {
    if (chaos_on) {
      armed = opt.chaos->arm(arena_helper);
      executor.run(total, ipc, exec, armed, gate);
    } else {
      executor.run(total, ipc, exec, arena_helper, gate);
    }
  } else if (opt.helper == HelperMode::kPrefetch && !reuse) {
    if (chaos_on) {
      armed = opt.chaos->arm(prefetch_helper);
      executor.run(total, ipc, exec, armed);
    } else {
      executor.run(total, ipc, exec, prefetch_helper);
    }
  } else {
    // No helper phase: a reuse stage has nothing to gather, and a none-mode
    // (or stage-nothing) run executes straight from the arrays.
    if (chaos_on) {
      armed = opt.chaos->arm(nullptr);
      executor.run(total, ipc, exec, armed);
    } else {
      executor.run(total, ipc, exec);
    }
  }
  result.seconds = watch.elapsed_seconds();

  const rt::RunStats& stats = executor.last_run_stats();
  result.transfers = stats.transfers;
  result.helpers_completed = stats.helpers_completed;
  result.helpers_jumped_out = stats.helpers_jumped_out;
  result.preflight_refused = stats.preflight_refused;
  result.preflight_diag = stats.preflight_diag;
  result.helper_faults = stats.helper_faults;
  result.chunks_reclaimed = stats.chunks_reclaimed;
  result.helper_retries = stats.helper_retries;
  result.stagings_invalidated = stats.stagings_invalidated;
  result.workers_quarantined = stats.workers_quarantined;
  result.demotion_level = stats.demotion_level;
  result.degraded = stats.degraded();
  result.staged_chunks = static_cast<std::uint64_t>(std::count(
      reuse ? rs.chunk_staged.begin() : chunk_staged.begin(),
      reuse ? rs.chunk_staged.end() : chunk_staged.end(), char{1}));
  result.digest = acc;

  if (!reuse) {
    rs.chunk_staged = std::move(chunk_staged);
    rs.ipc = ipc;
    rs.trustworthy = staging && !stats.preflight_refused &&
                     stats.helper_faults == 0 && stats.chunks_reclaimed == 0 &&
                     stats.stagings_invalidated == 0;
  }
  return result;
}

std::uint64_t fold_chain(std::uint64_t chain, std::uint64_t digest) {
  return MaterializedLoop::mix(chain, digest);
}

}  // namespace

PipelineResult run_pipeline_reference(MaterializedPipeline& pipe) {
  pipe.reset();
  PipelineResult out;
  std::uint64_t chain = MaterializedLoop::kAccSeed;
  common::Stopwatch watch;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    PipelineStageResult stage;
    stage.name = pipe.spec().stages[k].name;
    stage.result = reference_no_reset(pipe.stage(k));
    chain = fold_chain(chain, stage.result.digest);
    out.stages.push_back(std::move(stage));
  }
  out.seconds = watch.elapsed_seconds();
  out.chain_digest = chain;
  out.rw_checksum = pipe.rw_checksum();
  return out;
}

PipelineResult run_pipeline_cascaded(MaterializedPipeline& pipe,
                                     rt::CascadeExecutor& executor,
                                     const RtOptions& opt) {
  pipe.reset();
  PipelineResult out;
  std::uint64_t chain = MaterializedLoop::kAccSeed;
  RegionState rs;
  common::Stopwatch watch;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    const analysis::StagePlan& sp = pipe.plan().stages[k];
    if (sp.region_of == k) rs = RegionState{};  // entering a fresh region
    const bool reuse = opt.helper == HelperMode::kRestructure &&
                       pipe.reuses_previous(k) && rs.trustworthy;
    PipelineStageResult stage;
    stage.name = pipe.spec().stages[k].name;
    stage.result =
        run_stage_arena(pipe.stage(k), executor, opt, pipe.region(k), rs, reuse);
    stage.reused_staging = reuse;
    if (reuse) ++out.stages_reused;
    chain = fold_chain(chain, stage.result.digest);
    out.stages.push_back(std::move(stage));
  }
  out.seconds = watch.elapsed_seconds();
  out.chain_digest = chain;
  out.rw_checksum = pipe.rw_checksum();
  return out;
}

PipelineResult run_pipeline_independent(MaterializedPipeline& pipe,
                                        unsigned num_threads,
                                        const RtOptions& opt) {
  pipe.reset();
  PipelineResult out;
  std::uint64_t chain = MaterializedLoop::kAccSeed;
  common::Stopwatch watch;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    // A fresh executor per loop: the token ring is built up and torn down
    // every stage, exactly the per-loop cost the pipeline amortizes away.
    rt::ExecutorConfig cfg;
    cfg.num_threads = num_threads;
    rt::CascadeExecutor executor(cfg);
    PipelineStageResult stage;
    stage.name = pipe.spec().stages[k].name;
    stage.result = cascaded_no_reset(pipe.stage(k), executor, opt);
    chain = fold_chain(chain, stage.result.digest);
    out.stages.push_back(std::move(stage));
  }
  out.seconds = watch.elapsed_seconds();
  out.chain_digest = chain;
  out.rw_checksum = pipe.rw_checksum();
  return out;
}

}  // namespace casc::exec
