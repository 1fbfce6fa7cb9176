#include "casc/exec/bridge.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "casc/analysis/verifier.hpp"
#include "casc/common/check.hpp"
#include "casc/common/stopwatch.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/helpers.hpp"

namespace casc::exec {

namespace {

// ---- interpretation kernels ------------------------------------------------
//
// One generic interpreter plus kernels fused per operand-class shape.  The
// generic form re-branches on every ResolvedRef (is it a write?) and runs
// every chunk that has no staged stream: the reference, the prefetch mode,
// and unstaged or reclaimed chunks.  A staged chunk runs a fused kernel
// instead: it takes each slot's kind, array and width from the body's slot
// table (MaterializedLoop::body_shape()), its staged values from the
// staging region the helper gathered them into, and its other byte offsets
// from the loop's compact direct stream, so it never reads a ResolvedRef.
// Every kernel implements the same semantics (see materialize.hpp), so
// digests are bit-identical across kernels, helper modes, and SIMD tiers.

/// Little-endian load of `width` (1..8) bytes, zero-extended — exactly
/// MaterializedLoop::load()'s semantics, as one fixed-size load per width.
/// load() and store() keep their variable-length copies, so the generic
/// interpreter (and with it the sequential reference) keeps its speed.
std::uint64_t load_width(const std::byte* p, unsigned width) noexcept {
  std::uint64_t v = 0;
  switch (width) {
    case 8: std::memcpy(&v, p, 8); break;
    case 4: std::memcpy(&v, p, 4); break;
    case 2: std::memcpy(&v, p, 2); break;
    case 1: std::memcpy(&v, p, 1); break;
    default: std::memcpy(&v, p, width); break;
  }
  return v;
}

/// Little-endian store of the low `width` (1..8) bytes — exactly
/// MaterializedLoop::store()'s semantics.
void store_width(std::byte* p, std::uint64_t value, unsigned width) noexcept {
  switch (width) {
    case 8: std::memcpy(p, &value, 8); break;
    case 4: std::memcpy(p, &value, 4); break;
    case 2: std::memcpy(p, &value, 2); break;
    case 1: std::memcpy(p, &value, 1); break;
    default: std::memcpy(p, &value, width); break;
  }
}

/// Generic reference interpreter, straight from the arrays.
std::uint64_t interpret_generic(MaterializedLoop& loop, std::uint64_t begin,
                                std::uint64_t end, std::uint64_t acc) {
  for (std::uint64_t it = begin; it < end; ++it) {
    for (const ResolvedRef* ref = loop.refs_begin(it); ref != loop.refs_end(it);
         ++ref) {
      if (ref->is_write) {
        const std::uint64_t w = MaterializedLoop::mix(acc, it);
        loop.store(*ref, w);
        acc = w;
      } else {
        acc = MaterializedLoop::mix(acc, loop.load(*ref));
      }
    }
  }
  return acc;
}

/// Fused: every reference is a staged read.  Pure mix-fold over the dense
/// staged span — no address traffic, no branches, the exact loop the
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
/// dense_sum / gather_split shape).  The write's offsets are the direct
/// stream itself, one per iteration.
std::uint64_t interpret_reads_then_write(MaterializedLoop& loop,
                                         std::uint64_t begin, std::uint64_t end,
                                         std::uint64_t acc,
                                         const std::uint64_t* staged) {
  const BodyShape& shape = loop.body_shape();
  const std::uint32_t reads = shape.staged_reads;
  const BodySlot w = shape.slots.back();
  std::byte* const base = loop.array_data(w.array);
  const std::uint64_t* off = loop.direct_offsets() + loop.direct_refs_before(begin);
  for (std::uint64_t it = begin; it < end; ++it) {
    for (std::uint32_t r = 0; r < reads; ++r) {
      acc = MaterializedLoop::mix(acc, *staged++);
    }
    const std::uint64_t wv = MaterializedLoop::mix(acc, it);
    store_width(base + *off++, wv, w.width);
    acc = wv;
  }
  return acc;
}

/// Fused: any slot sequence, driven from the slot table (the spmv shape:
/// staged reads mixed with plain reads and writes).  Plain reads and writes
/// consume the direct stream in slot order.
std::uint64_t interpret_uniform(MaterializedLoop& loop, std::uint64_t begin,
                                std::uint64_t end, std::uint64_t acc,
                                const std::uint64_t* staged) {
  const std::vector<BodySlot>& slots = loop.body_shape().slots;
  const std::uint64_t* off = loop.direct_offsets() + loop.direct_refs_before(begin);
  for (std::uint64_t it = begin; it < end; ++it) {
    for (const BodySlot& slot : slots) {
      switch (slot.kind) {
        case SlotKind::kStagedRead:
          acc = MaterializedLoop::mix(acc, *staged++);
          break;
        case SlotKind::kPlainRead:
          acc = MaterializedLoop::mix(
              acc, load_width(loop.array_data(slot.array) + *off++, slot.width));
          break;
        case SlotKind::kWrite: {
          const std::uint64_t w = MaterializedLoop::mix(acc, it);
          store_width(loop.array_data(slot.array) + *off++, w, slot.width);
          acc = w;
          break;
        }
      }
    }
  }
  return acc;
}

/// Interprets the staged chunk [begin, end) against real storage, continuing
/// from `acc`.  `staged` holds the chunk's staged operand values, gathered
/// by the helper in stream order.  Dispatches once to the best kernel the
/// body shape admits.
std::uint64_t interpret_staged(MaterializedLoop& loop, std::uint64_t begin,
                               std::uint64_t end, std::uint64_t acc,
                               const std::uint64_t* staged) {
  const BodyShape& shape = loop.body_shape();
  if (shape.plain_reads == 0 && shape.writes == 0) {
    return interpret_reads_only(begin, end, acc, staged, shape.staged_reads);
  }
  if (shape.plain_reads == 0 && shape.writes == 1 &&
      shape.slots.back().kind == SlotKind::kWrite) {
    return interpret_reads_then_write(loop, begin, end, acc, staged);
  }
  return interpret_uniform(loop, begin, end, acc, staged);
}

// ---- helper phases ---------------------------------------------------------

/// The restructuring helper's gather: stages the staged operand values of
/// iterations [begin, end) into `out`, in stream order.  Each value is one
/// plain load at its staged slot's array and width.  Returns false (leaving
/// `out` partially written) when the token watch signals a jump-out; it is
/// polled at least every kPoll values.
bool gather_staged(const MaterializedLoop& loop, std::uint64_t begin,
                   std::uint64_t end, std::uint64_t* out,
                   const rt::TokenWatch& watch) {
  constexpr std::uint64_t kPoll = 1024;  // staged values between token polls
  const BodySlot* const table = loop.body_shape().staged.data();
  const std::size_t slots = loop.body_shape().staged.size();
  const std::uint64_t* offs = loop.staged_offsets();
  std::uint64_t p = loop.staged_refs_before(begin);
  const std::uint64_t p1 = loop.staged_refs_before(end);
  std::size_t s = 0;  // staged slot of entry p; begin is iteration-aligned
  while (p < p1) {
    if (watch.signalled()) return false;
    const std::uint64_t block_end = std::min(p1, p + kPoll);
    for (; p < block_end; ++p) {
      const BodySlot& slot = table[s];
      *out++ = load_width(loop.array_data(slot.array) + offs[p], slot.width);
      if (++s == slots) s = 0;
    }
  }
  return true;
}

/// The prefetch helper: touches every operand line of iterations
/// [begin, end), polling the token watch every 64 iterations.
bool prefetch_span(const MaterializedLoop& loop, std::uint64_t begin,
                   std::uint64_t end, const rt::TokenWatch& watch) {
  for (std::uint64_t it = begin; it < end; ++it) {
    if ((it & 0x3f) == 0 && watch.signalled()) return false;
    for (const ResolvedRef* ref = loop.refs_begin(it); ref != loop.refs_end(it);
         ++ref) {
      rt::force_load(loop.addr(*ref));
    }
  }
  return true;
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
  result.digest = interpret_generic(loop, 0, result.total_iters,
                                    MaterializedLoop::kAccSeed);
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

/// The one staging engine: a cascaded run of `loop` against the arrays'
/// CURRENT contents (see reference_no_reset).  run_cascaded and
/// run_pipeline_independent run it over each loop's own staging region;
/// run_pipeline_cascaded passes the chain's arena (`arena`) instead.  A
/// restructure run stages chunk c at region + 8 * staged_refs_before(begin),
/// the flat layout of the whole staged stream, and chunk c's execution phase
/// reads its values from there.
ExecResult cascaded_no_reset(MaterializedLoop& loop,
                             rt::CascadeExecutor& executor,
                             const RtOptions& opt, StagingRegion arena = {}) {
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

  // Helper and execution phase of chunk c run on the same worker (c mod P),
  // so the staged flags need no synchronization.
  std::vector<char> chunk_staged(num_chunks, 0);
  rt::PreflightGate gate = rt::PreflightGate::proven();
  std::uint64_t* staged_base = nullptr;
  if (opt.helper == HelperMode::kRestructure) {
    // Prove the geometry this run executes before locating the region: the
    // first proof may restage what a certificate re-enables, which grows the
    // staged stream.  A stage spec's claims are honest, so its proof never
    // holds a certificate and this gate is its strict verdict.
    gate = ring_gate(loop.restructure_proof(ipc, &result.gate_seconds),
                     executor.num_threads(), nullptr);
    const StagingRegion region =
        arena.data != nullptr ? arena : loop.staging_region();
    CASC_CHECK(region.bytes >= loop.staged_refs_total() * sizeof(std::uint64_t),
               "staging region does not hold the loop's staged stream");
    staged_base = reinterpret_cast<std::uint64_t*>(region.data);
  }

  auto exec = [&](std::uint64_t begin, std::uint64_t end) {
    // The fail-soft context gates the staged path: a reclaimed chunk runs on
    // a non-owner thread (the short-circuit keeps it from touching the
    // owner's chunk_staged slot), and a suspect-staging chunk must ignore
    // whatever its faulty helper committed.
    const rt::ExecContext& ctx = executor.current_exec_context();
    if (!ctx.reclaimed && !ctx.staging_invalid &&
        chunk_staged[begin / ipc] != 0) {
      acc = interpret_staged(loop, begin, end, acc,
                             staged_base + loop.staged_refs_before(begin));
    } else {
      acc = interpret_generic(loop, begin, end, acc);
    }
  };

  auto prefetch_helper = [&](std::uint64_t begin, std::uint64_t end,
                             const rt::TokenWatch& watch) -> bool {
    return prefetch_span(loop, begin, end, watch);
  };

  auto restructure_helper = [&](std::uint64_t begin, std::uint64_t end,
                                const rt::TokenWatch& watch) -> bool {
    // A jump-out abandons the partially gathered chunk; its flag stays clear
    // and execution falls back to loading from the arrays.
    if (!gather_staged(loop, begin, end,
                       staged_base + loop.staged_refs_before(begin), watch)) {
      return false;
    }
    chunk_staged[begin / ipc] = 1;
    return true;
  };

  if (opt.soft_budget_factor > 0.0 && opt.estimated_seq_seconds > 0.0) {
    const auto demote_ms = std::chrono::milliseconds(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(opt.soft_budget_factor *
                                     opt.estimated_seq_seconds * 1e3)));
    executor.set_soft_budget(demote_ms, 2 * demote_ms);
  }

  // Chaos arming: wrap the run's helper in the planned fault schedule.  The
  // owning HelperFn local keeps the armed wrapper alive across run().
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
    case HelperMode::kRestructure:
      if (chaos_on) {
        armed = opt.chaos->arm(restructure_helper);
        executor.run(total, ipc, exec, armed, gate);
      } else {
        executor.run(total, ipc, exec, restructure_helper, gate);
      }
      break;
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

std::uint64_t fold_chain(std::uint64_t chain, std::uint64_t digest) {
  return MaterializedLoop::mix(chain, digest);
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
  common::Stopwatch watch;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    std::byte* const region = pipe.region(k);
    PipelineStageResult stage;
    stage.name = pipe.spec().stages[k].name;
    stage.result = cascaded_no_reset(
        pipe.stage(k), executor, opt,
        {region, region == nullptr ? 0 : pipe.plan().arena_bytes});
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
