#include "casc/cascade/engine.hpp"

#include <algorithm>
#include <limits>

#include "casc/analysis/refstream.hpp"
#include "casc/common/align.hpp"
#include "casc/common/check.hpp"

namespace casc::cascade {

namespace {

/// Buffers live far above the workload arrays (which start at 2^32) so the
/// regions can never overlap; per-processor bases are staggered so buffers do
/// not collide with each other or sit at array-conflicting offsets.
constexpr std::uint64_t kBufferRegionBase = 1ull << 44;
constexpr std::uint64_t kBufferRegionStride = 1ull << 26;  // 64 MiB per processor
constexpr std::uint64_t kBufferStagger = 16 * 1024 + 64;

std::string helper_names[] = {"none", "prefetch", "restructure"};

}  // namespace

std::string to_string(HelperKind kind) {
  return helper_names[static_cast<int>(kind)];
}

std::string to_string(HelperTimeModel model) {
  return model == HelperTimeModel::kBounded ? "bounded" : "unbounded";
}

std::string to_string(StartState state) {
  switch (state) {
    case StartState::kCold: return "cold";
    case StartState::kDistributed: return "distributed";
    case StartState::kWarmSingle: return "warm";
  }
  return "?";
}

CascadeSimulator::CascadeSimulator(const sim::MachineConfig& config) : config_(config) {}

const sim::Machine& CascadeSimulator::machine() const {
  CASC_CHECK(machine_ != nullptr, "no run has been performed yet");
  return *machine_;
}

std::uint64_t CascadeSimulator::buffer_bytes_per_iteration(const loopir::LoopNest& nest) {
  return core::LoopWorkload(nest).buffer_bytes_per_iteration();
}

void CascadeSimulator::apply_start_state(const core::Workload& workload,
                                         StartState start) {
  const unsigned P = machine_->num_processors();
  const std::uint64_t l2_line = config_.l2.line_size;
  if (start != StartState::kCold) {
    // Touch every data region line-by-line.  kDistributed writes
    // block-distributed across all processors (the residue of a parallel
    // section that produced the data); kWarmSingle reads everything on
    // processor 0.
    for (const core::AddressRange& range : workload.data_ranges()) {
      const std::uint64_t lines = (range.bytes + l2_line - 1) / l2_line;
      const std::uint64_t block = (lines + P - 1) / P;
      for (std::uint64_t line = 0; line < lines; ++line) {
        const std::uint64_t addr = range.base + line * l2_line;
        if (start == StartState::kDistributed) {
          const unsigned owner = static_cast<unsigned>(std::min<std::uint64_t>(
              line / std::max<std::uint64_t>(1, block), P - 1));
          machine_->write(owner, addr, 4, sim::Phase::kHelper);
        } else {
          machine_->read(0, addr, 4, sim::Phase::kHelper);
        }
      }
    }
  }
  machine_->reset_stats();
}

SequentialResult CascadeSimulator::run_sequential(const loopir::LoopNest& nest,
                                                  StartState start) {
  return run_sequential(core::LoopWorkload(nest), start);
}

SequentialResult CascadeSimulator::run_sequential(const core::Workload& workload,
                                                  StartState start) {
  machine_ = std::make_unique<sim::Machine>(config_);
  apply_start_state(workload, start);
  return sequential_impl(workload);
}

SequentialResult CascadeSimulator::continue_sequential(const loopir::LoopNest& nest) {
  return continue_sequential(core::LoopWorkload(nest));
}

SequentialResult CascadeSimulator::continue_sequential(const core::Workload& workload) {
  CASC_CHECK(machine_ != nullptr, "continue_sequential requires a prior run");
  machine_->reset_stats();
  return sequential_impl(workload);
}

SequentialResult CascadeSimulator::sequential_impl(const core::Workload& workload) {
  SequentialResult result;
  const std::uint64_t iters = workload.num_iterations();
  for (std::uint64_t it = 0; it < iters; ++it) {
    scratch_orig_.clear();
    workload.refs_for_iteration(it, scratch_orig_);
    for (const loopir::Ref& ref : scratch_orig_) {
      result.memory_cycles += machine_->access(0, ref.mem, sim::Phase::kExec).latency;
    }
    result.compute_cycles += workload.compute_cycles();
  }
  result.total_cycles = result.memory_cycles + result.compute_cycles;
  result.l1 = machine_->l1_stats(sim::Phase::kExec);
  result.l2 = machine_->l2_stats(sim::Phase::kExec);
  return result;
}

void CascadeSimulator::build_helper_refs(const core::Workload& workload, HelperKind kind,
                                         std::uint64_t it, SequentialBufferModel* buf,
                                         std::vector<sim::MemRef>& out) const {
  if (kind == HelperKind::kNone) return;
  scratch_orig_.clear();
  workload.refs_for_iteration(it, scratch_orig_);
  for (std::size_t r = 0; r < scratch_orig_.size(); ++r) {
    const loopir::Ref& ref = scratch_orig_[r];
    // Both helpers load every operand line (a prefetch; write targets are
    // fetched as reads and upgraded cheaply at execution time).
    out.push_back({ref.mem.addr, ref.mem.size, sim::AccessType::kRead});
    if (kind != HelperKind::kRestructure) continue;

    if (ref.is_index_load) {
      // The index value is consumed here, in the helper.  If the dependent
      // operand is read-write we stage the resolved index for the execution
      // phase; if it is read-only the staged *value* subsumes it.
      CASC_CHECK(r + 1 < scratch_orig_.size(), "index load with no dependent operand");
      const loopir::Ref& operand = scratch_orig_[r + 1];
      if (!operand.read_only_operand) {
        out.push_back({buf->alloc(4), 4, sim::AccessType::kWrite});
      }
    } else if (ref.read_only_operand) {
      // Stage the operand value into the sequential buffer.
      out.push_back({buf->alloc(ref.mem.size), ref.mem.size, sim::AccessType::kWrite});
    }
  }
}

std::uint32_t CascadeSimulator::build_exec_refs(const core::Workload& workload,
                                                HelperKind kind, std::uint64_t it,
                                                SequentialBufferModel* buf,
                                                std::vector<sim::MemRef>& out) const {
  scratch_orig_.clear();
  workload.refs_for_iteration(it, scratch_orig_);
  if (kind != HelperKind::kRestructure) {
    for (const loopir::Ref& ref : scratch_orig_) out.push_back(ref.mem);
    return workload.compute_cycles();
  }
  // Restructured execution: read-only operands (and resolved indices for
  // read-write indirect accesses) stream out of the sequential buffer; only
  // read-write arrays are touched in place.  Index loads disappear.
  for (std::size_t r = 0; r < scratch_orig_.size(); ++r) {
    const loopir::Ref& ref = scratch_orig_[r];
    if (ref.is_index_load) {
      const loopir::Ref& operand = scratch_orig_[r + 1];
      if (!operand.read_only_operand) {
        out.push_back({buf->alloc(4), 4, sim::AccessType::kRead});
      }
      continue;
    }
    if (ref.read_only_operand) {
      out.push_back({buf->alloc(ref.mem.size), ref.mem.size, sim::AccessType::kRead});
    } else {
      out.push_back(ref.mem);
    }
  }
  return workload.restructured_compute_cycles();
}

CascadeResult CascadeSimulator::run_cascaded(const loopir::LoopNest& nest,
                                             const CascadeOptions& opt) {
  return run_cascaded(core::LoopWorkload(nest), opt);
}

CascadeResult CascadeSimulator::run_cascaded(const core::Workload& workload,
                                             const CascadeOptions& opt) {
  machine_ = std::make_unique<sim::Machine>(config_);
  apply_start_state(workload, opt.start_state);
  return cascaded_impl(workload, opt);
}

CascadeResult CascadeSimulator::continue_cascaded(const loopir::LoopNest& nest,
                                                  const CascadeOptions& opt) {
  return continue_cascaded(core::LoopWorkload(nest), opt);
}

CascadeResult CascadeSimulator::continue_cascaded(const core::Workload& workload,
                                                  const CascadeOptions& opt) {
  CASC_CHECK(machine_ != nullptr, "continue_cascaded requires a prior run");
  machine_->reset_stats();
  return cascaded_impl(workload, opt);
}

bool CascadeSimulator::verify_enabled() const {
  return verify_override_.value_or(common::verification_enabled());
}

CascadeResult CascadeSimulator::cascaded_impl(const core::Workload& workload,
                                              const CascadeOptions& requested) {
  CascadeOptions opt = requested;
  CascadeResult preflight_outcome;
  if (opt.helper == HelperKind::kRestructure && verify_enabled()) {
    // Refuse to stage operands whose read-only claim the reference stream
    // contradicts: fall back to prefetch (always semantics-preserving) and
    // carry the evidence in the result.
    analysis::RefStreamReport preflight =
        analysis::verify_ref_stream(workload, {opt.chunk_bytes});
    if (!preflight.restructure_safe) {
      opt.helper = HelperKind::kPrefetch;
      preflight_outcome.preflight_demoted = true;
      preflight_outcome.preflight_diags = preflight.diags.items();
    }
  }
  CASC_CHECK(opt.helper_lookahead >= 1, "lookahead must be at least 1");
  const unsigned P = machine_->num_processors();
  const unsigned L = opt.helper_lookahead;
  const core::ChunkPlan plan = core::ChunkPlan::for_iters_per_bytes(
      workload.num_iterations(), workload.bytes_per_iteration(), opt.chunk_bytes);
  const std::uint64_t buf_bytes_per_iter = workload.buffer_bytes_per_iteration();

  // L sequential buffers per processor: with lookahead, up to L of a
  // processor's own chunks can be staged at once, each needing its own
  // region until its execution phase drains it.
  std::vector<std::vector<SequentialBufferModel>> buffers(P);
  const std::uint64_t buf_bytes =
      std::max<std::uint64_t>(64, buf_bytes_per_iter * plan.iters_per_chunk());
  for (unsigned p = 0; p < P; ++p) {
    for (unsigned slot = 0; slot < L; ++slot) {
      buffers[p].emplace_back(kBufferRegionBase + p * kBufferRegionStride +
                                  slot * common::round_up(buf_bytes + 4096, 1 << 16) +
                                  (p + 3) * kBufferStagger,
                              buf_bytes);
    }
  }
  auto buffer_for_chunk = [&](std::uint64_t c) -> SequentialBufferModel* {
    const unsigned p = static_cast<unsigned>(c % P);
    return &buffers[p][(c / P) % L];
  };

  CascadeResult result = std::move(preflight_outcome);
  result.num_chunks = plan.num_chunks();

  const bool unbounded = opt.time_model == HelperTimeModel::kUnbounded;
  std::uint64_t token_time = 0;  // absolute cycle at which the next chunk may execute
  std::vector<std::uint64_t> avail(P, 0);  // when each processor became free to help
  // Per-chunk staging progress (iteration bound); lookahead can advance a
  // chunk's staging across several helper windows.
  std::vector<std::uint64_t> staged_until(plan.num_chunks());
  for (std::uint64_t c = 0; c < plan.num_chunks(); ++c) {
    staged_until[c] = plan.chunk(c).begin;
  }
  std::vector<sim::MemRef> refs;

  // Stages iterations of chunk `ci` on its owning processor until either the
  // chunk is fully staged or `spent` reaches `budget` (checked between
  // iterations, like the runtime's jump-out poll).  Returns true when the
  // chunk is fully staged.
  auto stage_chunk = [&](std::uint64_t ci, std::uint64_t budget, std::uint64_t& spent,
                         bool respect_budget) {
    const unsigned p = static_cast<unsigned>(ci % P);
    const core::ChunkPlan::Range range = plan.chunk(ci);
    SequentialBufferModel* buf = buffer_for_chunk(ci);
    if (staged_until[ci] == range.begin) buf->begin_chunk();
    for (std::uint64_t it = staged_until[ci]; it < range.end; ++it) {
      if (respect_budget && spent >= budget) return false;
      refs.clear();
      build_helper_refs(workload, opt.helper, it, buf, refs);
      for (const sim::MemRef& ref : refs) {
        spent += machine_->access(p, ref, sim::Phase::kHelper).latency;
      }
      staged_until[ci] = it + 1;
      ++result.helper_iters_done;
    }
    return true;
  };

  for (std::uint64_t c = 0; c < plan.num_chunks(); ++c) {
    const unsigned p = static_cast<unsigned>(c % P);
    const core::ChunkPlan::Range range = plan.chunk(c);

    // ---- helper phase ------------------------------------------------------
    const std::uint64_t window_start = avail[p];
    const std::uint64_t budget =
        unbounded ? std::numeric_limits<std::uint64_t>::max()
                  : (token_time > avail[p] ? token_time - avail[p] : 0);
    std::uint64_t helper_time = 0;
    if (opt.helper != HelperKind::kNone) {
      // The processor's own next chunk comes first; jump-out abandons it the
      // moment the token arrives (unless disabled, in which case it finishes
      // and stalls the cascade).
      const bool own_done =
          stage_chunk(c, budget, helper_time, !unbounded && opt.jump_out);
      // Leftover window: stage further-ahead own chunks (lookahead), always
      // abandoned at the token.
      if (own_done && L > 1) {
        for (unsigned k = 1; k < L; ++k) {
          const std::uint64_t ahead = c + static_cast<std::uint64_t>(k) * P;
          if (ahead >= plan.num_chunks()) break;
          if (!unbounded && helper_time >= budget) break;
          if (!stage_chunk(ahead, budget, helper_time, !unbounded)) break;
        }
      }
    }
    result.helper_iters_target += range.size();
    result.helper_cycles += helper_time;
    std::uint64_t stall = 0;
    if (!unbounded && !opt.jump_out && helper_time > budget) {
      // Without jump-out the processor finishes its helper phase even though
      // the token has arrived; the whole cascade stalls for the overrun.
      stall = helper_time - budget;
      token_time += stall;
      result.stall_cycles += stall;
    }
    if (opt.record_timeline && helper_time > 0) {
      result.timeline.push_back({p, TimelineSpan::Kind::kHelper, window_start,
                                 window_start + helper_time});
      if (stall > 0) {
        result.timeline.push_back({p, TimelineSpan::Kind::kStall, token_time - stall,
                                   token_time});
      }
    }

    // ---- execution phase -----------------------------------------------------
    std::uint64_t exec_time = 0;
    SequentialBufferModel* buf = buffer_for_chunk(c);
    buf->begin_chunk();
    for (std::uint64_t it = range.begin; it < range.end; ++it) {
      // Iterations the helper did not reach run in their original form.
      const HelperKind kind =
          it < staged_until[c] ? opt.helper : HelperKind::kNone;
      refs.clear();
      exec_time += build_exec_refs(workload, kind, it, buf, refs);
      for (const sim::MemRef& ref : refs) {
        exec_time += machine_->access(p, ref, sim::Phase::kExec).latency;
      }
    }
    result.exec_cycles += exec_time;
    if (opt.record_timeline) {
      result.timeline.push_back(
          {p, TimelineSpan::Kind::kExec, token_time, token_time + exec_time});
    }
    avail[p] = token_time + exec_time;
    token_time += exec_time;

    if (opt.charge_transfers) {
      const std::uint64_t per_chunk =
          config_.control_transfer_cycles + config_.chunk_startup_cycles;
      if (opt.record_timeline) {
        result.timeline.push_back(
            {p, TimelineSpan::Kind::kTransfer, token_time, token_time + per_chunk});
      }
      token_time += per_chunk;
      result.transfer_cycles += per_chunk;
      ++result.transfers;
    }
  }

  result.total_cycles = token_time;
  result.l1_exec = machine_->l1_stats(sim::Phase::kExec);
  result.l2_exec = machine_->l2_stats(sim::Phase::kExec);
  result.l1_helper = machine_->l1_stats(sim::Phase::kHelper);
  result.l2_helper = machine_->l2_stats(sim::Phase::kHelper);
  result.bus = machine_->bus_stats();
  return result;
}

double CascadeSimulator::speedup(const loopir::LoopNest& nest, const CascadeOptions& opt) {
  const SequentialResult seq = run_sequential(nest, opt.start_state);
  const CascadeResult casc = run_cascaded(nest, opt);
  return static_cast<double>(seq.total_cycles) / static_cast<double>(casc.total_cycles);
}

}  // namespace casc::cascade
