#include "casc/exec/materialize.hpp"

#include <algorithm>
#include <cstring>

#include "casc/analysis/shadow.hpp"
#include "casc/analysis/verifier.hpp"
#include "casc/common/check.hpp"
#include "casc/common/stopwatch.hpp"
#include "array_state.hpp"

namespace casc::exec {

namespace {

/// Materialization cap: the resolved stream costs 16 bytes per reference,
/// the offset streams 8 to 13 more, and a restructured loop's staging region
/// 8 more per staged reference, so this bounds the bridge at ~620 MB —
/// far above every spec in the tree, far below anything that could take the
/// host down.
constexpr std::uint64_t kMaxResolvedRefs = 1ull << 24;

/// The rules a race certificate may overturn: the claims said read-only, and
/// the resolved addresses may prove the staged bytes write-free anyway.
/// Anything else (layout overlap, footprint escape, parse errors) is outside
/// the certificate's scope.
bool staging_claim_rule(const std::string& rule) {
  return rule == "classify-write-ro" || rule == "hazard-cross-chunk" ||
         rule == "shadow-write-ro" || rule == "shadow-hazard-cross-chunk";
}

/// Proves `spec` at `chunk_bytes`: the strict verdict, and the certificate
/// when every error is a staging-claim failure.
RestructureProof prove(const loopir::LoopSpec& spec, std::uint64_t chunk_bytes) {
  analysis::AnalyzeOptions opt;
  opt.chunk_bytes = chunk_bytes;
  const analysis::AnalysisReport report = analysis::analyze(spec, opt);
  RestructureProof proof;
  proof.eligible = report.restructure_eligible;
  if (proof.eligible) return proof;
  const common::Diagnostic* first_error = nullptr;
  bool only_staging = true;
  for (const common::Diagnostic& diag : report.diags.items()) {
    if (diag.severity != common::Severity::kError) continue;
    if (first_error == nullptr) first_error = &diag;
    if (!staging_claim_rule(diag.rule)) only_staging = false;
  }
  if (first_error != nullptr) {
    proof.reason = *first_error;
  } else {
    proof.reason.rule = "preflight-unproven";
    proof.reason.message =
        "the analysis verifier could not prove the spec restructure-eligible";
  }
  if (only_staging) {
    analysis::CertifyOptions copt;
    copt.chunk_bytes = chunk_bytes;
    proof.certificate = analysis::certify(spec, copt);
  }
  return proof;
}

}  // namespace

MaterializedLoop::MaterializedLoop(const loopir::LoopSpec& spec)
    : MaterializedLoop(spec, StorageBinder{}) {}

MaterializedLoop::MaterializedLoop(const loopir::LoopSpec& spec,
                                   const StorageBinder& bind)
    : spec_(spec), nest_(analysis::sanitized_instantiate(spec, &demoted_)) {
  const std::size_t n = nest_.num_arrays();
  storage_.resize(n);
  data_.resize(n, nullptr);
  bound_.resize(n, false);
  for (loopir::ArrayId id = 0; id < n; ++id) {
    const std::uint64_t bytes = nest_.array(id).size_bytes();
    std::byte* external =
        bind ? bind(nest_.array(id).name, bytes) : nullptr;
    if (external != nullptr) {
      data_[id] = external;
      bound_[id] = true;
    } else {
      storage_[id].assign(bytes, std::byte{0});
      data_[id] = storage_[id].data();
    }
  }
  // Every loop-owned array starts filled; reset() restores only the ones a
  // run can write, from a copy of the bytes written here.  rw_checksum()
  // hashes every writable array, owned or bound.
  std::vector<detail::ArraySpan> owned_writable;
  std::vector<detail::ArraySpan> writable;
  for (loopir::ArrayId id = 0; id < n; ++id) {
    if (!nest_.array(id).read_only) {
      writable.push_back({data_[id], nest_.array(id).size_bytes()});
    }
    if (bound_[id]) continue;
    const std::vector<std::uint32_t>& index_values = nest_.index_values(id);
    if (!index_values.empty()) {
      detail::fill_index(storage_[id].data(), nest_.array(id).elem_size,
                         index_values);
    } else {
      detail::fill_random(storage_[id].data(), storage_[id].size(), id);
    }
    if (!nest_.array(id).read_only) {
      owned_writable.push_back({storage_[id].data(), storage_[id].size()});
    }
  }
  initial_ =
      std::make_unique<const detail::ArraySnapshot>(std::move(owned_writable));
  checksum_ = std::make_unique<const detail::StateChecksum>(std::move(writable));
  resolve_stream();
}

MaterializedLoop::~MaterializedLoop() = default;

void MaterializedLoop::reset() { initial_->restore(); }

const RestructureProof& MaterializedLoop::restructure_proof(
    std::uint64_t iters_per_chunk, double* seconds) const {
  CASC_CHECK(iters_per_chunk > 0, "iters_per_chunk must be positive");
  if (seconds != nullptr) *seconds = 0.0;
  const std::uint64_t ipc = std::min(iters_per_chunk, num_iterations());
  std::lock_guard<std::mutex> lock(proofs_mutex_);
  if (const auto it = proofs_.find(ipc); it != proofs_.end()) return it->second;

  common::Stopwatch watch;
  // The analyzer plans chunks from a byte budget; ipc whole iterations of
  // this nest map back to exactly ipc (ChunkPlan::for_iters_per_bytes), so
  // the proof covers the geometry the run executes.
  RestructureProof proof =
      prove(spec_, ipc * std::max<std::uint64_t>(1, nest_.bytes_per_iteration()));
  // A certificate that proves some ring certifies EVERY stage candidate (no
  // stale pairs, and P <= every flow distance), so the restaged set is the
  // same at every width and every geometry: restaging here, once, is exact.
  // Rings the certificate does not cover refuse the gate and never stage.
  if (proof.certificate && proof.certificate->certifies_staging(1)) {
    restage(proof.certificate->certified_operands(1));
  }
  const RestructureProof& stored =
      proofs_.emplace(ipc, std::move(proof)).first->second;
  if (seconds != nullptr) *seconds = watch.elapsed_seconds();
  return stored;
}

void MaterializedLoop::restage(const std::vector<std::string>& certified) const {
  std::vector<bool> wanted(nest_.num_arrays(), false);
  for (loopir::ArrayId id = 0; id < nest_.num_arrays(); ++id) {
    for (const std::string& name : certified) {
      if (nest_.array(id).name == name) wanted[id] = true;
    }
  }
  bool changed = false;
  for (ResolvedRef& ref : refs_) {
    if (!ref.is_write && !ref.staged && wanted[ref.array]) {
      ref.staged = true;
      changed = true;
    }
  }
  if (changed) rebuild_staged_stream();
}

void MaterializedLoop::resolve_stream() {
  // Base-address table for mapping the nest's simulated addresses back to
  // (array, offset); bases never overlap (finalize assigns disjoint regions).
  struct Region {
    std::uint64_t base;
    std::uint64_t size;
    loopir::ArrayId id;
  };
  std::vector<Region> regions;
  regions.reserve(nest_.num_arrays());
  for (loopir::ArrayId id = 0; id < nest_.num_arrays(); ++id) {
    regions.push_back({nest_.array_base(id), nest_.array(id).size_bytes(), id});
  }
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) { return a.base < b.base; });
  auto resolve = [&](std::uint64_t addr) -> const Region& {
    auto it = std::upper_bound(regions.begin(), regions.end(), addr,
                               [](std::uint64_t a, const Region& r) {
                                 return a < r.base;
                               });
    CASC_CHECK(it != regions.begin(), "reference before every array base");
    const Region& region = *(it - 1);
    CASC_CHECK(addr + 1 <= region.base + region.size,
               "reference outside every array extent");
    return region;
  };

  const std::uint64_t iters = nest_.num_iterations();
  iter_offsets_.reserve(iters + 1);
  iter_offsets_.push_back(0);
  std::vector<loopir::Ref> scratch;
  for (std::uint64_t it = 0; it < iters; ++it) {
    scratch.clear();
    nest_.refs_for_iteration(it, scratch);
    CASC_CHECK(refs_.size() + scratch.size() <= kMaxResolvedRefs,
               "loop too large to materialize for the real runtime");
    for (const loopir::Ref& ref : scratch) {
      const Region& region = resolve(ref.mem.addr);
      ResolvedRef resolved;
      resolved.offset = ref.mem.addr - region.base;
      resolved.array = region.id;
      // Only the low min(elem_size, 8) bytes of an element are ever moved.
      resolved.size =
          static_cast<std::uint8_t>(std::min<std::uint64_t>(ref.mem.size, 8));
      resolved.is_write = ref.mem.type == sim::AccessType::kWrite;
      resolved.staged = !resolved.is_write &&
                        (ref.read_only_operand || ref.is_index_load);
      CASC_CHECK(resolved.offset + resolved.size <= region.size,
                 "reference straddles an array extent");
      refs_.push_back(resolved);
    }
    iter_offsets_.push_back(refs_.size());
  }
  rebuild_staged_stream();
}

void MaterializedLoop::rebuild_staged_stream() const {
  const std::uint64_t iters = num_iterations();
  shape_ = BodyShape{};
  staged_offsets_.clear();
  staged_arrays_.clear();
  staged_sizes_.clear();
  direct_offsets_.clear();
  if (iters == 0) return;

  auto slot_of = [](const ResolvedRef& ref) {
    const SlotKind kind = ref.is_write ? SlotKind::kWrite
                          : ref.staged ? SlotKind::kStagedRead
                                       : SlotKind::kPlainRead;
    return BodySlot{kind, ref.size, ref.array};
  };
  for (const ResolvedRef* ref = refs_begin(0); ref != refs_end(0); ++ref) {
    const BodySlot slot = slot_of(*ref);
    shape_.slots.push_back(slot);
    switch (slot.kind) {
      case SlotKind::kStagedRead:
        shape_.staged.push_back(slot);
        ++shape_.staged_reads;
        break;
      case SlotKind::kPlainRead: ++shape_.plain_reads; break;
      case SlotKind::kWrite: ++shape_.writes; break;
    }
  }

  const std::size_t body_len = shape_.slots.size();
  staged_offsets_.reserve(iters * shape_.staged_reads);
  staged_arrays_.reserve(iters * shape_.staged_reads);
  staged_sizes_.reserve(iters * shape_.staged_reads);
  direct_offsets_.reserve(iters * (body_len - shape_.staged_reads));
  for (std::uint64_t it = 0; it < iters; ++it) {
    CASC_CHECK(iter_offsets_[it + 1] - iter_offsets_[it] == body_len,
               "iteration body length differs from the slot table");
    for (std::size_t s = 0; s < body_len; ++s) {
      const ResolvedRef& ref = refs_[iter_offsets_[it] + s];
      CASC_CHECK(slot_of(ref) == shape_.slots[s],
                 "iteration slot differs from the slot table");
      if (ref.staged) {
        staged_offsets_.push_back(ref.offset);
        staged_arrays_.push_back(ref.array);
        staged_sizes_.push_back(ref.size);
      } else {
        direct_offsets_.push_back(ref.offset);
      }
    }
  }
}

std::uint64_t MaterializedLoop::load(const ResolvedRef& ref) const noexcept {
  std::uint64_t value = 0;
  std::memcpy(&value, addr(ref), std::min<std::size_t>(ref.size, 8));
  return value;
}

void MaterializedLoop::store(const ResolvedRef& ref, std::uint64_t value) noexcept {
  std::memcpy(data_[ref.array] + ref.offset, &value,
              std::min<std::size_t>(ref.size, 8));
}

StagingRegion MaterializedLoop::staging_region() {
  const std::uint64_t bytes = staged_refs_total() * sizeof(std::uint64_t);
  if (bytes == 0) return {};
  if (staging_.size() < bytes) staging_ = common::AlignedStorage(bytes);
  return {staging_.data(), staging_.size()};
}

std::uint64_t MaterializedLoop::rw_checksum() const { return checksum_->value(); }

}  // namespace casc::exec
