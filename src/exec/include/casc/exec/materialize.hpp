// Materialization: turning a declarative loopir::LoopSpec into something the
// REAL runtime can execute.
//
// The simulator interprets a LoopNest's reference stream against a modeled
// machine; nothing ever touches memory.  MaterializedLoop closes that gap: it
// instantiates the spec (demoting false read-only claims the way the shadow
// checker does, so unsafe specs still materialize), allocates real backing
// storage for every array, fills data arrays deterministically and index
// arrays with the exact values the nest materialized, and pre-resolves the
// nest's dynamic reference stream into (array, byte-offset) pairs.  Both the
// sequential reference interpreter and the cascaded rt bridge (bridge.hpp)
// then execute the SAME resolved stream with the SAME deterministic
// semantics, so their results can be compared bit for bit.
//
// Interpretation semantics (fixed, backend-independent): one u64 accumulator
// `acc` carried across the whole loop; for each reference in body order,
//   read:  v = load(ref);            acc = mix(acc, v)
//   write: w = mix(acc, iteration);  store(ref, w); acc = w
// with mix(a, x) = (a ^ x) * 0x100000001b3.  Loads/stores move
// min(elem_size, 8) bytes little-endian.  Every iteration's writes depend on
// every prior reference, so any reordering or stale staged value changes the
// final digest — bit-identity across backends is a real check, not a
// coincidence.
//
// The loop also carries its restructure PROOF: the analyzer's verdict per
// executed chunk geometry, computed by the first caller that needs it and
// kept for the loop's lifetime, so a loop run many times is proven once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "casc/analysis/certifier.hpp"
#include "casc/common/aligned_alloc.hpp"
#include "casc/common/diagnostic.hpp"
#include "casc/loopir/loop_nest.hpp"
#include "casc/loopir/loop_spec.hpp"

namespace casc::exec {

namespace detail {
class ArraySnapshot;  // array_state.hpp
class StateChecksum;  // array_state.hpp
}  // namespace detail

/// One dynamic reference, resolved to real storage.  16 bytes; the resolved
/// stream is the executable form of the loop.
struct ResolvedRef {
  std::uint64_t offset = 0;   ///< byte offset within the array's storage
  std::uint32_t array = 0;    ///< loopir::ArrayId
  /// Bytes every path moves: min(elem_size, 8).
  std::uint8_t size = 0;
  bool is_write = false;
  /// Read of a proven-read-only operand (including index loads): the
  /// restructuring helper may stage its value ahead of execution.
  bool staged = false;
};

/// Operand class of one reference slot of the loop body, in body order.
enum class SlotKind : std::uint8_t {
  kStagedRead = 0,  ///< proven-read-only load; the helper may stage it
  kPlainRead = 1,   ///< load that must hit the arrays at execution time
  kWrite = 2,       ///< store (always executed in place)
};

/// One reference slot of the loop body: its operand class and where it
/// points.  Every iteration's slot `s` has this kind, array and width; only
/// the byte offset varies.
struct BodySlot {
  SlotKind kind = SlotKind::kPlainRead;
  std::uint8_t width = 0;     ///< bytes moved, ResolvedRef::size
  std::uint32_t array = 0;    ///< loopir::ArrayId
  bool operator==(const BodySlot&) const = default;
};

/// The loop body's slot table.  LoopNest::refs_for_iteration emits the same
/// slot sequence in every iteration, and a restage flips whole slots, so one
/// table describes every iteration: a staged chunk is gathered and executed
/// from it plus the two offset streams (the staged one and the direct one),
/// never from the ResolvedRef records (bridge.cpp).  Re-derived when a proof
/// restages the loop; empty for a loop without iterations.
struct BodyShape {
  std::vector<BodySlot> slots;    ///< one iteration's slots, in body order
  std::vector<BodySlot> staged;   ///< the kStagedRead slots alone, in order
  std::uint32_t staged_reads = 0;  ///< slot counts by kind
  std::uint32_t plain_reads = 0;
  std::uint32_t writes = 0;
};

/// Resolves an array name to externally owned backing storage of (at least)
/// `bytes` bytes.  Returning nullptr keeps the array loop-owned; a non-null
/// pointer must stay valid for the loop's lifetime.  MaterializedPipeline
/// uses this to share one allocation per pipeline array across every stage.
using StorageBinder =
    std::function<std::byte*(const std::string& name, std::uint64_t bytes)>;

/// The restructure proof of one chunk geometry (see
/// MaterializedLoop::restructure_proof).
struct RestructureProof {
  /// Strict analysis::analyze verdict over the spec's ORIGINAL claims.
  bool eligible = false;
  /// The strict verdict's first error when it refuses.
  common::Diagnostic reason;
  /// The race certificate, held only when the strict verdict refuses on
  /// staging-claim rules alone — the one refusal a certificate can overturn.
  /// The ring width stays a query on it (certifies_staging(P)).
  std::optional<analysis::Certificate> certificate;
};

/// Room for a staged stream: the restructuring helper stages staged
/// reference p of a loop as the 8-byte word at data + 8p.
struct StagingRegion {
  std::byte* data = nullptr;
  std::uint64_t bytes = 0;
};

/// A spec with real backing arrays and a pre-resolved reference stream.
class MaterializedLoop {
 public:
  /// Instantiates via analysis::sanitized_instantiate (false read-only claims
  /// are demoted so unsafe specs still materialize — the demotions are
  /// recorded and also make the restructure gate refuse).  Throws
  /// CheckFailure on unrepairable specs or loops too large to materialize.
  explicit MaterializedLoop(const loopir::LoopSpec& spec);

  /// As above, but arrays the binder resolves use EXTERNAL storage: the loop
  /// neither fills nor resets them (their owner sequences that), while
  /// loop-owned arrays keep the deterministic fill.  The resolved stream and
  /// interpretation semantics are unchanged — only where the bytes live.
  MaterializedLoop(const loopir::LoopSpec& spec, const StorageBinder& bind);

  ~MaterializedLoop();

  [[nodiscard]] const loopir::LoopSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const loopir::LoopNest& nest() const noexcept { return nest_; }
  /// Arrays whose read-only claim was demoted at instantiation (non-empty
  /// exactly when the spec's claims were unsound).
  [[nodiscard]] const std::vector<std::string>& demoted_claims() const noexcept {
    return demoted_;
  }

  [[nodiscard]] std::uint64_t num_iterations() const noexcept {
    return iter_offsets_.size() - 1;
  }

  /// Restores every writable LOOP-OWNED array to its deterministic initial
  /// contents by copying back the bytes the constructor's fill wrote (a copy
  /// taken once, at construction, and never written again).  Read-only
  /// arrays keep that fill, which no run changes: the interpreter stores
  /// only through write references, and a nest array with a write reference
  /// is never read-only.  Each per-loop run_* entry point calls this, so
  /// repeated runs are independent.  Externally bound arrays are untouched:
  /// their owner (the pipeline) decides when the chain's state restarts.
  void reset();

  /// The restructure proof for chunks of `iters_per_chunk` iterations (any
  /// count >= num_iterations() is the same one-chunk geometry).  The first
  /// call for a geometry proves it: the strict analyzer at that geometry,
  /// plus the race certifier when the refusal is staging-claim failures
  /// alone.  A certificate that proves staging on some ring restages its
  /// operands (see restage()); that happens at most once, after which the
  /// staged stream never changes.  Every later call answers from the memo.
  /// Safe for concurrent callers (the first proof of a geometry runs once
  /// while the others wait for it).  `seconds` (when non-null) receives the
  /// wall time this call spent proving: exactly 0 on a memo hit.
  [[nodiscard]] const RestructureProof& restructure_proof(
      std::uint64_t iters_per_chunk, double* seconds = nullptr) const;

  /// FNV-1a over the bytes of every writable (non-read-only) array, in array
  /// order — the loop's observable output state.  The loop remembers the
  /// state it last hashed: a call that finds the same bytes returns that
  /// state's hash after one byte comparison, and any other call hashes in
  /// full, so every call returns the FNV-1a of the bytes present.  Safe for
  /// concurrent callers while no run writes the arrays.
  [[nodiscard]] std::uint64_t rw_checksum() const;

  /// The loop's own staging region, holding its whole staged stream (empty
  /// when the loop stages nothing).  Allocated by the first restructure run
  /// that stages through it, after that run's proof (a certifying proof may
  /// restage the loop and grow the stream), and kept for the loop's
  /// lifetime, across runs and pool leases.
  [[nodiscard]] StagingRegion staging_region();

  // ---- resolved stream ----------------------------------------------------

  [[nodiscard]] const ResolvedRef* refs_begin(std::uint64_t it) const noexcept {
    return refs_.data() + iter_offsets_[it];
  }
  [[nodiscard]] const ResolvedRef* refs_end(std::uint64_t it) const noexcept {
    return refs_.data() + iter_offsets_[it + 1];
  }

  /// Operand-class shape of the body (see BodyShape).
  [[nodiscard]] const BodyShape& body_shape() const noexcept { return shape_; }

  // ---- offset streams -----------------------------------------------------
  //
  // The byte offsets of the whole loop's references, split by slot class and
  // kept in stream order.  The staged stream holds the staged reads: the
  // restructuring helper loads entry p at its staged slot's array and width,
  // and iteration `it` owns entries [staged_refs_before(it),
  // staged_refs_before(it + 1)).  The direct stream holds everything else
  // (plain reads and writes), which a staged chunk's execution phase
  // addresses the same way.  staged_arrays() / staged_sizes() spell each
  // staged entry's slot out in full, for tools that walk the stream alone.

  [[nodiscard]] std::uint64_t staged_refs_before(std::uint64_t it) const noexcept {
    return it * shape_.staged_reads;
  }
  [[nodiscard]] const std::uint64_t* staged_offsets() const noexcept {
    return staged_offsets_.data();
  }
  [[nodiscard]] const std::uint32_t* staged_arrays() const noexcept {
    return staged_arrays_.data();
  }
  [[nodiscard]] const std::uint8_t* staged_sizes() const noexcept {
    return staged_sizes_.data();
  }
  [[nodiscard]] std::uint64_t staged_refs_total() const noexcept {
    return staged_offsets_.size();
  }

  [[nodiscard]] std::uint64_t direct_refs_before(std::uint64_t it) const noexcept {
    return it * (shape_.plain_reads + shape_.writes);
  }
  [[nodiscard]] const std::uint64_t* direct_offsets() const noexcept {
    return direct_offsets_.data();
  }
  [[nodiscard]] std::uint64_t direct_refs_total() const noexcept {
    return direct_offsets_.size();
  }

  // ---- interpreter building blocks ---------------------------------------

  [[nodiscard]] const std::byte* addr(const ResolvedRef& ref) const noexcept {
    return data_[ref.array] + ref.offset;
  }

  /// Base pointer of one array's backing storage (cache-line or huge-page
  /// aligned per the common allocation policy).  Loop-owned or externally
  /// bound, transparently.
  [[nodiscard]] const std::byte* array_data(loopir::ArrayId id) const noexcept {
    return data_[id];
  }
  [[nodiscard]] std::byte* array_data(loopir::ArrayId id) noexcept {
    return data_[id];
  }

  /// Little-endian load of min(size, 8) bytes, zero-extended.
  [[nodiscard]] std::uint64_t load(const ResolvedRef& ref) const noexcept;
  /// Little-endian store of the low min(size, 8) bytes.
  void store(const ResolvedRef& ref, std::uint64_t value) noexcept;

  /// The shared mix step (see the header comment).
  [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t acc,
                                                   std::uint64_t x) noexcept {
    return (acc ^ x) * 0x100000001b3ull;
  }
  /// Initial accumulator value for every run.
  static constexpr std::uint64_t kAccSeed = 0x9e3779b97f4a7c15ull;

 private:
  /// Backing bytes of one array, on the unified aligned-allocation policy:
  /// cache-line aligned, huge-page aligned + advised at >= 2 MB.
  using ArrayBytes = std::vector<std::byte, common::AlignedAllocator<std::byte>>;

  void resolve_stream();
  /// Re-enables staging for the named arrays: every non-write reference of
  /// each is marked staged and the staged stream rebuilt.  Only a proof
  /// calls this, for operands whose read-only claim the sanitizer demoted
  /// but whose staged bytes the race certifier proved write-free — the
  /// certificate, not the claim, is the safety argument.  proofs_mutex_
  /// held.
  void restage(const std::vector<std::string>& certified) const;
  /// Rebuilds everything derived from the staged flags: the body shape and
  /// both offset streams.  Checks that every iteration matches the slot
  /// table.  Called after resolve_stream() and by restage().
  void rebuild_staged_stream() const;

  loopir::LoopSpec spec_;
  std::vector<std::string> demoted_;
  loopir::LoopNest nest_;
  std::vector<ArrayBytes> storage_;   // loop-owned backing (empty when bound)
  std::vector<std::byte*> data_;      // per-array base, owned or bound
  std::vector<bool> bound_;           // array uses external storage
  // The initial bytes of the writable loop-owned arrays (see reset()).
  std::unique_ptr<const detail::ArraySnapshot> initial_;
  // The checksum over every writable array (see rw_checksum()).
  std::unique_ptr<const detail::StateChecksum> checksum_;
  std::vector<std::uint64_t> iter_offsets_;      // num_iterations + 1
  // The staged flags and everything derived from them.  Mutable because the
  // first certifying proof — reached through const gate queries — restages
  // them once; they are frozen from then on.
  mutable std::vector<ResolvedRef> refs_;        // flat, iteration-major
  mutable BodyShape shape_;
  mutable std::vector<std::uint64_t> staged_offsets_;  // staged stream
  mutable std::vector<std::uint32_t> staged_arrays_;
  mutable std::vector<std::uint8_t> staged_sizes_;
  mutable std::vector<std::uint64_t> direct_offsets_;  // direct stream
  common::AlignedStorage staging_;  // see staging_region()
  // Write-once proofs, one per executed chunk geometry (iterations per
  // chunk); std::map keeps handed-out references stable.
  mutable std::mutex proofs_mutex_;
  mutable std::map<std::uint64_t, RestructureProof> proofs_;
};

}  // namespace casc::exec
