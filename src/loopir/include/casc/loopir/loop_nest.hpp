// A small intermediate representation for the sequential loops the paper
// studies.  A LoopNest declares arrays (with element size, extent, and
// read-only-ness), a trip count/step, a per-iteration compute cost, and an
// ordered list of accesses — direct (affine in the induction variable) or
// indirect (through an index array with actual, materialized values).  From
// this the simulator obtains the dynamic reference stream, and the cascade
// engine obtains the classification it needs to build helper-phase shadows
// (which operands are read-only, which loads are index loads).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "casc/sim/access.hpp"

namespace casc::loopir {

using ArrayId = std::uint32_t;

/// How finalize() assigns base addresses to the nest's arrays.
enum class LayoutPolicy {
  /// Bases aligned to a common large power of two (1 MiB), so that equal
  /// offsets in different arrays map to the same cache set at every level —
  /// the worst case for conflict misses, and the situation the paper's
  /// sequential-buffer restructuring exists to fix.
  kConflicting,
  /// Bases staggered by distinct offsets so different arrays land in
  /// different sets; conflict misses are rare.
  kStaggered,
};

/// Declares one array operand.
struct ArraySpec {
  std::string name;
  std::uint32_t elem_size = 4;   ///< bytes per element
  std::uint64_t num_elems = 0;
  bool read_only = false;        ///< never written by the loop

  [[nodiscard]] std::uint64_t size_bytes() const noexcept {
    return static_cast<std::uint64_t>(elem_size) * num_elems;
  }
};

/// Value pattern for a materialized index array.
enum class IndexPattern {
  kIdentity,     ///< IJ[i] = i (the paper's synthetic loop)
  kStrided,      ///< IJ[i] = (i * param) — regular but non-unit gather
  kRandomPerm,   ///< random permutation of 0..n-1 — irregular, each hit once
  kRandom,       ///< uniform random values — irregular with repeats
  kBlockShuffle, ///< contiguous blocks of `param` indices in shuffled order
};

/// One static access site in the loop body.  The dynamic element index for
/// iteration i is:
///   direct:    offset + stride * i                 (into `array`)
///   indirect:  index_array[offset + stride * i]    (into `array`)
/// Out-of-range indices wrap modulo the array extent so workloads can be
/// scaled freely.
struct AccessSpec {
  ArrayId array = 0;
  bool is_write = false;
  std::int64_t stride = 1;
  std::int64_t offset = 0;
  std::optional<ArrayId> index_via;  ///< indirect: id of the index array
};

/// One dynamic reference, classified for the cascade engine.
struct Ref {
  sim::MemRef mem;
  bool read_only_operand = false;  ///< read of an array the loop never writes
  bool is_index_load = false;      ///< load of an index-array element
};

/// The loop itself.  Build with the add_* methods, then finalize() to assign
/// addresses; only then may the reference-stream queries be used.
class LoopNest {
 public:
  explicit LoopNest(std::string name);

  // ---- construction -------------------------------------------------------

  /// Declares a plain data array; returns its id.
  ArrayId add_array(const ArraySpec& spec);

  /// Declares an index array of `num_elems` 32-bit entries filled per
  /// `pattern` (seeded deterministically); returns its id.  Index arrays are
  /// always read-only.
  ArrayId add_index_array(const std::string& name, std::uint64_t num_elems,
                          IndexPattern pattern, std::uint64_t seed = 1,
                          std::uint64_t param = 1);

  /// Appends an access site to the loop body (body order is reference order).
  void add_access(const AccessSpec& spec);

  /// Sets trip count `n` and step `k` (the body runs for i = 0, k, 2k, … < n).
  void set_trip(std::uint64_t n, std::uint64_t step = 1);

  /// Per-iteration compute cost (cycles) charged in addition to memory
  /// latency; `restructured` is the (usually lower) cost once indexing work
  /// has been hoisted into the helper phase.  If `restructured` is omitted a
  /// default of `cycles - 2·(indirect accesses)` (floored at 1) is applied at
  /// finalize() time.
  void set_compute_cycles(std::uint32_t cycles,
                          std::optional<std::uint32_t> restructured = std::nullopt);

  /// Assigns base addresses starting at `region_base` per `policy` and locks
  /// the nest.  Must be called exactly once before any query below.
  void finalize(LayoutPolicy policy, std::uint64_t region_base = 1ull << 32);

  // ---- queries (finalized nests only) -------------------------------------

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] std::uint64_t step() const noexcept { return step_; }
  /// Number of executed iterations: ceil(n / step).
  [[nodiscard]] std::uint64_t num_iterations() const noexcept;
  [[nodiscard]] std::uint32_t compute_cycles() const noexcept { return compute_cycles_; }
  [[nodiscard]] std::uint32_t restructured_compute_cycles() const noexcept {
    return restructured_compute_cycles_;
  }

  [[nodiscard]] std::size_t num_arrays() const noexcept { return arrays_.size(); }
  [[nodiscard]] const ArraySpec& array(ArrayId id) const;
  [[nodiscard]] std::uint64_t array_base(ArrayId id) const;
  [[nodiscard]] const std::vector<AccessSpec>& accesses() const noexcept {
    return accesses_;
  }

  /// Paper §2.2: estimated bytes of data touched by one iteration — the sum
  /// of operand and index-load footprints of all non-loop-invariant access
  /// sites.  Drives chunk sizing ("64 KB chunks").
  [[nodiscard]] std::uint64_t bytes_per_iteration() const noexcept;

  /// Total distinct bytes the whole loop touches (for reporting data-set
  /// sizes; counts each array once, clipped to the portion addressable by
  /// the trip count for direct accesses).
  [[nodiscard]] std::uint64_t footprint_bytes() const noexcept;

  /// Appends the ordered dynamic references of logical iteration `it`
  /// (the it-th executed iteration, i.e. induction value it*step) to `out`.
  void refs_for_iteration(std::uint64_t it, std::vector<Ref>& out) const;

  /// Convenience used by tests: materializes the full reference stream.
  [[nodiscard]] std::vector<Ref> all_refs() const;

  /// Materialized values of index array `id` (empty for non-index arrays).
  /// casc::exec fills real backing memory from these so the threaded runtime
  /// chases exactly the indices the simulator modelled.
  [[nodiscard]] const std::vector<std::uint32_t>& index_values(ArrayId id) const;

 private:
  struct IndexData {
    ArrayId array = 0;                 // which array holds these values
    std::vector<std::uint32_t> values; // materialized index values
  };

  [[nodiscard]] const IndexData* index_data_for(ArrayId id) const noexcept;
  void require_finalized() const;
  void require_not_finalized() const;

  std::string name_;
  std::uint64_t n_ = 0;
  std::uint64_t step_ = 1;
  std::uint32_t compute_cycles_ = 1;
  std::optional<std::uint32_t> restructured_override_;
  std::uint32_t restructured_compute_cycles_ = 1;
  bool finalized_ = false;

  std::vector<ArraySpec> arrays_;
  std::vector<std::uint64_t> bases_;
  std::vector<AccessSpec> accesses_;
  std::vector<IndexData> index_data_;
};

}  // namespace casc::loopir
