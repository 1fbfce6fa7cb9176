// Address MODEL of the per-processor sequential buffer used by the
// restructuring helper (paper §2.1).  The helper writes operand values (and
// resolved indices) into the buffer in dynamic reference order; the execution
// phase streams them back out sequentially.  The buffer region is reused for
// every chunk a processor executes, so after the first chunk its lines tend
// to stay resident in that processor's caches.
//
// This is pure modeling state for the cache simulator: an address range with
// a cursor and byte-accounting, no payload.  On real threads the exec
// bridge's one staging engine holds the payload instead: a flat staging
// region per loop (or one arena per chain) where staged reference p lives
// at word p, so it is not reused per processor as modeled here.
#pragma once

#include <cstdint>

namespace casc::cascade {

/// Models one processor's sequential buffer as an address range with a
/// cursor.  There is no payload — the cache simulator only needs addresses.
class SequentialBufferModel {
 public:
  /// `base` must not overlap any workload array; `capacity` bounds the bytes
  /// one chunk may stage.
  SequentialBufferModel(std::uint64_t base, std::uint64_t capacity);

  /// Resets the cursor; call at the start of each helper phase.  The same
  /// addresses are handed out again, which is the point: reuse keeps the
  /// buffer cache-resident.
  void begin_chunk() noexcept { cursor_ = 0; }

  /// Reserves `size` bytes and returns their address.  Throws CheckFailure on
  /// overflow — the engine sizes the buffer from the chunk plan, so overflow
  /// indicates an engine bug, not a user error.
  std::uint64_t alloc(std::uint32_t size);

  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t bytes_used() const noexcept { return cursor_; }

 private:
  std::uint64_t base_;
  std::uint64_t capacity_;
  std::uint64_t cursor_ = 0;
};

}  // namespace casc::cascade
