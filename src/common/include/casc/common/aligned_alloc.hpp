// Unified aligned allocation for every staged byte in the system.
//
// The cascade's hot loops gather into staging regions and stream over
// materialized backing arrays; cache lines and the TLB both care where
// those bytes land.  This header is the single policy point:
//
//   * allocations below kHugePageThreshold are cache-line aligned (64 B) so
//     vector loads never straddle a line for size-aligned element types;
//   * allocations at or above it are huge-page aligned (2 MB) and
//     madvise(MADV_HUGEPAGE)d, so a large operand staging area costs one TLB
//     entry instead of hundreds.
//
// Two adapters over the same policy:
//
//   * AlignedStorage — RAII byte arena for code that manages its own layout
//     (the exec bridge's staging regions);
//   * AlignedAllocator<T> — std::allocator drop-in so containers
//     (exec::MaterializedLoop's backing arrays) land on the same tiers
//     without changing their call sites beyond the template argument.
//
// The madvise return value is CHECKED: a failure is counted
// (thp_advise_failures()) and surfaced once on stderr as a telemetry note
// instead of being silently swallowed — a mis-configured THP setting is a
// performance bug worth seeing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "casc/common/align.hpp"
#include "casc/common/check.hpp"

namespace casc::common {

/// Alignment tier for an allocation of `bytes`: huge-page for large buffers,
/// cache-line otherwise.
[[nodiscard]] constexpr std::size_t alignment_for_size(std::size_t bytes) noexcept {
  return bytes >= kHugePageThreshold ? kHugePageSize : kCacheLineSize;
}

/// Advises the kernel to back [p, p + bytes) with transparent huge pages.
/// Returns true when the advice was accepted (or is a no-op on this
/// platform); on failure increments the process-wide failure counter and
/// emits a one-time telemetry note on stderr.
bool advise_huge_pages(void* p, std::size_t bytes) noexcept;

/// Number of madvise(MADV_HUGEPAGE) calls that failed in this process.
/// Exposed for casc-setup and tests; a nonzero value usually means THP is
/// set to 'never' and the huge-page allocation tier is silently degraded.
[[nodiscard]] std::uint64_t thp_advise_failures() noexcept;

/// RAII byte arena on the tiered alignment policy.  The usable capacity is
/// the requested size rounded up to the chosen alignment (so the last
/// cache line / huge page is fully owned and vector kernels may run to the
/// rounded edge).
class AlignedStorage {
 public:
  AlignedStorage() noexcept = default;

  explicit AlignedStorage(std::size_t bytes)
      : align_(checked_alignment(bytes)),
        size_(round_up(bytes, align_)),
        data_(static_cast<std::byte*>(
            ::operator new[](size_, std::align_val_t{align_}))) {
    if (align_ >= kHugePageSize) (void)advise_huge_pages(data_, size_);
  }

  ~AlignedStorage() {
    if (data_ != nullptr) ::operator delete[](data_, std::align_val_t{align_});
  }

  AlignedStorage(const AlignedStorage&) = delete;
  AlignedStorage& operator=(const AlignedStorage&) = delete;
  AlignedStorage(AlignedStorage&& other) noexcept
      : align_(other.align_), size_(other.size_), data_(other.data_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  AlignedStorage& operator=(AlignedStorage&& other) noexcept {
    if (this != &other) {
      if (data_ != nullptr) ::operator delete[](data_, std::align_val_t{align_});
      align_ = other.align_;
      size_ = other.size_;
      data_ = other.data_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  /// Usable capacity: the requested size rounded up to the alignment.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t alignment() const noexcept { return align_; }

 private:
  static std::size_t checked_alignment(std::size_t bytes) {
    CASC_CHECK(bytes > 0, "aligned storage capacity must be positive");
    return alignment_for_size(bytes);
  }

  std::size_t align_ = kCacheLineSize;
  std::size_t size_ = 0;
  std::byte* data_ = nullptr;
};

/// std::allocator drop-in on the tiered alignment policy.  Stateless: the
/// alignment is recomputed from the byte count at deallocate time, so every
/// instance compares equal and containers stay swappable.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    const std::size_t align = alignment_for_size(bytes);
    T* p = static_cast<T*>(::operator new(bytes, std::align_val_t{align}));
    if (align >= kHugePageSize) (void)advise_huge_pages(p, bytes);
    return p;
  }

  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, std::align_val_t{alignment_for_size(n * sizeof(T))});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept { return false; }
};

}  // namespace casc::common
