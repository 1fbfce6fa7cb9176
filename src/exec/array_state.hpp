// The deterministic array state a MaterializedLoop and a MaterializedPipeline
// share: how an array starts (index values, or a keyed pseudo-random fill),
// how a run's writable arrays return to that start, and how their bytes are
// checksummed.  The checksum is FNV-1a; a call whose bytes equal the state
// the same object last hashed answers with that state's recorded hash after
// one byte comparison, and any other call hashes in full.  A loop keys its
// data arrays by nest array id, a pipeline by pipeline array position;
// everything else is one implementation.  Private to casc_exec.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "casc/common/aligned_alloc.hpp"
#include "casc/common/rng.hpp"

namespace casc::exec::detail {

/// FNV-1a offset basis: the checksum of no bytes.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Folds `bytes` bytes at `p` into the FNV-1a hash `hash`, byte by byte.
inline std::uint64_t fnv1a(std::uint64_t hash, const std::byte* p,
                           std::uint64_t bytes) noexcept {
  for (std::uint64_t i = 0; i < bytes; ++i) {
    hash = (hash ^ static_cast<std::uint64_t>(p[i])) * 0x100000001b3ull;
  }
  return hash;
}

/// Index array: element i of `out` (elem_size bytes each) holds values[i] in
/// its low min(elem_size, 8) bytes, little-endian, so the runtime chases the
/// indices the simulator modelled.  The element's other bytes are untouched.
inline void fill_index(std::byte* out, std::uint32_t elem_size,
                       const std::vector<std::uint32_t>& values) noexcept {
  const std::size_t width = std::min<std::size_t>(elem_size, 8);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint64_t v = values[i];
    std::memcpy(out + i * elem_size, &v, width);
  }
}

/// Data array: `bytes` bytes of deterministic pseudo-random contents keyed
/// by `key`, so every backend, run and reset sees identical operand values.
inline void fill_random(std::byte* out, std::uint64_t bytes,
                        std::uint64_t key) noexcept {
  common::Rng rng(0xC45CADEull ^ (key + 1) * 0x9e3779b97f4a7c15ull);
  std::uint64_t pos = 0;
  while (pos < bytes) {
    const std::uint64_t word = rng.next();
    const std::size_t take = std::min<std::uint64_t>(8, bytes - pos);
    std::memcpy(out + pos, &word, take);
    pos += take;
  }
}

/// One array's bytes: its live storage and the byte count that counts.
struct ArraySpan {
  std::byte* live = nullptr;
  std::uint64_t bytes = 0;
};

/// A private copy of some arrays' initial bytes.  The owner fills its
/// arrays, then names each one a run can write as a span of declared byte
/// count > 0; the constructor copies those bytes, and restore() copies them
/// back.  The copy is written only by the constructor, so every restore()
/// returns the arrays to the bytes the fill wrote.  The live storage must
/// outlive the snapshot.
class ArraySnapshot {
 public:
  explicit ArraySnapshot(std::vector<ArraySpan> spans) : spans_(std::move(spans)) {
    std::uint64_t total = 0;
    for (const ArraySpan& span : spans_) total += span.bytes;
    if (total == 0) return;
    copy_ = common::AlignedStorage(total);
    std::byte* out = copy_.data();
    for (const ArraySpan& span : spans_) {
      std::memcpy(out, span.live, span.bytes);
      out += span.bytes;
    }
  }

  /// Copies every captured array's initial bytes back over its storage.
  void restore() const noexcept {
    const std::byte* in = copy_.data();
    for (const ArraySpan& span : spans_) {
      std::memcpy(span.live, in, span.bytes);
      in += span.bytes;
    }
  }

 private:
  std::vector<ArraySpan> spans_;
  common::AlignedStorage copy_;  // the spans' bytes, back to back
};

/// The FNV-1a checksum of some arrays, in span order, remembered against the
/// last state it hashed.  value() compares the spans byte for byte with a
/// copy of that state and, when every byte matches, returns its recorded
/// hash: the FNV-1a of bytes equal to the present ones.  Otherwise it hashes
/// the present bytes in full and records them and their hash.  So every call
/// returns the FNV-1a of the bytes present, and one that finds the state it
/// last hashed costs a memcmp instead of a byte-serial hash.  The copy is
/// allocated by the first call, so an owner that is never checksummed never
/// holds one.  The live storage must outlive the checksum.
class StateChecksum {
 public:
  explicit StateChecksum(std::vector<ArraySpan> spans) : spans_(std::move(spans)) {
    for (const ArraySpan& span : spans_) total_ += span.bytes;
  }

  /// FNV-1a over the spans' present bytes.  Safe for concurrent callers
  /// while no one writes the arrays.
  [[nodiscard]] std::uint64_t value() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (recorded_ && matches_last()) return last_hash_;
    std::uint64_t hash = kFnvBasis;
    for (const ArraySpan& span : spans_) hash = fnv1a(hash, span.live, span.bytes);
    if (!recorded_ && total_ > 0) last_ = common::AlignedStorage(total_);
    std::byte* out = last_.data();
    for (const ArraySpan& span : spans_) {
      std::memcpy(out, span.live, span.bytes);
      out += span.bytes;
    }
    last_hash_ = hash;
    recorded_ = true;
    return hash;
  }

 private:
  /// Whether every span's bytes equal the recorded copy.  mutex_ held.
  [[nodiscard]] bool matches_last() const noexcept {
    const std::byte* in = last_.data();
    for (const ArraySpan& span : spans_) {
      if (std::memcmp(span.live, in, span.bytes) != 0) return false;
      in += span.bytes;
    }
    return true;
  }

  std::vector<ArraySpan> spans_;
  std::uint64_t total_ = 0;  // the spans' byte count
  mutable std::mutex mutex_;
  // The state value() last hashed, and its hash; guarded by mutex_.
  mutable bool recorded_ = false;
  mutable common::AlignedStorage last_;  // the spans' bytes, back to back
  mutable std::uint64_t last_hash_ = kFnvBasis;
};

}  // namespace casc::exec::detail
