// Building blocks for helper phases on real hardware: forced loads (reliable
// cache warming) and span prefetchers with jump-out polling.
#pragma once

#include <cstdint>

#include "casc/common/align.hpp"
#include "casc/rt/token.hpp"

namespace casc::rt {

/// Forces an actual load of the line containing `p`.  Unlike a prefetch hint
/// this cannot be dropped by the hardware, which matters when the helper's
/// whole purpose is the cache side effect.
inline void force_load(const void* p) noexcept {
  (void)*static_cast<const volatile unsigned char*>(p);
}

/// Loads one byte of every cache line covering elements [begin, end) of
/// `data`, polling `watch` every `poll_every` lines so the helper can jump
/// out when its execution phase is signalled.  Returns true iff the whole
/// span was touched.
template <typename T>
bool prefetch_span(const T* data, std::uint64_t begin, std::uint64_t end,
                   const TokenWatch& watch, std::uint64_t poll_every = 64) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data + begin);
  const std::uint64_t total = (end - begin) * sizeof(T);
  std::uint64_t line = 0;
  const std::uint64_t lines = (total + common::kCacheLineSize - 1) / common::kCacheLineSize;
  for (; line < lines; ++line) {
    if (poll_every != 0 && line % poll_every == 0 && watch.signalled()) return false;
    force_load(bytes + line * common::kCacheLineSize);
  }
  return true;
}

}  // namespace casc::rt
