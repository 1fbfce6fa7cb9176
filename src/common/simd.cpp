#include "casc/common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define CASC_SIMD_X86 1
#include <immintrin.h>
#else
#define CASC_SIMD_X86 0
#endif

namespace casc::common::simd {

namespace {

// ---- scalar reference tier -------------------------------------------------
// The semantic ground truth: the vector tiers below must match it bit for
// bit (asserted by simd_kernel_test's randomized property test).

void gather_offsets_u64_scalar(const std::byte* base, const std::uint64_t* offsets,
                               std::size_t n, std::uint64_t* out) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    std::memcpy(out + k, base + offsets[k], 8);
  }
}

#if CASC_SIMD_X86

// ---- AVX2 tier (4 x 64-bit lanes) ------------------------------------------

__attribute__((target("avx2"))) void gather_offsets_u64_avx2(
    const std::byte* base, const std::uint64_t* offsets, std::size_t n,
    std::uint64_t* out) noexcept {
  std::size_t k = 0;
  const auto* b = reinterpret_cast<const long long*>(base);  // NOLINT(google-runtime-int)
  for (; k + 4 <= n; k += 4) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offsets + k));
    const __m256i v = _mm256_i64gather_epi64(b, vidx, 1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), v);
  }
  gather_offsets_u64_scalar(base, offsets + k, n - k, out + k);
}

// ---- AVX-512 tier (8 x 64-bit lanes) ---------------------------------------

__attribute__((target("avx512f"))) void gather_offsets_u64_avx512(
    const std::byte* base, const std::uint64_t* offsets, std::size_t n,
    std::uint64_t* out) noexcept {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512i vidx =
        _mm512_loadu_si512(reinterpret_cast<const void*>(offsets + k));
    const __m512i v = _mm512_i64gather_epi64(vidx, base, 1);
    _mm512_storeu_si512(reinterpret_cast<void*>(out + k), v);
  }
  // Masked tail: one gather instead of a scalar loop.
  if (k < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (n - k)) - 1u);
    const __m512i vidx = _mm512_maskz_loadu_epi64(m, offsets + k);
    const __m512i v = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), m,
                                                  vidx, base, 1);
    _mm512_mask_storeu_epi64(out + k, m, v);
  }
}

#endif  // CASC_SIMD_X86

// ---- tier selection --------------------------------------------------------

Tier detect() noexcept {
#if CASC_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Tier::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

// -1 = no override; otherwise the forced tier as an int.
std::atomic<int> g_forced_tier{-1};

}  // namespace

const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kAvx512:
      return "avx512";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

Tier detected_tier() noexcept {
  static const Tier tier = detect();
  return tier;
}

bool no_simd_env() noexcept {
  static const bool no_simd = [] {
    const char* v = std::getenv("CASC_NO_SIMD");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return no_simd;
}

Tier active_tier() noexcept {
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  const Tier cap = no_simd_env() ? Tier::kScalar : detected_tier();
  if (forced < 0) return cap;
  return static_cast<int>(cap) < forced ? cap : static_cast<Tier>(forced);
}

void force_tier(Tier tier) noexcept {
  g_forced_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void clear_forced_tier() noexcept {
  g_forced_tier.store(-1, std::memory_order_relaxed);
}

// ---- dispatcher ------------------------------------------------------------
// One relaxed load + switch per call, so a call pays off only over a batch.

void gather_offsets_u64(const std::byte* base, const std::uint64_t* offsets,
                        std::size_t n, std::uint64_t* out) noexcept {
#if CASC_SIMD_X86
  switch (active_tier()) {
    case Tier::kAvx512:
      gather_offsets_u64_avx512(base, offsets, n, out);
      return;
    case Tier::kAvx2:
      gather_offsets_u64_avx2(base, offsets, n, out);
      return;
    case Tier::kScalar:
      break;
  }
#endif
  gather_offsets_u64_scalar(base, offsets, n, out);
}

}  // namespace casc::common::simd
