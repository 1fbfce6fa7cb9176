// Runtime-dispatched SIMD gather kernel: one 8-byte gather by byte offset.
//
// No run path dispatches it.  The exec bridge's restructuring helper makes
// one plain load per staged value, because its staged stream interleaves
// arrays and a same-array run is often one value long.  The kernel stays for
// what measures it: perfbench's simd.gather_gbps probe, bench_rt_kernels and
// simd_kernel_test.  It has three implementations:
//
//   * scalar   — portable reference; ALSO the semantic ground truth: every
//                vector tier must produce bit-identical output (the kernel
//                moves bytes, it never computes on values, so identity is
//                exact, not approximate);
//   * AVX2     — 4-lane 64-bit gathers (VPGATHERQQ);
//   * AVX-512  — 8-lane 64-bit gathers (VPGATHERQQ zmm).
//
// The tier is selected ONCE from cpuid (GCC/Clang __builtin_cpu_supports)
// and can be forced down:
//   * CASC_NO_SIMD=1 in the environment pins the scalar tier for the whole
//     process;
//   * force_tier() clamps the active tier at runtime (tests exercise every
//     tier the host supports in one process).
//
// The vector implementations are compiled with per-function target
// attributes, so the translation unit builds with the default flags and the
// binary stays runnable on any x86-64 (or non-x86) host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace casc::common::simd {

/// Instruction-set tiers, ordered: a tier implies every lower one.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable tier name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// Best tier the host CPU supports (cpuid; cached after the first call).
[[nodiscard]] Tier detected_tier() noexcept;

/// True when CASC_NO_SIMD is set (non-empty, not "0") in the environment.
[[nodiscard]] bool no_simd_env() noexcept;

/// Tier the kernel dispatches on: detected_tier(), clamped by CASC_NO_SIMD
/// and any force_tier() override.
[[nodiscard]] Tier active_tier() noexcept;

/// Clamps the active tier (test hook; never raises above detected_tier()).
void force_tier(Tier tier) noexcept;

/// Removes the force_tier() override.
void clear_forced_tier() noexcept;

// ---- kernel ----------------------------------------------------------------

/// out[k] = the 8-byte little-endian word at base + offsets[k].
/// Every offsets[k] must satisfy offsets[k] + 8 <= size of the region.
/// Tolerates n == 0 and any alignment of its pointer operands (gathered
/// addresses are scattered by definition; the destination uses unaligned
/// stores, which are full speed on aligned addresses).
void gather_offsets_u64(const std::byte* base, const std::uint64_t* offsets,
                        std::size_t n, std::uint64_t* out) noexcept;

}  // namespace casc::common::simd
