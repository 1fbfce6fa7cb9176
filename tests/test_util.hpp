// Shared helpers for the test suite: small machine configurations and loop
// nests that run in milliseconds while still exercising cache effects.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "casc/loopir/loop_nest.hpp"
#include "casc/sim/machine.hpp"

namespace casc::test {

/// FNV-1a offset basis: the starting value of an empty checksum.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Folds `bytes` bytes at `p` into the FNV-1a hash `hash`.  An independent
/// restatement of the checksum exec's rw_checksum() computes, so tests can
/// pin its value instead of only comparing two runs of it.
inline std::uint64_t fnv1a(std::uint64_t hash, const std::byte* p,
                           std::uint64_t bytes) {
  for (std::uint64_t b = 0; b < bytes; ++b) {
    hash = (hash ^ static_cast<std::uint64_t>(p[b])) * 0x100000001b3ull;
  }
  return hash;
}

/// Calls `fn` `calls` times on each of `threads` threads at once and counts
/// the calls that returned something other than `want`.
template <typename Fn>
std::uint64_t count_mismatched_calls(unsigned threads, unsigned calls,
                                     std::uint64_t want, const Fn& fn) {
  std::atomic<std::uint64_t> mismatched{0};
  {
    std::vector<std::jthread> pool;  // joined when the block ends
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (unsigned i = 0; i < calls; ++i) {
          if (fn() != want) mismatched.fetch_add(1);
        }
      });
    }
  }
  return mismatched.load();
}

/// A loop's result as the test-side interpreter computes it.
struct OracleResult {
  std::uint64_t digest = 0;
  std::uint64_t rw_checksum = 0;
};

/// Test-side interpreter: the semantics in casc/exec/materialize.hpp,
/// restated over the nest's own reference stream (refs_for_iteration) so
/// that it shares no code with casc_exec's interpreters.  `data` holds each
/// array's storage by array id: the arrays of a freshly materialized loop,
/// which this rewrites.  One accumulator runs across the loop; a read mixes
/// in the min(size, 8)-byte little-endian value, a write stores
/// mix(acc, iteration) and carries it on.  The checksum is the FNV-1a over
/// the writable arrays afterwards, in array order.
inline OracleResult interpret_nest(const loopir::LoopNest& nest,
                                   const std::vector<std::byte*>& data) {
  auto mix = [](std::uint64_t acc, std::uint64_t x) {
    return (acc ^ x) * 0x100000001b3ull;
  };
  std::uint64_t acc = 0x9e3779b97f4a7c15ull;
  std::vector<loopir::Ref> refs;
  for (std::uint64_t it = 0; it < nest.num_iterations(); ++it) {
    refs.clear();
    nest.refs_for_iteration(it, refs);
    for (const loopir::Ref& ref : refs) {
      loopir::ArrayId id = 0;  // the array whose extent holds the address
      while (ref.mem.addr < nest.array_base(id) ||
             ref.mem.addr >= nest.array_base(id) + nest.array(id).size_bytes()) {
        ++id;
      }
      std::byte* const p = data[id] + (ref.mem.addr - nest.array_base(id));
      const std::size_t width = std::min<std::uint64_t>(ref.mem.size, 8);
      if (ref.mem.type == sim::AccessType::kWrite) {
        const std::uint64_t w = mix(acc, it);
        std::memcpy(p, &w, width);
        acc = w;
      } else {
        std::uint64_t v = 0;
        std::memcpy(&v, p, width);
        acc = mix(acc, v);
      }
    }
  }
  OracleResult result{acc, kFnvBasis};
  for (loopir::ArrayId id = 0; id < nest.num_arrays(); ++id) {
    if (nest.array(id).read_only) continue;
    result.rw_checksum =
        fnv1a(result.rw_checksum, data[id], nest.array(id).size_bytes());
  }
  return result;
}

/// A scaled-down two-level machine: L1 = 1 KB 2-way, L2 = 16 KB 2-way,
/// 32-byte lines, Pentium-Pro-like latencies.  Loops of a few tens of KB are
/// "large" for it, so memory behaviour shows up with tiny workloads.
inline sim::MachineConfig mini_machine(unsigned procs = 4) {
  sim::MachineConfig c;
  c.name = "mini";
  c.num_processors = procs;
  c.l1 = {"L1", 1024, 32, 2, 3};
  c.l2 = {"L2", 16 * 1024, 32, 2, 7};
  c.memory_latency = 58;
  c.c2c_latency = 70;
  c.upgrade_latency = 12;
  c.control_transfer_cycles = 120;
  c.chunk_startup_cycles = 250;
  c.compiler_prefetch = false;
  return c;
}

/// Streaming multi-array loop: X(i) = A1(i) + ... + Ak(i), with all bases
/// conflict-aligned.  Footprint = (k+1) * n * 8 bytes.
inline loopir::LoopNest make_stream_loop(std::uint64_t n, unsigned read_streams,
                                         loopir::LayoutPolicy layout,
                                         std::uint32_t compute = 4) {
  loopir::LoopNest nest(std::string("stream").append(std::to_string(read_streams)));
  const loopir::ArrayId x = nest.add_array({"X", 8, n, false});
  for (unsigned s = 0; s < read_streams; ++s) {
    const loopir::ArrayId a =
        nest.add_array({std::string("A").append(std::to_string(s)), 8, n, true});
    nest.add_access({a, false, 1, 0, {}});
  }
  nest.add_access({x, true, 1, 0, {}});
  nest.set_trip(n);
  nest.set_compute_cycles(compute);
  nest.finalize(layout);
  return nest;
}

/// Indirect gather loop: X(i) = A(IJ(i)) with a random permutation.
inline loopir::LoopNest make_gather_loop(std::uint64_t n,
                                         loopir::LayoutPolicy layout) {
  loopir::LoopNest nest("gather");
  const loopir::ArrayId x = nest.add_array({"X", 8, n, false});
  const loopir::ArrayId a = nest.add_array({"A", 8, n, true});
  const loopir::ArrayId ij =
      nest.add_index_array("IJ", n, loopir::IndexPattern::kRandomPerm, 42);
  nest.add_access({a, false, 1, 0, ij});
  nest.add_access({x, true, 1, 0, {}});
  nest.set_trip(n);
  nest.set_compute_cycles(6);
  nest.finalize(layout);
  return nest;
}

}  // namespace casc::test
