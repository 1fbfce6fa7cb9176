// Chunk geometry — the one vocabulary both backends speak.
//
// Cascaded execution partitions an iteration space into contiguous chunks
// (paper §2.2: sized in *bytes touched* so "a 64 KB chunk" means the same
// thing for loops with different per-iteration footprints).  The simulator,
// the analysis passes, and the exec bridge all reason about the same
// partition, so ChunkPlan — an immutable partition of [0, total) into
// chunks — lives here in the shared core rather than in either backend.
//
// The offline counterpart, casc::cascade::tune_chunk_size, sweeps a
// simulator to pick a chunk size; it ends in the same ChunkPlan, which is
// what makes sim-vs-rt cross-validation meaningful.
#pragma once

#include <cstdint>

#include "casc/loopir/loop_nest.hpp"

namespace casc::core {

/// An immutable partition of a loop's iteration space into contiguous chunks.
class ChunkPlan {
 public:
  /// Plans chunks that each touch approximately `chunk_bytes` of data,
  /// based on nest.bytes_per_iteration().  At least one iteration per chunk.
  static ChunkPlan for_bytes(const loopir::LoopNest& nest, std::uint64_t chunk_bytes);

  /// Plans chunks of exactly `iters_per_chunk` iterations (last may be short).
  static ChunkPlan for_iters(std::uint64_t total_iters, std::uint64_t iters_per_chunk);

  /// Like for_bytes(), but from raw quantities (any Workload, not just a
  /// LoopNest): chunks of ~`chunk_bytes` given `bytes_per_iteration`.
  static ChunkPlan for_iters_per_bytes(std::uint64_t total_iters,
                                       std::uint64_t bytes_per_iteration,
                                       std::uint64_t chunk_bytes);

  [[nodiscard]] std::uint64_t total_iters() const noexcept { return total_iters_; }
  [[nodiscard]] std::uint64_t iters_per_chunk() const noexcept { return iters_per_chunk_; }
  [[nodiscard]] std::uint64_t num_chunks() const noexcept { return num_chunks_; }

  /// Half-open iteration range [begin, end) of chunk `c`.
  struct Range {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
  };
  [[nodiscard]] Range chunk(std::uint64_t c) const;

 private:
  ChunkPlan(std::uint64_t total, std::uint64_t per_chunk);

  std::uint64_t total_iters_;
  std::uint64_t iters_per_chunk_;
  std::uint64_t num_chunks_;
};

}  // namespace casc::core
