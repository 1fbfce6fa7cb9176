#include "casc/core/chunk.hpp"

#include <algorithm>

#include "casc/common/check.hpp"

namespace casc::core {

ChunkPlan::ChunkPlan(std::uint64_t total, std::uint64_t per_chunk)
    : total_iters_(total), iters_per_chunk_(per_chunk) {
  CASC_CHECK(total_iters_ > 0, "cannot plan an empty iteration space");
  CASC_CHECK(iters_per_chunk_ > 0, "chunk must contain at least one iteration");
  num_chunks_ = (total_iters_ + iters_per_chunk_ - 1) / iters_per_chunk_;
}

ChunkPlan ChunkPlan::for_bytes(const loopir::LoopNest& nest, std::uint64_t chunk_bytes) {
  return for_iters_per_bytes(nest.num_iterations(), nest.bytes_per_iteration(),
                             chunk_bytes);
}

ChunkPlan ChunkPlan::for_iters_per_bytes(std::uint64_t total_iters,
                                         std::uint64_t bytes_per_iteration,
                                         std::uint64_t chunk_bytes) {
  CASC_CHECK(chunk_bytes > 0, "chunk size must be positive");
  const std::uint64_t per_iter = std::max<std::uint64_t>(1, bytes_per_iteration);
  const std::uint64_t iters = std::max<std::uint64_t>(1, chunk_bytes / per_iter);
  return ChunkPlan(total_iters, iters);
}

ChunkPlan ChunkPlan::for_iters(std::uint64_t total_iters, std::uint64_t iters_per_chunk) {
  return ChunkPlan(total_iters, iters_per_chunk);
}

ChunkPlan::Range ChunkPlan::chunk(std::uint64_t c) const {
  CASC_CHECK(c < num_chunks_, "chunk index out of range");
  const std::uint64_t begin = c * iters_per_chunk_;
  return {begin, std::min(begin + iters_per_chunk_, total_iters_)};
}

}  // namespace casc::core
