// Tests for the runtime's adaptive chunk-size hill climber (driven with
// synthetic measurements — fully deterministic).
#include <gtest/gtest.h>

#include <cmath>

#include "casc/common/check.hpp"
#include "casc/core/chunk.hpp"

namespace {

using casc::common::CheckFailure;
using casc::core::AdaptiveChunker;

/// Synthetic performance profile with a single optimum at `best`:
/// throughput decays with the log-distance from the optimum.
double synthetic_seconds(std::uint64_t chunk, std::uint64_t best,
                         std::uint64_t iters) {
  const double distance =
      std::abs(std::log2(static_cast<double>(chunk)) -
               std::log2(static_cast<double>(best)));
  const double throughput = 1e6 / (1.0 + 0.5 * distance);  // iters per second
  return static_cast<double>(iters) / throughput;
}

TEST(AdaptiveChunker, StartsClampedToBounds) {
  AdaptiveChunker low(1, 64, 4096);
  EXPECT_EQ(low.current(), 64u);
  AdaptiveChunker high(1 << 20, 64, 4096);
  EXPECT_EQ(high.current(), 4096u);
  AdaptiveChunker mid(1000, 64, 4096);
  EXPECT_EQ(mid.current(), 1024u);  // rounded to a power of two
}

TEST(AdaptiveChunker, RejectsDegenerateConfigs) {
  EXPECT_THROW(AdaptiveChunker(128, 0, 4096), CheckFailure);
  EXPECT_THROW(AdaptiveChunker(128, 8192, 4096), CheckFailure);
}

TEST(AdaptiveChunker, RejectsDegenerateMeasurements) {
  AdaptiveChunker c(128, 64, 4096);
  EXPECT_THROW(c.record(0.0, 100), CheckFailure);
  EXPECT_THROW(c.record(1.0, 0), CheckFailure);
}

TEST(AdaptiveChunker, ClimbsTowardTheOptimumFromBelow) {
  const std::uint64_t best = 2048;
  AdaptiveChunker c(64, 16, 1 << 16);
  for (int run = 0; run < 40; ++run) {
    c.record(synthetic_seconds(c.current(), best, 100000), 100000);
  }
  // The climber oscillates around the optimum; it must end within one
  // power-of-two step of it.
  EXPECT_GE(c.current(), best / 2);
  EXPECT_LE(c.current(), best * 2);
}

TEST(AdaptiveChunker, ClimbsTowardTheOptimumFromAbove) {
  const std::uint64_t best = 256;
  AdaptiveChunker c(1 << 15, 16, 1 << 16);
  for (int run = 0; run < 40; ++run) {
    c.record(synthetic_seconds(c.current(), best, 100000), 100000);
  }
  EXPECT_GE(c.current(), best / 2);
  EXPECT_LE(c.current(), best * 2);
}

TEST(AdaptiveChunker, StaysWithinBounds) {
  AdaptiveChunker c(128, 64, 1024);
  for (int run = 0; run < 50; ++run) {
    c.record(synthetic_seconds(c.current(), 1 << 20, 1000), 1000);  // optimum far away
    EXPECT_GE(c.current(), 64u);
    EXPECT_LE(c.current(), 1024u);
  }
}

TEST(AdaptiveChunker, SettledClimberOscillatesGently) {
  const std::uint64_t best = 1024;
  AdaptiveChunker c(1024, 16, 1 << 16);
  for (int run = 0; run < 50; ++run) {
    c.record(synthetic_seconds(c.current(), best, 100000), 100000);
  }
  const unsigned before = c.reversals();
  for (int run = 0; run < 10; ++run) {
    c.record(synthetic_seconds(c.current(), best, 100000), 100000);
  }
  // Once settled, roughly every second step reverses (ping-ponging around
  // the peak); it must not run away.
  EXPECT_LE(c.reversals() - before, 10u);
  EXPECT_GE(c.current(), best / 2);
  EXPECT_LE(c.current(), best * 2);
}

TEST(AdaptiveChunker, TracksADriftingOptimum) {
  std::uint64_t best = 256;
  AdaptiveChunker c(256, 16, 1 << 16);
  for (int run = 0; run < 30; ++run) c.record(synthetic_seconds(c.current(), best, 1000), 1000);
  best = 4096;  // the workload changed
  for (int run = 0; run < 60; ++run) c.record(synthetic_seconds(c.current(), best, 1000), 1000);
  EXPECT_GE(c.current(), best / 4);
  EXPECT_LE(c.current(), best * 4);
}

}  // namespace
