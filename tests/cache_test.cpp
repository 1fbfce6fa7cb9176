// Unit tests for the set-associative cache: geometry, LRU, states, stats.
#include <ostream>

#include <gtest/gtest.h>

#include "casc/common/check.hpp"
#include "casc/sim/cache.hpp"

namespace {

using casc::common::CheckFailure;
using casc::sim::Cache;
using casc::sim::CacheConfig;
using casc::sim::CacheStats;
using casc::sim::LineState;
using casc::sim::Phase;

CacheConfig small_cache() {
  // 4 sets x 2 ways x 32-byte lines = 256 bytes: easy to reason about.
  return {"test", 256, 32, 2, 1};
}

TEST(CacheGeometry, NumSets) {
  EXPECT_EQ(small_cache().num_sets(), 4u);
  const CacheConfig big{"L2", 512 * 1024, 32, 4, 7};
  EXPECT_EQ(big.num_sets(), 4096u);
}

TEST(CacheGeometry, RejectsNonPow2LineSize) {
  CacheConfig bad = small_cache();
  bad.line_size = 48;
  EXPECT_THROW(Cache{bad}, CheckFailure);
}

TEST(CacheGeometry, RejectsNonWholeSetCount) {
  CacheConfig bad = small_cache();
  bad.size_bytes = 300;
  EXPECT_THROW(Cache{bad}, CheckFailure);
}

TEST(CacheGeometry, RejectsNonPow2SetCount) {
  // 3 sets: 3 * 2 * 32 = 192 bytes.
  CacheConfig bad{"test", 192, 32, 2, 1};
  EXPECT_THROW(Cache{bad}, CheckFailure);
}

TEST(CacheGeometry, SetIndexUsesLineAddressBits) {
  Cache c(small_cache());
  EXPECT_EQ(c.set_index(0), 0u);
  EXPECT_EQ(c.set_index(31), 0u);   // same line
  EXPECT_EQ(c.set_index(32), 1u);
  EXPECT_EQ(c.set_index(4 * 32), 0u);  // wraps around the 4 sets
}

TEST(CacheGeometry, LineBase) {
  Cache c(small_cache());
  EXPECT_EQ(c.line_base(0), 0u);
  EXPECT_EQ(c.line_base(33), 32u);
  EXPECT_EQ(c.line_base(63), 32u);
}

TEST(CacheBasics, MissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.peek(100).hit);
  c.insert(100, LineState::kShared);
  EXPECT_TRUE(c.peek(100).hit);
  EXPECT_EQ(c.peek(100).state, LineState::kShared);
  // Any address within the same line hits.
  EXPECT_TRUE(c.peek(96).hit);
  EXPECT_TRUE(c.peek(127).hit);
  EXPECT_FALSE(c.peek(128).hit);
}

TEST(CacheBasics, PeekDoesNotDisturbLru) {
  Cache c(small_cache());
  // Fill set 0 (addresses 0 and 128 both map to set 0).
  c.insert(0, LineState::kShared);
  c.insert(128, LineState::kShared);
  // Peek at the older line many times; LRU must be unaffected.
  for (int i = 0; i < 10; ++i) (void)c.peek(0);
  // Insert a third conflicting line; the victim must be line 0 (oldest).
  const Cache::Victim v = c.insert(256, LineState::kShared);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.line_addr, 0u);
}

TEST(CacheBasics, TouchPromotesToMru) {
  Cache c(small_cache());
  c.insert(0, LineState::kShared);
  c.insert(128, LineState::kShared);
  c.touch(0);  // 0 becomes MRU; 128 is now LRU
  const Cache::Victim v = c.insert(256, LineState::kShared);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.line_addr, 128u);
}

TEST(CacheBasics, InsertPrefersInvalidWay) {
  Cache c(small_cache());
  c.insert(0, LineState::kShared);
  // Second way of set 0 is free: no victim.
  const Cache::Victim v = c.insert(128, LineState::kShared);
  EXPECT_FALSE(v.valid);
}

TEST(CacheBasics, VictimReportsStateAtEviction) {
  Cache c(small_cache());
  c.insert(0, LineState::kModified);
  c.insert(128, LineState::kShared);
  const Cache::Victim v = c.insert(256, LineState::kShared);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.line_addr, 0u);
  EXPECT_EQ(v.state, LineState::kModified);
}

TEST(CacheBasics, InsertingPresentLineThrows) {
  Cache c(small_cache());
  c.insert(64, LineState::kShared);
  EXPECT_THROW(c.insert(64, LineState::kShared), CheckFailure);
  EXPECT_THROW(c.insert(70, LineState::kShared), CheckFailure);  // same line
}

TEST(CacheBasics, InsertInvalidStateThrows) {
  Cache c(small_cache());
  EXPECT_THROW(c.insert(0, LineState::kInvalid), CheckFailure);
}

TEST(CacheStates, SetStateAndInvalidate) {
  Cache c(small_cache());
  c.insert(0, LineState::kShared);
  c.set_state(0, LineState::kModified);
  EXPECT_EQ(c.peek(0).state, LineState::kModified);
  EXPECT_EQ(c.invalidate(0), LineState::kModified);
  EXPECT_FALSE(c.peek(0).hit);
  // Invalidating an absent line reports kInvalid and is harmless.
  EXPECT_EQ(c.invalidate(0), LineState::kInvalid);
}

TEST(CacheStates, SetStateOnAbsentLineThrows) {
  Cache c(small_cache());
  EXPECT_THROW(c.set_state(0, LineState::kModified), CheckFailure);
}

TEST(CacheStates, FlushAllCountsDirtyLines) {
  Cache c(small_cache());
  c.insert(0, LineState::kModified);
  c.insert(32, LineState::kShared);
  c.insert(64, LineState::kModified);
  EXPECT_EQ(c.valid_line_count(), 3u);
  EXPECT_EQ(c.flush_all(), 2u);
  EXPECT_EQ(c.valid_line_count(), 0u);
}

TEST(CacheCapacity, FullyAssociativeSetEvictsInLruOrder) {
  // One set, 4 ways.
  Cache c(CacheConfig{"fa", 128, 32, 4, 1});
  for (std::uint64_t i = 0; i < 4; ++i) c.insert(i * 32, LineState::kShared);
  c.touch(0);  // order now (LRU→MRU): 32, 64, 96, 0
  EXPECT_EQ(c.insert(4 * 32, LineState::kShared).line_addr, 32u);
  EXPECT_EQ(c.insert(5 * 32, LineState::kShared).line_addr, 64u);
  EXPECT_EQ(c.insert(6 * 32, LineState::kShared).line_addr, 96u);
  EXPECT_EQ(c.insert(7 * 32, LineState::kShared).line_addr, 0u);
}

TEST(CacheStatsTest, PerPhaseBucketsAreIndependent) {
  Cache c(small_cache());
  c.stats(Phase::kExec).misses = 5;
  c.stats(Phase::kHelper).misses = 7;
  EXPECT_EQ(c.stats(Phase::kExec).misses, 5u);
  EXPECT_EQ(c.stats(Phase::kHelper).misses, 7u);
  EXPECT_EQ(c.total_stats().misses, 12u);
  c.reset_stats();
  EXPECT_EQ(c.total_stats().misses, 0u);
}

TEST(CacheStatsTest, AdditionOperator) {
  CacheStats a, b;
  a.accesses = 10;
  a.misses = 4;
  b.accesses = 2;
  b.writebacks = 3;
  const CacheStats sum = a + b;
  EXPECT_EQ(sum.accesses, 12u);
  EXPECT_EQ(sum.misses, 4u);
  EXPECT_EQ(sum.writebacks, 3u);
}

TEST(CacheStatsTest, MissRate) {
  CacheStats s;
  EXPECT_DOUBLE_EQ(s.miss_rate(), 0.0);
  s.accesses = 8;
  s.misses = 2;
  EXPECT_DOUBLE_EQ(s.miss_rate(), 0.25);
}

// Property sweep: across geometries, filling a cache with exactly `capacity /
// line_size` distinct lines causes no eviction, and one more line evicts.
struct Geometry {
  std::uint64_t size;
  std::uint32_t line;
  std::uint32_t assoc;
};

/// Names each case after its fields ("s8192_l32_a2"): gtest prints the
/// parameter with this, and ctest's discovered test name carries it.
void PrintTo(const Geometry& g, std::ostream* os) {
  *os << "s" << g.size << "_l" << g.line << "_a" << g.assoc;
}

class CacheGeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometrySweep, CapacityFillsWithoutEviction) {
  const Geometry g = GetParam();
  Cache c(CacheConfig{"sweep", g.size, g.line, g.assoc, 1});
  const std::uint64_t lines = g.size / g.line;
  // Walk sequentially: consecutive lines round-robin all sets evenly.
  for (std::uint64_t i = 0; i < lines; ++i) {
    EXPECT_FALSE(c.insert(i * g.line, LineState::kShared).valid);
  }
  EXPECT_EQ(c.valid_line_count(), lines);
  EXPECT_TRUE(c.insert(lines * g.line, LineState::kShared).valid);
}

TEST_P(CacheGeometrySweep, SequentialReuseAllHits) {
  const Geometry g = GetParam();
  Cache c(CacheConfig{"sweep", g.size, g.line, g.assoc, 1});
  const std::uint64_t lines = g.size / g.line;
  for (std::uint64_t i = 0; i < lines; ++i) c.insert(i * g.line, LineState::kShared);
  for (std::uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.touch(i * g.line).hit) << "line " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(Geometry{256, 32, 2}, Geometry{256, 32, 4},
                      Geometry{1024, 32, 2}, Geometry{1024, 64, 4},
                      Geometry{8 * 1024, 32, 2},      // Pentium Pro L1
                      Geometry{32 * 1024, 32, 2},     // R10000 L1
                      Geometry{512 * 1024, 32, 4},    // Pentium Pro L2
                      Geometry{2 * 1024 * 1024, 128, 2}));  // R10000 L2

}  // namespace
