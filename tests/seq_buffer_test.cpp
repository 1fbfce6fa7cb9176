// Tests for the simulator's sequential-buffer address model.
#include <gtest/gtest.h>

#include <cstdint>

#include "casc/cascade/buffer_model.hpp"
#include "casc/common/check.hpp"

namespace {

using casc::cascade::SequentialBufferModel;
using casc::common::CheckFailure;

TEST(BufferModel, AllocatesSequentialAddresses) {
  SequentialBufferModel buf(0x1000, 64);
  EXPECT_EQ(buf.alloc(8), 0x1000u);
  EXPECT_EQ(buf.alloc(4), 0x1008u);
  EXPECT_EQ(buf.alloc(8), 0x100cu);
  EXPECT_EQ(buf.bytes_used(), 20u);
}

TEST(BufferModel, BeginChunkRewindsToSameAddresses) {
  SequentialBufferModel buf(0x1000, 64);
  const std::uint64_t first = buf.alloc(8);
  buf.begin_chunk();
  EXPECT_EQ(buf.alloc(8), first);  // address reuse is the whole point
}

TEST(BufferModel, OverflowThrows) {
  SequentialBufferModel buf(0x1000, 16);
  buf.alloc(8);
  buf.alloc(8);
  EXPECT_THROW(buf.alloc(1), CheckFailure);
}

TEST(BufferModel, ZeroCapacityRejected) {
  EXPECT_THROW(SequentialBufferModel(0x1000, 0), CheckFailure);
}

}  // namespace
