// Tests for both sequential buffers: the simulator's address model and the
// real runtime's value buffer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "casc/cascade/buffer_model.hpp"
#include "casc/common/check.hpp"
#include "casc/rt/seq_buffer.hpp"

namespace {

using casc::cascade::SequentialBufferModel;
using casc::common::CheckFailure;
using casc::rt::SequentialBuffer;

// ---- simulator address model -------------------------------------------------

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

// ---- real runtime buffer -------------------------------------------------------

TEST(RtBuffer, FifoRoundTrip) {
  SequentialBuffer buf(256);
  buf.push<double>(3.5);
  buf.push<std::int32_t>(-7);
  buf.push<double>(11.25);
  EXPECT_DOUBLE_EQ(buf.pop<double>(), 3.5);
  EXPECT_EQ(buf.pop<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(buf.pop<double>(), 11.25);
  EXPECT_TRUE(buf.drained());
}

TEST(RtBuffer, ResetRewindsBothCursors) {
  SequentialBuffer buf(64);
  buf.push<int>(1);
  buf.pop<int>();
  buf.reset();
  EXPECT_EQ(buf.bytes_written(), 0u);
  EXPECT_EQ(buf.bytes_read(), 0u);
  buf.push<int>(2);
  EXPECT_EQ(buf.pop<int>(), 2);
}

TEST(RtBuffer, OverflowAndUnderflowThrow) {
  // push()/pop() bounds are CASC_DCHECK: present in Debug/sanitizer builds,
  // compiled out of Release hot paths (push_span/pop_span stay hard-checked
  // and are covered below).
  if (!casc::common::kDcheckEnabled) {
    GTEST_SKIP() << "per-element bounds checks compiled out (CASC_DCHECK off)";
  }
  SequentialBuffer buf(64);  // rounded up to one cache line
  for (int i = 0; i < 16; ++i) buf.push<int>(i);
  EXPECT_THROW(buf.push<int>(16), CheckFailure);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(buf.pop<int>(), i);
  EXPECT_THROW(buf.pop<int>(), CheckFailure);
}

TEST(RtBuffer, ReadsCannotPassWrites) {
  if (!casc::common::kDcheckEnabled) {
    GTEST_SKIP() << "per-element bounds checks compiled out (CASC_DCHECK off)";
  }
  SequentialBuffer buf(128);
  buf.push<int>(1);
  buf.pop<int>();
  EXPECT_THROW(buf.pop<int>(), CheckFailure);  // nothing staged beyond cursor
}

TEST(RtBuffer, CapacityRoundedToCacheLines) {
  SequentialBuffer buf(1);
  EXPECT_EQ(buf.capacity() % casc::common::kCacheLineSize, 0u);
  EXPECT_GE(buf.capacity(), 1u);
}

TEST(RtBuffer, MixedTypesPreserveBytes) {
  SequentialBuffer buf(256);
  struct P {
    float x, y;
    bool operator==(const P&) const = default;
  };
  const P p{1.5f, -2.5f};
  buf.push(p);
  buf.push<std::uint64_t>(0xdeadbeefcafef00dULL);
  EXPECT_EQ(buf.pop<P>(), p);
  EXPECT_EQ(buf.pop<std::uint64_t>(), 0xdeadbeefcafef00dULL);
}

TEST(RtBuffer, ZeroCapacityRejectedBeforeAllocation) {
  EXPECT_THROW(SequentialBuffer(0), CheckFailure);
}

TEST(RtBuffer, HugeBufferIsUsable) {
  // Crosses the THP threshold: storage is huge-page aligned and advised.
  SequentialBuffer buf(SequentialBuffer::kHugePageSize);
  EXPECT_EQ(buf.capacity() % SequentialBuffer::kHugePageSize, 0u);
  buf.push<std::uint64_t>(42);
  EXPECT_EQ(buf.pop<std::uint64_t>(), 42u);
}

// ---- span API (hard-checked regardless of build type) -----------------------

TEST(RtBufferSpan, SpanRoundTrip) {
  SequentialBuffer buf(1024);
  std::vector<double> in(64);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = 0.5 * static_cast<double>(i);
  buf.push_span(in.data(), in.size());
  std::vector<double> out(in.size(), -1.0);
  buf.pop_span(out.data(), out.size());
  EXPECT_EQ(in, out);
  EXPECT_TRUE(buf.drained());
}

TEST(RtBufferSpan, SpanBoundsAreHardChecked) {
  SequentialBuffer buf(64);
  std::vector<int> big(32, 7);
  EXPECT_THROW(buf.push_span(big.data(), big.size()), CheckFailure);
  buf.push_span(big.data(), 8);
  std::vector<int> out(16);
  EXPECT_THROW(buf.pop_span(out.data(), out.size()), CheckFailure);
}

TEST(RtBufferSpan, SpansInterleaveWithScalars) {
  SequentialBuffer buf(256);
  buf.push<int>(1);
  const int vals[3] = {2, 3, 4};
  buf.push_span(vals, 3);
  EXPECT_EQ(buf.pop<int>(), 1);
  int out[3] = {};
  buf.pop_span(out, 3);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[2], 4);
}

// ---- streaming cursors -------------------------------------------------------

TEST(RtBufferCursor, WriteCursorPublishesOnlyOnCommit) {
  SequentialBuffer buf(256);
  auto cur = buf.write_cursor<double>(4);
  cur.push(1.0);
  cur.push(2.0);
  EXPECT_EQ(buf.bytes_written(), 0u);  // staged but unpublished
  cur.commit();
  EXPECT_EQ(buf.bytes_written(), 2 * sizeof(double));
  auto rd = buf.read_cursor<double>(2);
  EXPECT_DOUBLE_EQ(rd.next(), 1.0);
  EXPECT_DOUBLE_EQ(rd.next(), 2.0);
  EXPECT_TRUE(buf.drained());
}

TEST(RtBufferCursor, AbandonedCursorLeavesBufferUnchanged) {
  // The jump-out path: a helper that abandons its cursor mid-chunk must not
  // publish a partially staged buffer.
  SequentialBuffer buf(256);
  {
    auto cur = buf.write_cursor<int>(8);
    cur.push(100);
    cur.push(200);
    // destroyed without commit()
  }
  EXPECT_EQ(buf.bytes_written(), 0u);
  // Restaging from scratch works and reads back exactly the committed values.
  auto cur = buf.write_cursor<int>(8);
  for (int i = 0; i < 8; ++i) cur.push(i);
  cur.commit();
  auto rd = buf.read_cursor<int>(8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rd.next(), i);
}

TEST(RtBufferCursor, PartialFillCommitsExactlyWhatWasPushed) {
  SequentialBuffer buf(256);
  auto cur = buf.write_cursor<int>(16);
  for (int i = 0; i < 5; ++i) cur.push(i * 10);
  EXPECT_EQ(cur.count(), 5u);
  cur.commit();
  EXPECT_EQ(buf.bytes_written(), 5 * sizeof(int));
  auto rd = buf.read_cursor<int>(5);
  EXPECT_EQ(rd.remaining(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(rd.next(), i * 10);
  EXPECT_EQ(rd.remaining(), 0u);
}

TEST(RtBufferCursor, AcquisitionIsHardChecked) {
  SequentialBuffer buf(64);
  EXPECT_THROW(buf.write_cursor<double>(1000), CheckFailure);
  auto cur = buf.write_cursor<double>(4);
  cur.push(1.0);
  cur.commit();
  EXPECT_THROW(buf.read_cursor<double>(2), CheckFailure);  // only 1 staged
}

TEST(RtBufferCursor, PrefetchStaysInBounds) {
  SequentialBuffer buf(256);
  auto cur = buf.write_cursor<int>(4);
  for (int i = 0; i < 4; ++i) cur.push(i);
  cur.commit();
  auto rd = buf.read_cursor<int>(4);
  rd.prefetch(100);  // clamped to the span; must not fault
  for (int i = 0; i < 4; ++i) {
    rd.prefetch(2);
    EXPECT_EQ(rd.next(), i);
  }
  rd.prefetch(1);  // empty remainder is a no-op
}

}  // namespace
