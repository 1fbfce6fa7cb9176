// Tests for the declarative loop-spec text format: parsing, serialization
// round trips, instantiation equivalence, and error reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "casc/common/check.hpp"
#include "casc/common/diagnostic.hpp"
#include "casc/loopir/loop_spec.hpp"

namespace {

using casc::common::CheckFailure;
using casc::loopir::IndexPattern;
using casc::loopir::LayoutPolicy;
using casc::loopir::LoopNest;
using casc::loopir::LoopSpec;

constexpr const char* kGatherSpec = R"(
# X(i) = A(IJ(i)) over 1024 elements
loop gather
trip 1024
compute 12 8
layout conflicting
array X 8 1024 rw
array A 8 1024 ro
index IJ 1024 perm 42
access IJ read        # not needed explicitly, but legal
access A read via IJ
access X write
)";

TEST(LoopSpec, ParsesAllDirectives) {
  const LoopSpec spec = LoopSpec::parse(kGatherSpec);
  EXPECT_EQ(spec.name, "gather");
  EXPECT_EQ(spec.trip, 1024u);
  EXPECT_EQ(spec.step, 1u);
  EXPECT_EQ(spec.compute_cycles, 12u);
  ASSERT_TRUE(spec.restructured_compute.has_value());
  EXPECT_EQ(*spec.restructured_compute, 8u);
  EXPECT_EQ(spec.layout, LayoutPolicy::kConflicting);
  ASSERT_EQ(spec.arrays.size(), 3u);
  EXPECT_EQ(spec.arrays[0].name, "X");
  EXPECT_FALSE(spec.arrays[0].read_only);
  EXPECT_TRUE(spec.arrays[1].read_only);
  ASSERT_TRUE(spec.arrays[2].pattern.has_value());
  EXPECT_EQ(*spec.arrays[2].pattern, IndexPattern::kRandomPerm);
  EXPECT_EQ(spec.arrays[2].seed, 42u);
  ASSERT_EQ(spec.accesses.size(), 3u);
  ASSERT_TRUE(spec.accesses[1].index_via.has_value());
  EXPECT_EQ(*spec.accesses[1].index_via, "IJ");
}

TEST(LoopSpec, InstantiateProducesWorkingNest) {
  const LoopNest nest = LoopSpec::parse(kGatherSpec).instantiate();
  EXPECT_TRUE(nest.finalized());
  EXPECT_EQ(nest.num_iterations(), 1024u);
  EXPECT_EQ(nest.compute_cycles(), 12u);
  EXPECT_EQ(nest.restructured_compute_cycles(), 8u);
  EXPECT_EQ(nest.num_arrays(), 3u);
  std::vector<casc::loopir::Ref> refs;
  nest.refs_for_iteration(0, refs);
  EXPECT_FALSE(refs.empty());
}

TEST(LoopSpec, RoundTripThroughText) {
  const LoopSpec original = LoopSpec::parse(kGatherSpec);
  const LoopSpec reparsed = LoopSpec::parse(original.to_text());
  EXPECT_EQ(reparsed.name, original.name);
  EXPECT_EQ(reparsed.trip, original.trip);
  EXPECT_EQ(reparsed.step, original.step);
  EXPECT_EQ(reparsed.layout, original.layout);
  EXPECT_EQ(reparsed.arrays.size(), original.arrays.size());
  EXPECT_EQ(reparsed.accesses.size(), original.accesses.size());
  // Instantiations must produce identical reference streams.
  const auto a = original.instantiate().all_refs();
  const auto b = reparsed.instantiate().all_refs();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mem.addr, b[i].mem.addr);
  }
}

TEST(LoopSpec, StrideOffsetAndStepRoundTrip) {
  const char* text = R"(
loop strided
trip 128 4
compute 3
array A 4 4096 ro
access A read stride 2 offset -1
)";
  const LoopSpec spec = LoopSpec::parse(text);
  EXPECT_EQ(spec.step, 4u);
  EXPECT_EQ(spec.accesses[0].stride, 2);
  EXPECT_EQ(spec.accesses[0].offset, -1);
  const LoopSpec again = LoopSpec::parse(spec.to_text());
  EXPECT_EQ(again.accesses[0].stride, 2);
  EXPECT_EQ(again.accesses[0].offset, -1);
  EXPECT_EQ(again.step, 4u);
}

TEST(LoopSpec, UpdateAccessParsesAndRoundTrips) {
  const char* text = R"(
loop hist
trip 256
array H 8 64 rw
index B 256 random 3
access H update sum via B
)";
  const LoopSpec spec = LoopSpec::parse(text);
  ASSERT_EQ(spec.accesses.size(), 1u);
  ASSERT_TRUE(spec.accesses[0].update.has_value());
  EXPECT_EQ(*spec.accesses[0].update, casc::loopir::ReduceOp::kSum);
  // An update is a read-modify-write: it reads AND writes its element.
  EXPECT_TRUE(spec.accesses[0].reads());
  EXPECT_TRUE(spec.accesses[0].writes());
  const LoopSpec again = LoopSpec::parse(spec.to_text());
  ASSERT_EQ(again.accesses.size(), 1u);
  ASSERT_TRUE(again.accesses[0].update.has_value());
  EXPECT_EQ(*again.accesses[0].update, casc::loopir::ReduceOp::kSum);
  ASSERT_TRUE(again.accesses[0].index_via.has_value());
  EXPECT_EQ(*again.accesses[0].index_via, "B");
}

TEST(LoopSpec, UpdateLowersToReadThenWritePair) {
  // `update` must instantiate exactly like an explicit read followed by a
  // write of the same element, so the digest semantics of a reduction loop
  // are pinned by the existing read/write rules.
  const char* updated = R"(
loop u
trip 128
array H 8 32 rw
index B 128 random 9
access H update sum via B
)";
  const char* lowered = R"(
loop u
trip 128
array H 8 32 rw
index B 128 random 9
access H read via B
access H write via B
)";
  const auto a = LoopSpec::parse(updated).instantiate().all_refs();
  const auto b = LoopSpec::parse(lowered).instantiate().all_refs();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mem.addr, b[i].mem.addr);
    EXPECT_EQ(a[i].mem.type, b[i].mem.type);
  }
}

TEST(LoopSpec, MinAndMaxUpdateOperatorsParse) {
  const LoopSpec spec = LoopSpec::parse(
      "loop mm\ntrip 16\narray A 8 16 rw\narray Z 8 16 rw\n"
      "access A update min\naccess Z update max\n");
  ASSERT_EQ(spec.accesses.size(), 2u);
  EXPECT_EQ(*spec.accesses[0].update, casc::loopir::ReduceOp::kMin);
  EXPECT_EQ(*spec.accesses[1].update, casc::loopir::ReduceOp::kMax);
  // to_string round-trips the operator names.
  const std::string text = spec.to_text();
  EXPECT_NE(text.find("update min"), std::string::npos);
  EXPECT_NE(text.find("update max"), std::string::npos);
}

TEST(LoopSpec, UnknownUpdateOperatorRejected) {
  try {
    LoopSpec::parse("loop x\ntrip 4\narray A 8 4 rw\naccess A update xor\n");
    FAIL() << "unknown update operator must be rejected at parse time";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("unknown update operator"),
              std::string::npos)
        << e.what();
  }
}

TEST(LoopSpec, CommentsAndBlankLinesIgnored) {
  const char* text = R"(
# leading comment

loop c   # trailing comment
trip 10
array A 4 10 ro
access A read
)";
  EXPECT_NO_THROW(LoopSpec::parse(text));
}

TEST(LoopSpec, SyntaxErrorsCarryLineNumbers) {
  try {
    LoopSpec::parse("loop x\ntrip ten\narray A 4 10 ro\naccess A read\n");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(LoopSpec, RejectsUnknownDirectivesAndValues) {
  EXPECT_THROW(LoopSpec::parse("bogus x\n"), CheckFailure);
  EXPECT_THROW(LoopSpec::parse("loop x\ntrip 4\nlayout diagonal\n"), CheckFailure);
  EXPECT_THROW(LoopSpec::parse("loop x\ntrip 4\narray A 4 10 rx\n"), CheckFailure);
  EXPECT_THROW(
      LoopSpec::parse("loop x\ntrip 4\nindex I 10 zigzag\naccess I read\n"),
      CheckFailure);
}

TEST(LoopSpec, RejectsMissingTripOrAccesses) {
  EXPECT_THROW(LoopSpec::parse("loop x\narray A 4 10 ro\naccess A read\n"),
               CheckFailure);
  EXPECT_THROW(LoopSpec::parse("loop x\ntrip 4\narray A 4 10 ro\n"), CheckFailure);
}

TEST(LoopSpec, InstantiateValidatesSemantics) {
  // Unknown array in an access.
  LoopSpec spec = LoopSpec::parse("loop x\ntrip 4\narray A 4 10 ro\naccess A read\n");
  spec.accesses[0].array = "NOPE";
  EXPECT_THROW(spec.instantiate(), CheckFailure);

  // Write to a read-only array.
  LoopSpec spec2 = LoopSpec::parse("loop x\ntrip 4\narray A 4 10 ro\naccess A read\n");
  spec2.accesses[0].is_write = true;
  EXPECT_THROW(spec2.instantiate(), CheckFailure);

  // Indirection through a plain (non-index) array.
  LoopSpec spec3 = LoopSpec::parse(
      "loop x\ntrip 4\narray A 4 10 ro\narray B 4 10 ro\naccess A read via B\n");
  EXPECT_THROW(spec3.instantiate(), CheckFailure);
}

TEST(LoopSpec, DuplicateArrayNamesRejected) {
  try {
    LoopSpec::parse(
        "loop x\ntrip 4\narray A 4 10 ro\narray A 4 10 ro\naccess A read\n");
    FAIL() << "duplicate array declaration must be rejected at parse time";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate-array"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(LoopSpec, UndeclaredArrayAccessRejected) {
  try {
    LoopSpec::parse("loop x\ntrip 4\narray A 4 10 ro\naccess B read\n");
    FAIL() << "access to an undeclared array must be rejected at parse time";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("undeclared-array"), std::string::npos)
        << e.what();
  }
}

TEST(LoopSpec, CollectingParseRecoversAndReportsEveryProblem) {
  casc::common::DiagnosticList diags;
  const LoopSpec spec = LoopSpec::parse(
      "loop x\n"
      "trip nonsense\n"          // parse-syntax
      "array A 4 10 ro\n"
      "array A 4 10 ro\n"        // duplicate-array
      "access B read\n"          // undeclared-array
      "access A read\n",
      diags);
  EXPECT_FALSE(diags.ok());
  EXPECT_EQ(spec.name, "x");
  EXPECT_EQ(spec.accesses.size(), 2u);  // best-effort spec keeps parsed lines
  std::vector<std::string> rules;
  rules.reserve(diags.items().size());
  for (const auto& d : diags.items()) rules.push_back(d.rule);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "parse-syntax"), rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "duplicate-array"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "undeclared-array"),
            rules.end());
  // No trip survived parsing, so the spec is also incomplete.
  EXPECT_NE(std::find(rules.begin(), rules.end(), "parse-incomplete"),
            rules.end());
  // Diagnostics carry the source line of the offending directive.
  for (const auto& d : diags.items()) {
    if (d.rule == "duplicate-array") {
      EXPECT_EQ(d.line, 4);
    }
    if (d.rule == "undeclared-array") {
      EXPECT_EQ(d.line, 5);
    }
  }
}

TEST(LoopSpec, CollectingParseIsCleanOnValidInput) {
  casc::common::DiagnosticList diags;
  const LoopSpec spec = LoopSpec::parse(
      "loop ok\ntrip 8\narray A 4 10 ro\naccess A read\n", diags);
  EXPECT_TRUE(diags.ok());
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(spec.trip, 8u);
}

}  // namespace
