// Tests for casc::analysis — the static cascade-safety passes, the
// trace-backed shadow checker, the analyze() pipeline, and the JSON report.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "casc/analysis/passes.hpp"
#include "casc/analysis/shadow.hpp"
#include "casc/analysis/verifier.hpp"
#include "casc/common/check.hpp"
#include "casc/common/diagnostic.hpp"
#include "casc/core/workload.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/trace/trace.hpp"
#include "casc/wave5/parmvr.hpp"
#include "json_mini.hpp"

namespace {

using casc::analysis::AnalysisReport;
using casc::analysis::AnalyzeOptions;
using casc::analysis::analyze_text;
using casc::common::DiagnosticList;
using casc::common::Severity;
using casc::loopir::LoopSpec;

// The seeded-unsafe recurrence (tests/specs/unsafe_seeded.casc inlined so
// the test has no working-directory dependence): 'y' is claimed read-only
// but the loop reads y(i-1) and writes y(i).
constexpr const char* kUnsafeSpec = R"(
loop unsafe_recurrence
trip 8192
compute 12 8
layout conflicting
array y 8 8192 ro
array coef 8 8192 ro
access coef read
access y read offset -1
access y write
)";

constexpr const char* kSafeGather = R"(
loop safe_gather
trip 4096
compute 10 6
array x 8 4096 rw
array a 8 4096 ro
index ij 4096 perm 7
access a read via ij
access x write
)";

bool has_rule(const DiagnosticList& diags, const std::string& rule,
              Severity severity) {
  return std::any_of(diags.items().begin(), diags.items().end(),
                     [&](const casc::common::Diagnostic& d) {
                       return d.rule == rule && d.severity == severity;
                     });
}

TEST(AnalysisPasses, ClassifiesOperandsAndFlagsFalseClaims) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(kUnsafeSpec, parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  DiagnosticList diags;
  const auto classes = casc::analysis::classify_operands(spec, diags);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].name, "y");
  EXPECT_TRUE(classes[0].claimed_ro);
  EXPECT_TRUE(classes[0].written);
  EXPECT_TRUE(classes[0].staged());
  EXPECT_FALSE(classes[1].written);
  EXPECT_TRUE(has_rule(diags, "classify-write-ro", Severity::kError));
}

TEST(AnalysisPasses, UnusedAndNeverWrittenAdvisories) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(
      "loop adv\ntrip 64\narray used 4 64 rw\narray dead 4 64 ro\n"
      "access used read\n",
      parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  DiagnosticList diags;
  (void)casc::analysis::classify_operands(spec, diags);
  EXPECT_TRUE(diags.ok());  // advisories only
  EXPECT_TRUE(has_rule(diags, "unused-array", Severity::kWarning));
  EXPECT_TRUE(has_rule(diags, "rw-never-written", Severity::kNote));
}

TEST(AnalysisPasses, IndexRangeAuditFlagsWrap) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(kUnsafeSpec, parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  DiagnosticList diags;
  casc::analysis::check_index_ranges(spec, diags);
  // 'access y read offset -1' starts at element -1: wraps.
  EXPECT_TRUE(has_rule(diags, "index-wrap", Severity::kWarning));
}

TEST(AnalysisPasses, FootprintBoundsArePlausible) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(kSafeGather, parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  const auto fp = casc::analysis::compute_footprints(spec, 16 * 1024);
  // a (8) + ij (4) + x (8) bytes per iteration.
  EXPECT_EQ(fp.bytes_per_iteration, 20u);
  EXPECT_GT(fp.chunk_iters, 0u);
  EXPECT_GT(fp.num_chunks, 1u);
  EXPECT_LE(fp.per_chunk_bound,
            fp.chunk_iters * fp.bytes_per_iteration + 64);
  EXPECT_GT(fp.staged_chunk_bound, 0u);
  EXPECT_LT(fp.staged_chunk_bound, fp.per_chunk_bound);
}

TEST(AnalysisPasses, DependenceAnalysisFindsTheCrossChunkHazard) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(kUnsafeSpec, parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  DiagnosticList diags;
  const auto classes = casc::analysis::classify_operands(spec, diags);
  DiagnosticList dep_diags;
  const auto deps =
      casc::analysis::check_dependences(spec, classes, 512, dep_diags);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].array, "y");
  EXPECT_EQ(deps[0].distance, 1);  // flow: write(i) reaches read(i+1)
  EXPECT_TRUE(has_rule(dep_diags, "hazard-cross-chunk", Severity::kError));
}

TEST(AnalysisPasses, IntraIterationDependenceIsClean) {
  // y read + y write at the same offset (the spmv reduction shape): distance
  // zero, preserved trivially, no diagnostic.
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(
      "loop red\ntrip 1024\narray y 8 1024 rw\naccess y read\naccess y write\n",
      parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  DiagnosticList diags;
  const auto classes = casc::analysis::classify_operands(spec, diags);
  DiagnosticList dep_diags;
  const auto deps =
      casc::analysis::check_dependences(spec, classes, 128, dep_diags);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].distance, 0);
  EXPECT_TRUE(dep_diags.empty());
}

TEST(AnalysisPasses, LoopCarriedRwDependenceIsANote) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(
      "loop carry\ntrip 1024\narray y 8 1024 rw\n"
      "access y read offset -1\naccess y write\n",
      parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  DiagnosticList diags;
  const auto classes = casc::analysis::classify_operands(spec, diags);
  DiagnosticList dep_diags;
  (void)casc::analysis::check_dependences(spec, classes, 128, dep_diags);
  EXPECT_TRUE(dep_diags.ok());  // token order preserves it: note, not error
  EXPECT_TRUE(has_rule(dep_diags, "dep-loop-carried", Severity::kNote));
}

TEST(AnalysisPasses, ReductionOperandsAreClassifiedWithTheirOperator) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(
      "loop hist\ntrip 4096\ncompute 5 4\n"
      "array hist 8 256 rw\nindex bidx 4096 random 7\n"
      "access hist update sum via bidx\n",
      parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  DiagnosticList diags;
  const auto classes = casc::analysis::classify_operands(spec, diags);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].name, "hist");
  EXPECT_TRUE(classes[0].reduction());
  EXPECT_EQ(classes[0].kind(), "reduction");
  EXPECT_EQ(classes[0].reduce_op, "sum");
  EXPECT_EQ(classes[1].kind(), "index");
  EXPECT_TRUE(diags.ok());  // requires-privatization is a note, not an error
  EXPECT_TRUE(has_rule(diags, "requires-privatization", Severity::kNote));
}

TEST(AnalysisPasses, MixedUpdateOperatorsDegradeToPlainRw) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(
      "loop mix\ntrip 64\narray a 8 64 rw\n"
      "access a update sum\naccess a update min\n",
      parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  DiagnosticList diags;
  const auto classes = casc::analysis::classify_operands(spec, diags);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_FALSE(classes[0].reduction());
  EXPECT_EQ(classes[0].kind(), "rw");
  EXPECT_TRUE(classes[0].reduce_op.empty());
  EXPECT_TRUE(has_rule(diags, "reduce-mixed-op", Severity::kWarning));
  EXPECT_FALSE(has_rule(diags, "requires-privatization", Severity::kNote));
}

TEST(AnalysisPasses, PlainAccessBesideUpdateDefeatsPrivatization) {
  // A plain read observes the partial accumulation, so the operand is not a
  // privatizable reduction even though every write is an update.
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(
      "loop impure\ntrip 64\narray a 8 64 rw\n"
      "access a read offset -1\naccess a update sum\n",
      parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  DiagnosticList diags;
  const auto classes = casc::analysis::classify_operands(spec, diags);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_FALSE(classes[0].reduction());
  EXPECT_TRUE(has_rule(diags, "reduce-impure", Severity::kNote));
  EXPECT_FALSE(has_rule(diags, "requires-privatization", Severity::kNote));
}

TEST(Shadow, SanitizedInstantiateDemotesFalseClaims) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(kUnsafeSpec, parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  EXPECT_THROW(spec.instantiate(), casc::common::CheckFailure);
  std::vector<std::string> demoted;
  const auto nest = casc::analysis::sanitized_instantiate(spec, &demoted);
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0], "y");
  EXPECT_EQ(nest.num_iterations(), 8192u);
  // The claims still carry the ORIGINAL (false) read-only declaration.
  const auto claims = casc::analysis::claims_for(spec, nest);
  ASSERT_EQ(claims.size(), 2u);
  EXPECT_TRUE(claims[0].claimed_ro);
  EXPECT_GT(claims[0].bytes, 0u);
}

TEST(Shadow, ConfirmsTheHazardFromTheTrace) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(kUnsafeSpec, parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  const auto nest = casc::analysis::sanitized_instantiate(spec);
  const auto trace = casc::trace::Trace::capture(nest);
  casc::analysis::ShadowOptions opt;
  opt.chunk_bytes = 8 * 1024;
  const auto report =
      casc::analysis::shadow_check(trace, casc::analysis::claims_for(spec, nest), opt);
  EXPECT_FALSE(report.restructure_safe);
  EXPECT_GT(report.violating_writes, 0u);
  EXPECT_GT(report.cross_chunk_hazards, 0u);
  EXPECT_TRUE(
      has_rule(report.diags, "shadow-hazard-cross-chunk", Severity::kError));
}

TEST(Shadow, CleanLoopPassesWithFootprintContainment) {
  DiagnosticList parse_diags;
  const LoopSpec spec = LoopSpec::parse(kSafeGather, parse_diags);
  ASSERT_TRUE(parse_diags.ok());
  const auto nest = casc::analysis::sanitized_instantiate(spec);
  const auto trace = casc::trace::Trace::capture(nest);
  const auto fp = casc::analysis::compute_footprints(spec, 16 * 1024);
  casc::analysis::ShadowOptions opt;
  opt.chunk_bytes = 16 * 1024;
  opt.static_chunk_bound = fp.per_chunk_bound;
  const auto report =
      casc::analysis::shadow_check(trace, casc::analysis::claims_for(spec, nest), opt);
  EXPECT_TRUE(report.restructure_safe);
  EXPECT_TRUE(report.diags.ok());
  EXPECT_FALSE(report.footprint_exceeded);
  EXPECT_EQ(report.out_of_extent_refs, 0u);
  EXPECT_GT(report.staged_bytes, 0u);
  EXPECT_LE(report.peak_chunk_bytes, fp.per_chunk_bound);
}

TEST(Shadow, PinsEveryFullScaleParmvrStage) {
  // The analyzer's shadow report for each stage of the benchmarked PARMVR
  // chain, at the default 64 KiB chunk geometry.  The staged footprint and
  // the per-chunk peaks are what a restructure proof rests on, so any change
  // in how the checker counts them shows up here.
  struct Pinned {
    std::uint64_t refs_checked, staged_bytes, peak_chunk_bytes,
        violating_writes, cross_chunk_hazards;
  };
  const Pinned kPinned[] = {
      {262144, 1048576, 65536, 0, 0},  // charge_sweep
      {393216, 2097152, 65520, 0, 0},  // weight_blend
      {524288, 2621440, 65520, 0, 0},  // field_gather_x
      {524288, 2621440, 65520, 0, 0},  // field_gather_y
      {524288, 2621440, 65520, 0, 0},  // field_gather_z
      {393216, 2097152, 65520, 0, 0},  // push_x
      {393216, 2097152, 65520, 0, 0},  // push_y
      {393216, 2097152, 65520, 0, 0},  // push_z
      {524288, 2621440, 65520, 0, 0},  // sorted_gather_q
      {524288, 2621440, 65520, 0, 0},  // sorted_gather_cur
      {655360, 2097152, 39328, 0, 0},  // smooth_rho
      {393216, 1048576, 43680, 0, 0},  // current_blend
      {524288, 2621440, 65520, 0, 0},  // tail_gather_a
      {524288, 2621440, 65520, 0, 0},  // tail_gather_b
      {524288, 2097152, 49152, 0, 0},  // deposit_sweep
  };
  const casc::loopir::PipelineSpec chain = casc::wave5::make_parmvr_pipeline(1);
  ASSERT_EQ(chain.stages.size(), std::size(kPinned));
  for (std::size_t k = 0; k < chain.stages.size(); ++k) {
    const AnalysisReport report = casc::analysis::analyze(chain.stage_spec(k));
    ASSERT_TRUE(report.shadow_ran) << chain.stages[k].name;
    const casc::analysis::ShadowReport& got = report.shadow;
    const Pinned& want = kPinned[k];
    EXPECT_EQ(got.refs_checked, want.refs_checked) << chain.stages[k].name;
    EXPECT_EQ(got.staged_bytes, want.staged_bytes) << chain.stages[k].name;
    EXPECT_EQ(got.peak_chunk_bytes, want.peak_chunk_bytes) << chain.stages[k].name;
    EXPECT_EQ(got.violating_writes, want.violating_writes) << chain.stages[k].name;
    EXPECT_EQ(got.cross_chunk_hazards, want.cross_chunk_hazards)
        << chain.stages[k].name;
  }
}

/// A hand-built trace over a claimed-read-only array `r` and an rw array
/// `w`, 8 iterations per chunk.  Every iteration reads r+0 three times (in
/// chunk 0 first at width 8, then at width 2), reads r+64, and writes its own
/// element of w.  Iteration 2 writes r+64, whose last staged read is in the
/// last chunk, and iteration 5 reads one address outside every claim.
class TwoWidthWorkload final : public casc::core::Workload {
 public:
  static constexpr std::uint64_t kR = 0x10000;
  static constexpr std::uint64_t kW = 0x20000;
  static constexpr std::uint64_t kOutside = 0x90000;

  [[nodiscard]] std::uint64_t num_iterations() const override { return 32; }
  [[nodiscard]] std::uint32_t compute_cycles() const override { return 1; }
  [[nodiscard]] std::uint32_t restructured_compute_cycles() const override {
    return 1;
  }
  [[nodiscard]] std::uint64_t bytes_per_iteration() const override { return 16; }
  [[nodiscard]] std::uint64_t buffer_bytes_per_iteration() const override {
    return 0;
  }
  void refs_for_iteration(std::uint64_t it,
                          std::vector<casc::loopir::Ref>& out) const override {
    auto read = [&](std::uint64_t addr, std::uint32_t width) {
      casc::loopir::Ref ref;
      ref.mem = {addr, width, casc::sim::AccessType::kRead};
      ref.read_only_operand = true;
      out.push_back(ref);
    };
    auto write = [&](std::uint64_t addr) {
      casc::loopir::Ref ref;
      ref.mem = {addr, 8, casc::sim::AccessType::kWrite};
      out.push_back(ref);
    };
    for (int j = 0; j < 3; ++j) read(kR, it == 0 && j == 0 ? 8 : 2);
    read(kR + 64, 8);
    if (it == 2) write(kR + 64);
    if (it == 5) read(kOutside, 8);
    write(kW + 8 * it);
  }
  [[nodiscard]] std::vector<casc::core::AddressRange> data_ranges()
      const override {
    return {{kR, 256}, {kW, 256}};
  }
};

TEST(Shadow, CountsFirstWidthsAndKeepsReadsInStreamOrder) {
  const TwoWidthWorkload workload;
  const auto trace = casc::trace::Trace::capture(workload, "two_width");
  const std::vector<casc::analysis::ArrayClaim> claims = {
      {"r", TwoWidthWorkload::kR, 256, true},
      {"w", TwoWidthWorkload::kW, 256, false}};
  casc::analysis::ShadowOptions opt;
  opt.chunk_bytes = 128;

  const auto report = casc::analysis::shadow_check(trace, claims, opt);
  EXPECT_EQ(report.chunk_iters, 8u);
  EXPECT_EQ(report.refs_checked, 162u);
  // Chunk 0 counts r+0 at its first width (8), not its later one (2):
  // 8 + 8 (r+64) + 8 (outside) + 64 (w) bytes, against 74 in later chunks.
  EXPECT_EQ(report.peak_chunk_bytes, 88u);
  EXPECT_EQ(report.staged_bytes, 16u);  // r+0 at its widest read, and r+64
  EXPECT_EQ(report.out_of_extent_refs, 1u);
  EXPECT_EQ(report.violating_writes, 1u);
  EXPECT_EQ(report.cross_chunk_hazards, 1u);
  EXPECT_FALSE(report.restructure_safe);
  ASSERT_EQ(report.diags.items().size(), 2u);
  EXPECT_EQ(report.diags.items()[0].message,
            "trace confirms the hazard: iteration 2 (chunk 0) writes 0x10040 "
            "inside the staged footprint of 'r', and a staged read of those "
            "bytes at iteration 31 (chunk 3) was copied before the writer "
            "chunk executed; the staged value is stale");
  EXPECT_EQ(report.diags.items()[1].rule, "shadow-footprint");

  // Ring replay classifies the write against the FIRST staged read after it.
  opt.ring_workers = 2;
  const auto ring = casc::analysis::shadow_check(trace, claims, opt);
  EXPECT_EQ(ring.peak_chunk_bytes, 88u);
  EXPECT_EQ(ring.violating_writes, 1u);
  EXPECT_EQ(ring.cross_chunk_hazards, 0u);
  EXPECT_EQ(ring.ordered_pairs, 0u);
  EXPECT_FALSE(ring.restructure_safe);
  ASSERT_EQ(ring.diags.items().size(), 2u);
  EXPECT_EQ(ring.diags.items()[0].message,
            "trace records a write at iteration 2 to 0x10040 inside "
            "claimed-read-only 'r'; a staged read at iteration 3 follows it in "
            "the same chunk, and the staged copy (taken before the chunk "
            "began) is stale at every worker count");
}

TEST(Analyze, UnsafeSpecFailsWithStaticAndShadowEvidence) {
  const AnalysisReport report = analyze_text(kUnsafeSpec);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.restructure_eligible);
  ASSERT_TRUE(report.shadow_ran);
  EXPECT_FALSE(report.shadow.restructure_safe);
  EXPECT_TRUE(has_rule(report.diags, "classify-write-ro", Severity::kError));
  EXPECT_TRUE(has_rule(report.diags, "hazard-cross-chunk", Severity::kError));
  EXPECT_TRUE(
      has_rule(report.diags, "shadow-hazard-cross-chunk", Severity::kError));
}

TEST(Analyze, SafeSpecIsEligibleAndProven) {
  const AnalysisReport report = analyze_text(kSafeGather);
  EXPECT_TRUE(report.ok()) << report.diags.render_text();
  EXPECT_TRUE(report.restructure_eligible);
  ASSERT_TRUE(report.shadow_ran);
  EXPECT_TRUE(report.shadow.restructure_safe);
  EXPECT_TRUE(
      has_rule(report.diags, "restructure-eligible", Severity::kNote));
}

TEST(Analyze, ParseErrorsLandInTheReport) {
  const AnalysisReport report = analyze_text("loop broken\ntrip what\n");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report.diags, "parse-syntax", Severity::kError));
  EXPECT_FALSE(report.shadow_ran);  // nothing instantiable to replay
}

TEST(Analyze, JsonReportIsValidAndCarriesTheVerdict) {
  std::ostringstream os;
  const AnalysisReport report = analyze_text(kUnsafeSpec);
  casc::analysis::render_json(report, os, "unsafe_seeded.casc");
  const auto doc = casc::testjson::Parser(os.str()).parse();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->at("tool").string, "casclint");
  EXPECT_EQ(doc->at("source").string, "unsafe_seeded.casc");
  EXPECT_EQ(doc->at("verdict").string, "fail");
  EXPECT_FALSE(doc->at("restructure_eligible").boolean);
  EXPECT_GT(doc->at("errors").number, 0);
  ASSERT_TRUE(doc->at("diagnostics").is_array());
  bool saw_hazard = false;
  for (const auto& d : doc->at("diagnostics").array) {
    if (d->at("rule").string == "hazard-cross-chunk") saw_hazard = true;
  }
  EXPECT_TRUE(saw_hazard);
  EXPECT_TRUE(doc->at("shadow").at("ran").boolean);
  EXPECT_GT(doc->at("shadow").at("cross_chunk_hazards").number, 0);
}

TEST(Analyze, ShadowTruncationIsSurfacedInTextAndJson) {
  // A replay cap below the trip count must be visible, not silent: the
  // report carries truncated=true, the text report appends "(truncated)",
  // and the JSON pins the flag for the goldens.
  AnalyzeOptions opt;
  opt.max_shadow_iterations = 1024;  // kUnsafeSpec trips 8192
  const AnalysisReport report = analyze_text(kUnsafeSpec, opt);
  ASSERT_TRUE(report.shadow_ran);
  EXPECT_TRUE(report.shadow.truncated);
  EXPECT_EQ(report.shadow.iterations_checked, 1024u);
  const std::string text = casc::analysis::render_text(report);
  EXPECT_NE(text.find("(truncated)"), std::string::npos) << text;
  std::ostringstream os;
  casc::analysis::render_json(report, os, "t.casc");
  const auto doc = casc::testjson::Parser(os.str()).parse();
  EXPECT_TRUE(doc->at("shadow").at("truncated").boolean);
  // Truncated evidence covers only a prefix, so the certificate (when
  // requested) must refuse to certify staging at any worker count.
  AnalyzeOptions copt = opt;
  copt.certify = true;
  const AnalysisReport certified = analyze_text(kUnsafeSpec, copt);
  ASSERT_TRUE(certified.certificate.has_value());
  EXPECT_TRUE(certified.certificate->truncated);
  EXPECT_FALSE(certified.certificate->certifies_staging(1));
}

TEST(Analyze, CertificateAppearsInJsonWhenRequested) {
  AnalyzeOptions opt;
  opt.certify = true;
  std::ostringstream os;
  casc::analysis::render_json(analyze_text(kUnsafeSpec, opt), os, "u.casc");
  const auto doc = casc::testjson::Parser(os.str()).parse();
  EXPECT_EQ(doc->at("version").number, 2);
  ASSERT_TRUE(doc->at("certificate").is_object());
  EXPECT_TRUE(doc->at("certificate").at("ran").boolean);
  EXPECT_EQ(doc->at("certificate").at("verdict").string, "raced");
  EXPECT_GT(doc->at("certificate").at("stale_pairs").number, 0);
  ASSERT_TRUE(doc->at("certificate").at("witnesses").is_array());
  EXPECT_FALSE(doc->at("certificate").at("witnesses").array.empty());
  ASSERT_TRUE(doc->at("certificate").at("operands").is_array());
  bool saw_coef = false;
  for (const auto& op : doc->at("certificate").at("operands").array) {
    if (op->at("name").string == "coef") {
      saw_coef = true;
      EXPECT_TRUE(op->at("certified").boolean);
    }
  }
  EXPECT_TRUE(saw_coef);
}

TEST(Analyze, JsonReportIsDeterministic) {
  std::ostringstream a;
  std::ostringstream b;
  casc::analysis::render_json(analyze_text(kSafeGather), a, "s.casc");
  casc::analysis::render_json(analyze_text(kSafeGather), b, "s.casc");
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(a.str().empty());
}

}  // namespace
