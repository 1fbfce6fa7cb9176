// Tests for the preflight restructure-safety verifier: the claim checker
// over workload reference streams, the engine's demotion of unproven
// restructure helpers, and helper selection over unsafe loops.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "casc/analysis/refstream.hpp"
#include "casc/cascade/engine.hpp"
#include "casc/cascade/helper_selector.hpp"
#include "casc/core/workload.hpp"
#include "test_util.hpp"

namespace {

using casc::cascade::CascadeOptions;
using casc::cascade::CascadeResult;
using casc::cascade::CascadeSimulator;
using casc::cascade::HelperChoice;
using casc::cascade::HelperKind;
using casc::analysis::RefStreamOptions;
using casc::analysis::RefStreamReport;
using casc::analysis::verify_ref_stream;
using casc::cascade::select_helper;
using casc::core::LoopWorkload;
using casc::loopir::LayoutPolicy;
using casc::test::make_stream_loop;
using casc::test::mini_machine;

/// A workload whose read-only claim is a lie: iteration i reads element
/// i-1 CLAIMED read-only (the restructuring helper would stage it) and
/// writes element i of the same array — the unsafe recurrence
/// y(i) = f(y(i-1)).  A LoopNest cannot express this (it rejects writes to
/// read-only arrays), which is exactly why the engine must not trust
/// classification claims blindly.
class LyingWorkload final : public casc::core::Workload {
 public:
  explicit LyingWorkload(std::uint64_t n) : n_(n) {}

  [[nodiscard]] std::uint64_t num_iterations() const override { return n_; }
  [[nodiscard]] std::uint32_t compute_cycles() const override { return 6; }
  [[nodiscard]] std::uint32_t restructured_compute_cycles() const override {
    return 4;
  }
  [[nodiscard]] std::uint64_t bytes_per_iteration() const override { return 16; }
  [[nodiscard]] std::uint64_t buffer_bytes_per_iteration() const override {
    return 8;
  }
  void refs_for_iteration(std::uint64_t it,
                          std::vector<casc::loopir::Ref>& out) const override {
    const std::uint64_t prev = it == 0 ? 0 : it - 1;
    casc::loopir::Ref read;
    read.mem = {kBase + 8 * prev, 8, casc::sim::AccessType::kRead};
    read.read_only_operand = true;  // the lie
    out.push_back(read);
    casc::loopir::Ref write;
    write.mem = {kBase + 8 * it, 8, casc::sim::AccessType::kWrite};
    out.push_back(write);
  }
  [[nodiscard]] std::vector<casc::core::AddressRange> data_ranges()
      const override {
    return {{kBase, 8 * n_}};
  }

 private:
  static constexpr std::uint64_t kBase = 1ull << 32;
  std::uint64_t n_;
};

TEST(Preflight, HonestWorkloadIsProvenSafe) {
  const auto nest = make_stream_loop(2048, 3, LayoutPolicy::kStaggered);
  const LoopWorkload workload(nest);
  const RefStreamReport report = verify_ref_stream(workload);
  EXPECT_TRUE(report.restructure_safe);
  EXPECT_TRUE(report.diags.ok());
  EXPECT_GT(report.claimed_ro_bytes, 0u);
  EXPECT_EQ(report.violating_writes, 0u);
  EXPECT_EQ(report.iterations_checked, workload.num_iterations());
}

TEST(Preflight, LyingClaimIsRefutedWithCrossChunkEvidence) {
  const LyingWorkload workload(4096);
  RefStreamOptions opt;
  opt.chunk_bytes = 1024;  // 64 iterations per chunk: many boundaries
  const RefStreamReport report = verify_ref_stream(workload, opt);
  EXPECT_FALSE(report.restructure_safe);
  EXPECT_GT(report.violating_writes, 0u);
  EXPECT_GT(report.cross_chunk_hazards, 0u);
  EXPECT_FALSE(report.diags.ok());
  bool saw_hazard = false;
  for (const auto& d : report.diags.items()) {
    if (d.rule == "hazard-cross-chunk") saw_hazard = true;
  }
  EXPECT_TRUE(saw_hazard);
}

TEST(Preflight, TruncatedVerdictIsMarked) {
  const LyingWorkload workload(4096);
  RefStreamOptions opt;
  opt.max_iterations = 16;
  const RefStreamReport report = verify_ref_stream(workload, opt);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.iterations_checked, 16u);
  bool saw_warning = false;
  for (const auto& d : report.diags.items()) {
    if (d.rule == "preflight-truncated") saw_warning = true;
  }
  EXPECT_TRUE(saw_warning);
}

TEST(Preflight, EngineDemotesUnprovenRestructureToPrefetch) {
  const LyingWorkload workload(2048);
  CascadeSimulator sim(mini_machine(4));
  CascadeOptions opt;
  opt.chunk_bytes = 2 * 1024;
  opt.helper = HelperKind::kRestructure;
  const CascadeResult demoted = sim.run_cascaded(workload, opt);
  EXPECT_TRUE(demoted.preflight_demoted);
  ASSERT_FALSE(demoted.preflight_diags.empty());
  bool saw_hazard = false;
  for (const auto& d : demoted.preflight_diags) {
    if (d.rule == "hazard-cross-chunk") saw_hazard = true;
  }
  EXPECT_TRUE(saw_hazard);

  // What actually ran is the prefetch fallback: cycle-identical to an
  // explicit prefetch request on this deterministic simulator.
  opt.helper = HelperKind::kPrefetch;
  const CascadeResult prefetch = sim.run_cascaded(workload, opt);
  EXPECT_EQ(demoted.total_cycles, prefetch.total_cycles);
  EXPECT_FALSE(prefetch.preflight_demoted);
}

TEST(Preflight, SafeWorkloadIsNotDemoted) {
  const auto nest = make_stream_loop(2048, 3, LayoutPolicy::kConflicting);
  const LoopWorkload workload(nest);
  CascadeSimulator sim(mini_machine(4));
  CascadeOptions opt;
  opt.chunk_bytes = 4 * 1024;
  opt.helper = HelperKind::kRestructure;
  const CascadeResult result = sim.run_cascaded(workload, opt);
  EXPECT_FALSE(result.preflight_demoted);
  EXPECT_TRUE(result.preflight_diags.empty());
}

// The proof alone decides: the simulator's preflight still runs with
// CASC_NO_VERIFY=1 in the environment.
TEST(Preflight, NoVerifyEnvironmentStillDemotesALyingWorkload) {
  ::setenv("CASC_NO_VERIFY", "1", 1);
  const LyingWorkload workload(2048);
  CascadeSimulator sim(mini_machine(4));
  CascadeOptions opt;
  opt.chunk_bytes = 2 * 1024;
  opt.helper = HelperKind::kRestructure;
  const CascadeResult result = sim.run_cascaded(workload, opt);
  EXPECT_TRUE(result.preflight_demoted);
  EXPECT_FALSE(result.preflight_diags.empty());
  ::unsetenv("CASC_NO_VERIFY");
}

TEST(HelperSelectorPreflight, NeverSelectsRestructureForUnsafeLoop) {
  const LyingWorkload workload(4096);
  CascadeSimulator sim(mini_machine(4));
  CascadeOptions opt;
  opt.chunk_bytes = 2 * 1024;
  const HelperChoice choice = select_helper(sim, workload, opt);
  EXPECT_NE(choice.helper, HelperKind::kRestructure);
  EXPECT_TRUE(choice.restructure_refused);
  // The restructure slot still reports what actually ran (the prefetch
  // fallback), so the margin data stays meaningful.
  EXPECT_GT(choice.speedup_by_kind[static_cast<int>(HelperKind::kRestructure)],
            0.0);
}

}  // namespace
