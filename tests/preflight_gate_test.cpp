// Tests for the runtime preflight gate: gated CascadeExecutor::run must
// refuse to let an unproven helper stage values, run the always-correct
// helper-free cascade instead, and log the refusal diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "casc/common/diagnostic.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/preflight.hpp"

namespace {

using casc::common::Diagnostic;
using casc::common::Severity;
using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::PreflightGate;
using casc::rt::TokenWatch;

Diagnostic hazard_diag() {
  Diagnostic d;
  d.severity = Severity::kError;
  d.rule = "hazard-cross-chunk";
  d.message = "staged operand 'y' is written by the loop";
  d.loop = "unsafe_recurrence";
  // Not the bare literal: GCC 12 at -O3 reads assigning a one-character
  // literal as an overlapping copy and warns (-Wrestrict).
  d.object = std::string("y");
  return d;
}

TEST(PreflightGate, VerdictConstruction) {
  const PreflightGate proven = PreflightGate::proven();
  EXPECT_TRUE(proven.is_proven());

  const PreflightGate refused = PreflightGate::refused(hazard_diag());
  EXPECT_FALSE(refused.is_proven());
  EXPECT_EQ(refused.reason().rule, "hazard-cross-chunk");
}

TEST(ExecutorGate, RefusedGateDropsHelperAndLogsDiagnostic) {
  const std::uint64_t n = 1024;
  std::vector<std::uint64_t> out(n, 0);
  std::atomic<std::uint64_t> helper_calls{0};

  CascadeExecutor ex(ExecutorConfig{2, false});
  ex.run(
      n, 128,
      [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i) out[i] = i * 3;
      },
      [&](std::uint64_t, std::uint64_t, const TokenWatch&) {
        ++helper_calls;
        return true;
      },
      PreflightGate::refused(hazard_diag()));

  EXPECT_EQ(helper_calls.load(), 0u) << "refused helper must never run";
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * 3);
  const auto& stats = ex.last_run_stats();
  EXPECT_TRUE(stats.preflight_refused);
  EXPECT_NE(stats.preflight_diag.find("hazard-cross-chunk"), std::string::npos)
      << stats.preflight_diag;
  EXPECT_EQ(stats.helpers_completed, 0u);
  EXPECT_EQ(stats.chunks_executed, n / 128);
}

TEST(ExecutorGate, ProvenGateRunsHelperNormally) {
  const std::uint64_t n = 1024;
  std::atomic<std::uint64_t> helper_calls{0};
  CascadeExecutor ex(ExecutorConfig{2, false});
  ex.run(
      n, 128, [](std::uint64_t, std::uint64_t) {},
      [&](std::uint64_t, std::uint64_t, const TokenWatch&) {
        ++helper_calls;
        return true;
      },
      PreflightGate::proven());
  EXPECT_GT(helper_calls.load(), 0u);
  const auto& stats = ex.last_run_stats();
  EXPECT_FALSE(stats.preflight_refused);
  EXPECT_TRUE(stats.preflight_diag.empty());
}

TEST(ExecutorGate, StatsResetBetweenGatedRuns) {
  CascadeExecutor ex(ExecutorConfig{2, false});
  auto exec = [](std::uint64_t, std::uint64_t) {};
  auto helper = [](std::uint64_t, std::uint64_t, const TokenWatch&) {
    return true;
  };
  ex.run(256, 64, exec, helper, PreflightGate::refused(hazard_diag()));
  EXPECT_TRUE(ex.last_run_stats().preflight_refused);
  ex.run(256, 64, exec, helper, PreflightGate::proven());
  EXPECT_FALSE(ex.last_run_stats().preflight_refused);
  EXPECT_TRUE(ex.last_run_stats().preflight_diag.empty());
}

// A restructure-style helper on the recurrence y[i] = y[i-1] + a[i]: it stages
// the chunk's y[i-1] operands, which the execution phase itself overwrites, so
// any chunk read from its staging slot yields a wrong sum.  The refused gate
// must keep every chunk on the direct reads.
void expect_refused_recurrence_stays_exact() {
  const std::uint64_t n = 2048;
  const std::uint64_t ipc = 128;
  std::vector<double> a(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = 0.5 * static_cast<double>(i);
  std::vector<double> want(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    want[i] = (i == 0 ? 0.0 : want[i - 1]) + a[i];
  }

  std::vector<double> y(n, 0.0);
  std::vector<std::vector<double>> slot(n / ipc, std::vector<double>(ipc));
  std::vector<std::uint8_t> staged(n / ipc, 0);
  CascadeExecutor ex(ExecutorConfig{2, false});
  ex.run(
      n, ipc,
      [&](std::uint64_t begin, std::uint64_t end) {
        const std::uint64_t k = begin / ipc;
        for (std::uint64_t i = begin; i < end; ++i) {
          double prev = 0.0;
          if (i > 0) prev = staged[k] != 0 ? slot[k][i - begin] : y[i - 1];
          y[i] = prev + a[i];
        }
      },
      [&](std::uint64_t begin, std::uint64_t end, const TokenWatch&) {
        const std::uint64_t k = begin / ipc;
        for (std::uint64_t i = begin; i < end; ++i) {
          slot[k][i - begin] = i == 0 ? 0.0 : y[i - 1];
        }
        staged[k] = 1;
        return true;
      },
      PreflightGate::refused(hazard_diag()));

  EXPECT_EQ(y, want);
  EXPECT_EQ(std::count(staged.begin(), staged.end(), 1), 0)
      << "a refused gate must keep every chunk on the direct reads";
  const auto& stats = ex.last_run_stats();
  EXPECT_EQ(stats.chunks_executed, n / ipc);
  EXPECT_EQ(stats.helpers_completed, 0u);
  EXPECT_TRUE(stats.preflight_refused);
  EXPECT_NE(stats.preflight_diag.find("unsafe_recurrence"), std::string::npos)
      << stats.preflight_diag;
}

TEST(RestructuredGate, RefusedGateNeverStagesButStaysCorrect) {
  expect_refused_recurrence_stays_exact();
}

// The proof alone decides: a refused helper stays dropped with
// CASC_NO_VERIFY=1 in the environment.
TEST(RestructuredGate, NoVerifyEnvironmentStillDropsARefusedHelper) {
  ::setenv("CASC_NO_VERIFY", "1", 1);
  expect_refused_recurrence_stays_exact();
  ::unsetenv("CASC_NO_VERIFY");
}

}  // namespace
