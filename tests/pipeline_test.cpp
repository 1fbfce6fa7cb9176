// Pipelines end to end: PipelineSpec parsing (collecting rules), the staging
// plan, and the three execution paths — sequential reference, pipelined
// cascade (one executor, one staging arena), independent cascades (each
// stage loop's own staging region) — which must agree bit for bit on every
// spec, every helper mode, every worker count, every chunk geometry, and
// every seeded chaos schedule.  Stage specs carry honest claims, so no stage
// proof holds a certificate and the arena the plan sizes holds every
// stage's stream.  The chain's state bookkeeping is pinned too: one
// checksum per run, over exactly the arrays some stage writes, and a reset
// that restores them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casc/analysis/pipeline_plan.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/pipeline.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/wave5/parmvr.hpp"
#include "test_util.hpp"

namespace {

using namespace casc;

std::string load_text(const std::string& file) {
  const std::string path = std::string(CASC_TEST_SPEC_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

loopir::PipelineSpec load_pipeline(const std::string& file) {
  return loopir::PipelineSpec::parse(load_text(file));
}

const std::vector<std::string> kPipelineSpecs = {
    "pipeline_reuse.casc", "pipeline_index_clobber.casc",
    "pipeline_mixed.casc"};

// ---- parsing ---------------------------------------------------------------

TEST(PipelineSpecParse, RoundTripsThroughText) {
  for (const std::string& file : kPipelineSpecs) {
    const loopir::PipelineSpec spec = load_pipeline(file);
    const loopir::PipelineSpec again = loopir::PipelineSpec::parse(spec.to_text());
    EXPECT_EQ(spec.to_text(), again.to_text()) << file;
    EXPECT_EQ(spec.stages.size(), again.stages.size()) << file;
  }
}

TEST(PipelineSpecParse, DetectsPipelineText) {
  EXPECT_TRUE(loopir::is_pipeline_text("# chain\npipeline p\n"));
  EXPECT_FALSE(loopir::is_pipeline_text("loop l\ntrip 8\n"));
  EXPECT_FALSE(loopir::is_pipeline_text(""));
}

TEST(PipelineSpecParse, CollectsRuleViolations) {
  const char* text = R"(pipeline bad
array a 8 64 ro
index ij 64 perm 3
loop one
trip 64
access a write
access missing read
access a read via ij
access ij write
endloop
loop one
trip 32
access a read
endloop
)";
  common::DiagnosticList diags;
  const loopir::PipelineSpec spec = loopir::PipelineSpec::parse(text, diags);
  EXPECT_FALSE(diags.ok());
  std::set<std::string> rules;
  for (const common::Diagnostic& d : diags.items()) rules.insert(d.rule);
  EXPECT_TRUE(rules.count("pipeline-write-ro"));    // write to ro array a
  EXPECT_TRUE(rules.count("undeclared-array"));     // access missing
  EXPECT_TRUE(rules.count("pipeline-write-via"));   // writes ij AND gathers via
  EXPECT_TRUE(rules.count("duplicate-loop"));       // two blocks named one
  EXPECT_EQ(spec.stages.size(), 2u);  // best-effort spec still carries both
}

TEST(PipelineSpecParse, ArraysAreDeclaredAtPipelineScopeOnly) {
  const char* text = R"(pipeline scoped
array a 8 64 ro
loop one
trip 64
array b 8 64 rw
access a read
endloop
)";
  common::DiagnosticList diags;
  (void)loopir::PipelineSpec::parse(text, diags);
  EXPECT_FALSE(diags.ok());
  bool found = false;
  for (const common::Diagnostic& d : diags.items()) {
    if (d.message.find("pipeline scope") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PipelineSpecParse, StageSpecsCarryHonestClaims) {
  const loopir::PipelineSpec spec = load_pipeline("pipeline_index_clobber.casc");
  // Stage 1 (rebuild_index) writes ij: its lowered spec must declare ij as a
  // plain rw array (no pattern), while the gather stages keep the pattern.
  const loopir::LoopSpec clobber = spec.stage_spec(1);
  const loopir::LoopSpec gather = spec.stage_spec(0);
  bool checked_clobber = false, checked_gather = false;
  for (const loopir::LoopSpec::ArrayDecl& d : clobber.arrays) {
    if (d.name == "ij") {
      EXPECT_FALSE(d.read_only);
      EXPECT_FALSE(d.pattern.has_value());
      checked_clobber = true;
    }
  }
  for (const loopir::LoopSpec::ArrayDecl& d : gather.arrays) {
    if (d.name == "ij") {
      EXPECT_TRUE(d.read_only);
      EXPECT_TRUE(d.pattern.has_value());
      checked_gather = true;
    }
  }
  EXPECT_TRUE(checked_clobber);
  EXPECT_TRUE(checked_gather);
  // Only referenced arrays are carried: the clobber stage never touches a.
  for (const loopir::LoopSpec::ArrayDecl& d : clobber.arrays) {
    EXPECT_NE(d.name, "a");
  }
}

// ---- the staging plan ------------------------------------------------------

TEST(PipelinePlan, ProvesIdenticalGatherPairReusable) {
  const analysis::PipelinePlan plan =
      analysis::plan_pipeline(load_pipeline("pipeline_reuse.casc"));
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_EQ(plan.stages_reusing(), 0u);  // every stage gathers its own stream
  // Three staged slots per iteration: ij index-load, a gather, w affine.
  ASSERT_EQ(plan.stages[0].staged_signature.size(), 3u);
  EXPECT_TRUE(plan.stages[0].staged_signature[0].is_index_load);
  EXPECT_EQ(plan.stages[0].staged_signature[1].via, "ij");
  EXPECT_EQ(plan.stages[1].staged_signature.size(), 3u);
  // The pair stages equally long streams, so the arena holds exactly one.
  EXPECT_GT(plan.stages[0].staged_bytes, 0u);
  EXPECT_EQ(plan.stages[0].staged_bytes, plan.stages[1].staged_bytes);
  EXPECT_EQ(plan.arena_bytes, plan.stages[0].staged_bytes);
}

TEST(PipelinePlan, CoversVerdictRangeOnMixedChain) {
  const analysis::PipelinePlan plan =
      analysis::plan_pipeline(load_pipeline("pipeline_mixed.casc"));
  ASSERT_EQ(plan.stages.size(), 4u);
  // The seed stage reads only what it writes, so it stages nothing; the two
  // gathers stage the same slots; the tail stages half as many iterations.
  EXPECT_TRUE(plan.stages[0].staged_signature.empty());
  EXPECT_EQ(plan.stages[0].staged_bytes, 0u);
  EXPECT_EQ(plan.stages[1].staged_signature.size(), 3u);
  EXPECT_EQ(plan.stages[2].staged_signature.size(), 3u);
  EXPECT_EQ(plan.stages[3].iterations, plan.stages[1].iterations / 2);
  // Stages run one after another, so the arena is the largest stream, not
  // the sum.
  std::uint64_t largest = 0;
  for (const analysis::StagePlan& s : plan.stages) {
    largest = std::max(largest, s.staged_bytes);
  }
  EXPECT_EQ(plan.arena_bytes, largest);
}

TEST(PipelinePlan, RendersDeterministicJson) {
  const analysis::PipelinePlan plan =
      analysis::plan_pipeline(load_pipeline("pipeline_mixed.casc"));
  const std::string a = plan.render_json();
  const std::string b = plan.render_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"arena_bytes\": " + std::to_string(plan.arena_bytes)),
            std::string::npos);
  EXPECT_NE(a.find("\"via\": \"cell\""), std::string::npos);
  EXPECT_EQ(a.find("region_"), std::string::npos);
  EXPECT_EQ(a.find("\"pairs\""), std::string::npos);
}

/// The three committed pipelines and the call-12 PARMVR chain.
std::vector<loopir::PipelineSpec> committed_pipelines() {
  std::vector<loopir::PipelineSpec> specs;
  for (const std::string& file : kPipelineSpecs) specs.push_back(load_pipeline(file));
  specs.push_back(wave5::make_parmvr_pipeline(/*scale=*/64));
  return specs;
}

TEST(PipelinePlan, ArenaHoldsTheLargestMaterializedStream) {
  // The plan's signatures mirror the materializer, so the arena it sizes is
  // exactly the largest staged stream a stage loop resolves.
  for (const loopir::PipelineSpec& spec : committed_pipelines()) {
    const exec::MaterializedPipeline pipe(spec);
    std::uint64_t largest = 0;
    for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
      largest = std::max(largest, pipe.stage(k).staged_refs_total() * 8);
    }
    EXPECT_EQ(pipe.plan().arena_bytes, largest) << spec.name;
  }
}

TEST(PipelinePlan, NoStageProofHoldsACertificate) {
  // A stage spec marks exactly the arrays its stage writes as rw, so no claim
  // is ever demoted: the certificate-aware gate the engine uses returns the
  // strict verdict, and no proof restages a stage beyond the plan's arena.
  for (const loopir::PipelineSpec& spec : committed_pipelines()) {
    const exec::MaterializedPipeline pipe(spec);
    for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
      const exec::MaterializedLoop& stage = pipe.stage(k);
      const std::uint64_t ipc = exec::plan_for(stage, 64 * 1024).iters_per_chunk();
      EXPECT_TRUE(stage.demoted_claims().empty()) << spec.name << " stage " << k;
      EXPECT_FALSE(stage.restructure_proof(ipc).certificate.has_value())
          << spec.name << " stage " << k;
      EXPECT_EQ(exec::gate_for(stage, 64 * 1024, 4, nullptr).is_proven(),
                exec::gate_for(stage, 64 * 1024).is_proven())
          << spec.name << " stage " << k;
    }
  }
}

// ---- chain state: one checksum, over the written arrays --------------------

bool written_by_some_stage(const loopir::PipelineSpec& spec,
                           const std::string& array) {
  return std::any_of(spec.stages.begin(), spec.stages.end(),
                     [&](const loopir::PipelineSpec::Stage& stage) {
                       return stage.writes(array);
                     });
}

/// The shared storage of pipeline array `decl`, reached through a stage that
/// binds it; nullptr when no stage references the array.
const std::byte* shared_bytes(const exec::MaterializedPipeline& pipe,
                              const loopir::LoopSpec::ArrayDecl& decl) {
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    const loopir::LoopNest& nest = pipe.stage(k).nest();
    for (loopir::ArrayId id = 0; id < nest.num_arrays(); ++id) {
      if (nest.array(id).name == decl.name) return pipe.stage(k).array_data(id);
    }
  }
  return nullptr;
}

std::uint64_t decl_bytes(const loopir::LoopSpec::ArrayDecl& decl) {
  return std::uint64_t{decl.elem_size} * decl.num_elems;
}

/// The test's own FNV-1a over every shared array some stage writes, in
/// declaration order: the value PipelineResult::rw_checksum must carry.
std::uint64_t written_fnv(const exec::MaterializedPipeline& pipe) {
  std::uint64_t hash = test::kFnvBasis;
  for (const loopir::LoopSpec::ArrayDecl& decl : pipe.spec().arrays) {
    if (!written_by_some_stage(pipe.spec(), decl.name)) continue;
    const std::byte* data = shared_bytes(pipe, decl);
    EXPECT_NE(data, nullptr) << decl.name;
    if (data != nullptr) hash = test::fnv1a(hash, data, decl_bytes(decl));
  }
  return hash;
}

/// Byte-compares the shared arrays of `got` and `want` (two materializations
/// of one spec): the arrays some stage writes when `written`, else the ones
/// no stage writes.
void expect_arrays_identical(const exec::MaterializedPipeline& got,
                             const exec::MaterializedPipeline& want,
                             bool written, const std::string& where) {
  for (const loopir::LoopSpec::ArrayDecl& decl : got.spec().arrays) {
    if (written_by_some_stage(got.spec(), decl.name) != written) continue;
    const std::byte* a = shared_bytes(got, decl);
    const std::byte* b = shared_bytes(want, decl);
    if (a == nullptr || b == nullptr) continue;  // unreferenced: never touched
    EXPECT_EQ(std::memcmp(a, b, decl_bytes(decl)), 0)
        << where << " array " << decl.name;
  }
}

// ---- execution: three paths, one digest ------------------------------------

void expect_three_way_identity(const loopir::PipelineSpec& spec) {
  exec::MaterializedPipeline pipe(spec);
  // A chain checks its state once per run: the result carries the test's
  // own FNV-1a over the written arrays, and no stage computes a checksum.
  auto expect_state_checked_once = [&](const exec::PipelineResult& r,
                                       const std::string& where) {
    EXPECT_EQ(r.rw_checksum, written_fnv(pipe)) << spec.name << " " << where;
    for (const exec::PipelineStageResult& s : r.stages) {
      EXPECT_EQ(s.result.rw_checksum, 0u)
          << spec.name << " " << where << " stage " << s.name;
    }
  };
  const exec::PipelineResult ref = exec::run_pipeline_reference(pipe);
  ASSERT_EQ(ref.stages.size(), spec.stages.size());
  expect_state_checked_once(ref, "reference");
  EXPECT_NE(ref.rw_checksum, test::kFnvBasis) << spec.name;  // bytes were hashed

  for (const unsigned threads : {1u, 2u, 4u}) {
    rt::ExecutorConfig cfg;
    cfg.num_threads = threads;
    rt::CascadeExecutor executor(cfg);
    for (const exec::HelperMode mode :
         {exec::HelperMode::kNone, exec::HelperMode::kPrefetch,
          exec::HelperMode::kRestructure}) {
      exec::RtOptions opt;
      opt.helper = mode;
      const std::string where = "threads=" + std::to_string(threads) +
                                " mode=" + std::to_string(static_cast<int>(mode));
      const exec::PipelineResult got =
          exec::run_pipeline_cascaded(pipe, executor, opt);
      expect_state_checked_once(got, "pipelined " + where);
      EXPECT_EQ(got.chain_digest, ref.chain_digest)
          << spec.name << " threads=" << threads
          << " mode=" << static_cast<int>(mode);
      EXPECT_EQ(got.rw_checksum, ref.rw_checksum)
          << spec.name << " threads=" << threads
          << " mode=" << static_cast<int>(mode);
      for (std::size_t k = 0; k < got.stages.size(); ++k) {
        EXPECT_EQ(got.stages[k].result.digest, ref.stages[k].result.digest)
            << spec.name << " stage " << k;
      }

      const exec::PipelineResult ind =
          exec::run_pipeline_independent(pipe, threads, opt);
      expect_state_checked_once(ind, "independent " + where);
      EXPECT_EQ(ind.chain_digest, ref.chain_digest) << spec.name;
      EXPECT_EQ(ind.rw_checksum, ref.rw_checksum) << spec.name;
    }
  }
}

TEST(PipelineExec, ReusePairAgreesAcrossAllPaths) {
  expect_three_way_identity(load_pipeline("pipeline_reuse.casc"));
}

TEST(PipelineExec, IndexClobberFallsBackAndStaysIdentical) {
  // The middle stage rewrites the index array the outer gathers route
  // through, so the last stage must gather through the rewritten indices.
  expect_three_way_identity(load_pipeline("pipeline_index_clobber.casc"));
}

TEST(PipelineExec, MixedChainAgreesAcrossAllPaths) {
  expect_three_way_identity(load_pipeline("pipeline_mixed.casc"));
}

TEST(PipelineExec, ParmvrCall12AgreesAcrossAllPaths) {
  expect_three_way_identity(wave5::make_parmvr_pipeline(/*scale=*/64));
}

TEST(PipelineExec, ParmvrFullScaleAgreesAcrossAllPaths) {
  // The benchmarked chain: 15 stages over 14 MiB, 9 MiB of it written.
  expect_three_way_identity(wave5::make_parmvr_pipeline(/*scale=*/1));
}

TEST(PipelineExec, ChunkPlanPermutationsLeaveResultsStable) {
  // Digest and checksum are chunk-geometry-independent: any iters_per_chunk
  // yields the bit-identical chain result.
  const loopir::PipelineSpec spec = load_pipeline("pipeline_mixed.casc");
  exec::MaterializedPipeline pipe(spec);
  const exec::PipelineResult ref = exec::run_pipeline_reference(pipe);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 4;
  rt::CascadeExecutor executor(cfg);
  for (const std::uint64_t ipc : {0ull, 64ull, 100ull, 512ull, 5000ull}) {
    exec::RtOptions opt;
    opt.iters_per_chunk = ipc;
    const exec::PipelineResult got =
        exec::run_pipeline_cascaded(pipe, executor, opt);
    EXPECT_EQ(got.chain_digest, ref.chain_digest) << "ipc=" << ipc;
    EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << "ipc=" << ipc;
  }
}

TEST(PipelineExec, RepeatedRunsAreDeterministic) {
  exec::MaterializedPipeline pipe(load_pipeline("pipeline_reuse.casc"));
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  const exec::PipelineResult a = exec::run_pipeline_cascaded(pipe, executor);
  const exec::PipelineResult b = exec::run_pipeline_cascaded(pipe, executor);
  EXPECT_EQ(a.chain_digest, b.chain_digest);
  EXPECT_EQ(a.rw_checksum, b.rw_checksum);
}

TEST(PipelineExec, SecondRunServesEveryStageProofFromTheMemo) {
  // Every stage proves its chunk geometry on the first run; the proof lives
  // on the stage's MaterializedLoop, so the second run proves nothing and
  // behaves identically.
  exec::MaterializedPipeline pipe(wave5::make_parmvr_pipeline(/*scale=*/64));
  const exec::PipelineResult ref = exec::run_pipeline_reference(pipe);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  const exec::PipelineResult first = exec::run_pipeline_cascaded(pipe, executor);
  const exec::PipelineResult second = exec::run_pipeline_cascaded(pipe, executor);
  for (const exec::PipelineStageResult& s : first.stages) {
    EXPECT_GT(s.result.gate_seconds, 0.0) << s.name;
  }
  for (const exec::PipelineStageResult& s : second.stages) {
    EXPECT_EQ(s.result.gate_seconds, 0.0) << s.name;
  }
  EXPECT_EQ(first.chain_digest, ref.chain_digest);
  EXPECT_EQ(second.chain_digest, ref.chain_digest);
  EXPECT_EQ(second.rw_checksum, ref.rw_checksum);
}

// ---- chain state under chaos ----------------------------------------------

TEST(PipelineState, ChaosFallsBackAndLeavesTheStateExact) {
  // Seeded helper faults on the pipelined restructure path: the chain must
  // still produce the reference bits, the arrays no stage writes must come
  // out of the runs untouched, and reset() must restore the rest.
  constexpr std::uint64_t kIpc = 128;
  std::uint64_t degraded_stages = 0;
  for (const loopir::PipelineSpec& spec : committed_pipelines()) {
    const exec::MaterializedPipeline fresh(spec);
    exec::MaterializedPipeline pipe(spec);
    const exec::PipelineResult ref = exec::run_pipeline_reference(pipe);
    std::uint64_t chunks = 1;
    for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
      chunks = std::max(chunks, (pipe.stage(k).num_iterations() + kIpc - 1) / kIpc);
    }
    for (const unsigned threads : {2u, 4u}) {
      rt::ExecutorConfig cfg;
      cfg.num_threads = threads;
      // Retry instantly: repeat faults drive quarantine and reclamation.
      cfg.resilience.retry_backoff = std::chrono::milliseconds(0);
      rt::CascadeExecutor executor(cfg);
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        rt::ChaosOptions chaos_opt;
        chaos_opt.fault_rate = 0.5;
        chaos_opt.max_stall = std::chrono::milliseconds(1);
        const rt::ChaosPlan plan = rt::ChaosPlan::make(seed, chunks, kIpc, chaos_opt);
        exec::RtOptions opt;
        opt.helper = exec::HelperMode::kRestructure;
        opt.iters_per_chunk = kIpc;
        opt.chaos = &plan;
        const std::string where = spec.name + " threads=" + std::to_string(threads) +
                                  " seed=" + std::to_string(seed);
        const exec::PipelineResult got =
            exec::run_pipeline_cascaded(pipe, executor, opt);
        EXPECT_EQ(got.chain_digest, ref.chain_digest) << where;
        EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << where;
        for (const exec::PipelineStageResult& stage : got.stages) {
          if (stage.result.degraded) ++degraded_stages;
        }

        expect_arrays_identical(pipe, fresh, /*written=*/false, where);
        pipe.reset();
        expect_arrays_identical(pipe, fresh, /*written=*/true, where + " reset");
      }
    }
  }
  // The schedules did degrade stages.
  EXPECT_GT(degraded_stages, 0u);
}

}  // namespace
