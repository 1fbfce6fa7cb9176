// Pipelines end to end: PipelineSpec parsing (collecting rules), the staging
// plan, and the two execution paths — the sequential reference and the
// pipelined cascade (one executor, one staging arena) — which must agree bit
// for bit on every spec, every helper mode, every worker count, every chunk
// geometry, and every seeded chaos schedule.  The reference's chain digest
// and checksum are pinned as recorded constants, so a change both paths
// share cannot hide behind their comparison.  Stage specs carry
// honest claims, so no stage proof holds a certificate and the arena the
// plan sizes holds every stage's stream.  The chain's state bookkeeping is
// pinned too: one checksum per run, over exactly the arrays some stage
// writes, that follows a change to any of their bytes, and a reset that
// restores them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
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

TEST(PipelinePlan, GatherPairArenaHoldsOneStream) {
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

TEST(PipelinePlan, MixedChainArenaIsTheLargestStream) {
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

std::byte* shared_bytes(exec::MaterializedPipeline& pipe,
                        const loopir::LoopSpec::ArrayDecl& decl) {
  return const_cast<std::byte*>(shared_bytes(std::as_const(pipe), decl));
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

// ---- execution: two paths, one digest --------------------------------------

/// A chain's recorded reference digest and checksum: the reference must
/// keep reproducing them.
struct Pinned {
  std::uint64_t chain_digest;
  std::uint64_t rw_checksum;
};

void expect_matches_reference(const loopir::PipelineSpec& spec,
                              const Pinned& pinned) {
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
  EXPECT_EQ(ref.chain_digest, pinned.chain_digest) << spec.name;
  EXPECT_EQ(ref.rw_checksum, pinned.rw_checksum) << spec.name;

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
      EXPECT_EQ(got.chain_digest, ref.chain_digest) << spec.name << " " << where;
      EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << spec.name << " " << where;
      for (std::size_t k = 0; k < got.stages.size(); ++k) {
        EXPECT_EQ(got.stages[k].result.digest, ref.stages[k].result.digest)
            << spec.name << " " << where << " stage " << k;
      }
    }
  }
}

TEST(PipelineExec, GatherPairAgreesAcrossAllPaths) {
  expect_matches_reference(load_pipeline("pipeline_reuse.casc"),
                           {0xe1b9a7d4eb2bc20full, 0xe39f452c89afed11ull});
}

TEST(PipelineExec, IndexClobberGathersThroughRewrittenIndices) {
  // The middle stage rewrites the index array the outer gathers route
  // through, so the last stage must gather through the rewritten indices.
  expect_matches_reference(load_pipeline("pipeline_index_clobber.casc"),
                           {0x282ebb750a1d2c2full, 0x66926fa04d1406a5ull});
}

TEST(PipelineExec, MixedChainAgreesAcrossAllPaths) {
  expect_matches_reference(load_pipeline("pipeline_mixed.casc"),
                           {0x79bbd1275cdd6c46ull, 0xe505a11a50022275ull});
}

TEST(PipelineExec, ParmvrCall12AgreesAcrossAllPaths) {
  expect_matches_reference(wave5::make_parmvr_pipeline(/*scale=*/64),
                           {0x4ef6088ed6e7c136ull, 0xb6d7951a70dcb848ull});
}

TEST(PipelineExec, ParmvrFullScaleAgreesAcrossAllPaths) {
  // The benchmarked chain: 15 stages over 14 MiB, 9 MiB of it written.
  expect_matches_reference(wave5::make_parmvr_pipeline(/*scale=*/1),
                           {0xb718d4c31f755126ull, 0x05ee039d9f6808a2ull});
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

TEST(PipelineExec, RestructureRunProvesEachStageAtTheGeometryItExecutes) {
  // A restructure run proves every stage before stage 0 runs, spread over
  // the executor's workers.  With an explicit iters_per_chunk that no stage
  // plans from the byte budget, the proofs must land on that geometry, not
  // on the planned one: proving a geometry other than the executed one
  // could admit a ring the executed chunks race on.
  constexpr std::uint64_t kIpc = 37;
  for (const unsigned threads : {4u, 1u}) {
    exec::MaterializedPipeline pipe(wave5::make_parmvr_pipeline(/*scale=*/64));
    const exec::PipelineResult ref = exec::run_pipeline_reference(pipe);
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kRestructure;
    opt.iters_per_chunk = kIpc;
    for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
      const exec::MaterializedLoop& stage = pipe.stage(k);
      ASSERT_GT(stage.num_iterations(), kIpc) << "stage " << k;
      ASSERT_NE(exec::plan_for(stage, opt.chunk_bytes).iters_per_chunk(), kIpc)
          << "stage " << k;
    }
    rt::ExecutorConfig cfg;
    cfg.num_threads = threads;
    rt::CascadeExecutor executor(cfg);
    const exec::PipelineResult first = exec::run_pipeline_cascaded(pipe, executor, opt);
    const std::string where = "threads=" + std::to_string(threads);
    EXPECT_EQ(first.chain_digest, ref.chain_digest) << where;
    EXPECT_EQ(first.rw_checksum, ref.rw_checksum) << where;
    for (const exec::PipelineStageResult& s : first.stages) {
      EXPECT_GT(s.result.gate_seconds, 0.0) << where << " " << s.name;
    }
    for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
      const exec::MaterializedLoop& stage = pipe.stage(k);
      double executed = -1.0;
      (void)stage.restructure_proof(kIpc, &executed);
      EXPECT_EQ(executed, 0.0) << where << " stage " << k << " executed geometry";
      double planned = -1.0;
      (void)stage.restructure_proof(
          exec::plan_for(stage, opt.chunk_bytes).iters_per_chunk(), &planned);
      EXPECT_GT(planned, 0.0) << where << " stage " << k << " planned geometry";
    }
  }
}

TEST(PipelineExec, ChainTimesAreTheSumsOfItsStageTimes) {
  // A chain's seconds and gate_seconds are its stages' sums, so the proofs
  // of a fresh chain's first restructure run never count as loop time, and
  // the whole-chain ratio over the reference is a mediant of the stage
  // ratios: it lies between the slowest and the fastest stage's.
  exec::MaterializedPipeline pipe(wave5::make_parmvr_pipeline(/*scale=*/64));
  const exec::PipelineResult ref = exec::run_pipeline_reference(pipe);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  const exec::PipelineResult first = exec::run_pipeline_cascaded(pipe, executor);
  const exec::PipelineResult second = exec::run_pipeline_cascaded(pipe, executor);
  for (const exec::PipelineResult* run : {&ref, &first, &second}) {
    double seconds = 0.0;
    double gate_seconds = 0.0;
    for (const exec::PipelineStageResult& s : run->stages) {
      seconds += s.result.seconds;
      gate_seconds += s.result.gate_seconds;
    }
    EXPECT_DOUBLE_EQ(run->seconds, seconds);
    EXPECT_DOUBLE_EQ(run->gate_seconds, gate_seconds);
  }
  EXPECT_EQ(ref.gate_seconds, 0.0);
  EXPECT_GT(first.gate_seconds, 0.0);
  EXPECT_EQ(second.gate_seconds, 0.0);

  for (const exec::PipelineResult* run : {&first, &second}) {
    ASSERT_EQ(run->stages.size(), ref.stages.size());
    double slowest = 0.0;
    double fastest = 0.0;
    for (std::size_t k = 0; k < ref.stages.size(); ++k) {
      ASSERT_GT(run->stages[k].result.seconds, 0.0) << run->stages[k].name;
      const double ratio =
          ref.stages[k].result.seconds / run->stages[k].result.seconds;
      slowest = k == 0 ? ratio : std::min(slowest, ratio);
      fastest = k == 0 ? ratio : std::max(fastest, ratio);
    }
    const double whole = ref.seconds / run->seconds;
    EXPECT_GE(whole, slowest * (1.0 - 1e-9));
    EXPECT_LE(whole, fastest * (1.0 + 1e-9));
  }
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

    // The chain's checksum answers a call that finds the state it last
    // hashed from a byte comparison.  Flip the first byte of the first
    // written array, then the last byte of the last one: each time the
    // checksum must follow the change, and return with the original byte.
    (void)exec::run_pipeline_reference(pipe);
    std::vector<const loopir::LoopSpec::ArrayDecl*> written;
    for (const loopir::LoopSpec::ArrayDecl& decl : spec.arrays) {
      if (written_by_some_stage(spec, decl.name)) written.push_back(&decl);
    }
    ASSERT_FALSE(written.empty()) << spec.name;
    std::byte* const first = shared_bytes(pipe, *written.front());
    std::byte* const last = shared_bytes(pipe, *written.back()) +
                            decl_bytes(*written.back()) - 1;
    for (std::byte* const byte : {first, last}) {
      const std::string where = spec.name + (byte == first ? " first" : " last");
      *byte = ~*byte;
      const std::uint64_t flipped = pipe.rw_checksum();
      EXPECT_EQ(flipped, written_fnv(pipe)) << where;
      EXPECT_NE(flipped, ref.rw_checksum) << where;
      *byte = ~*byte;
      EXPECT_EQ(pipe.rw_checksum(), ref.rw_checksum) << where << " restored";
    }
  }
  // The schedules did degrade stages.
  EXPECT_GT(degraded_stages, 0u);
}

TEST(PipelineState, ConcurrentChecksumCallsAreExact) {
  // As for a single loop: on a fresh chain the first caller records the
  // state while the rest wait for it; after a run every call compares.
  exec::MaterializedPipeline pipe(wave5::make_parmvr_pipeline(/*scale=*/64));
  const auto checksum = [&pipe] { return pipe.rw_checksum(); };
  EXPECT_EQ(test::count_mismatched_calls(4, 200, written_fnv(pipe), checksum),
            0u);
  const std::uint64_t ref = exec::run_pipeline_reference(pipe).rw_checksum;
  EXPECT_EQ(test::count_mismatched_calls(4, 200, ref, checksum), 0u);
}

}  // namespace
