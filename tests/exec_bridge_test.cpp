// Cross-backend equivalence: every spec in tests/specs/, materialized by
// casc::exec, must produce bit-identical results on the real threaded
// runtime — for every helper mode, several worker counts, and chunk
// geometries — compared against plain sequential interpretation.  Also pins
// the chunk-plan parity contract: sim and rt derive their chunk geometry
// from the same core::ChunkPlan call, so identical options yield identical
// plans.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casc/analysis/certifier.hpp"
#include "casc/analysis/verifier.hpp"
#include "casc/cascade/engine.hpp"
#include "casc/core/chunk.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "test_util.hpp"

namespace {

using namespace casc;

loopir::LoopSpec load_spec(const std::string& file) {
  const std::string path = std::string(CASC_TEST_SPEC_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return loopir::LoopSpec::parse(buffer.str());
}

const std::vector<std::string> kSpecs = {
    "dense_sum.casc",  "spmv_small.casc",        "unsafe_seeded.casc",
    "histogram.casc",  "dot_product.casc",       "sparse_accumulate.casc",
    "gather_split.casc"};

TEST(ExecBridge, ReferenceRunsAreDeterministic) {
  for (const std::string& file : kSpecs) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult a = exec::run_reference(loop);
    const exec::ExecResult b = exec::run_reference(loop);
    EXPECT_EQ(a.digest, b.digest) << file;
    EXPECT_EQ(a.rw_checksum, b.rw_checksum) << file;
    EXPECT_EQ(a.total_iters, loop.num_iterations()) << file;
  }
}

TEST(ExecBridge, CascadedMatchesReferenceBitForBit) {
  for (const std::string& file : kSpecs) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    for (const unsigned threads : {1u, 2u, 4u}) {
      rt::ExecutorConfig cfg;
      cfg.num_threads = threads;
      rt::CascadeExecutor executor(cfg);
      for (const exec::HelperMode mode :
           {exec::HelperMode::kNone, exec::HelperMode::kPrefetch,
            exec::HelperMode::kRestructure}) {
        exec::RtOptions opt;
        opt.helper = mode;
        const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
        EXPECT_EQ(got.digest, ref.digest)
            << file << " threads=" << threads << " mode=" << static_cast<int>(mode);
        EXPECT_EQ(got.rw_checksum, ref.rw_checksum)
            << file << " threads=" << threads << " mode=" << static_cast<int>(mode);
      }
    }
  }
}

/// The test's own FNV-1a over the loop's writable arrays, in array order:
/// the value run_reference and run_cascaded report, and the one svc replies
/// and `cascctl --verify-local` compare.
std::uint64_t writable_fnv(const exec::MaterializedLoop& loop) {
  std::uint64_t hash = test::kFnvBasis;
  const loopir::LoopNest& nest = loop.nest();
  for (loopir::ArrayId id = 0; id < nest.num_arrays(); ++id) {
    if (nest.array(id).read_only) continue;
    hash = test::fnv1a(hash, loop.array_data(id), nest.array(id).size_bytes());
  }
  return hash;
}

TEST(ExecBridge, ChecksumIsFnv1aOverTheWritableArrays) {
  for (const std::string& file : kSpecs) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    EXPECT_EQ(ref.rw_checksum, writable_fnv(loop)) << file;
    EXPECT_NE(ref.rw_checksum, test::kFnvBasis) << file;  // bytes were hashed
    rt::ExecutorConfig cfg;
    cfg.num_threads = 2;
    rt::CascadeExecutor executor(cfg);
    for (const exec::HelperMode mode :
         {exec::HelperMode::kNone, exec::HelperMode::kPrefetch,
          exec::HelperMode::kRestructure}) {
      exec::RtOptions opt;
      opt.helper = mode;
      const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
      EXPECT_EQ(got.rw_checksum, writable_fnv(loop))
          << file << " mode=" << static_cast<int>(mode);
      EXPECT_EQ(got.rw_checksum, ref.rw_checksum)
          << file << " mode=" << static_cast<int>(mode);
    }
  }
}

TEST(ExecBridge, NonDefaultChunkGeometryStillMatches) {
  exec::MaterializedLoop loop(load_spec("dense_sum.casc"));
  const exec::ExecResult ref = exec::run_reference(loop);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 3;
  rt::CascadeExecutor executor(cfg);
  for (const std::uint64_t ipc : {1ull, 7ull, 1024ull, 1ull << 20}) {
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kRestructure;
    opt.iters_per_chunk = ipc;
    const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
    EXPECT_EQ(got.digest, ref.digest) << "ipc=" << ipc;
    EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << "ipc=" << ipc;
  }
}

// Elements of 256 bytes or more: every path moves min(elem_size, 8) bytes,
// so a 260-byte rw element and a 256-byte ro element resolve to 8-byte
// references (a width truncated to one byte would read 4 and 0).
constexpr const char* kWideElements = R"(
loop wide_elements
trip 96
compute 4 3
layout conflicting
array y 260 16 rw
array z 256 8 ro
array a 8 96 ro
access a read
access z read stride 3
access y read
access y write
)";

TEST(ExecBridge, WideElementsMoveEightBytesOnEveryPath) {
  exec::MaterializedLoop loop(loopir::LoopSpec::parse(kWideElements));
  for (const exec::ResolvedRef* ref = loop.refs_begin(0); ref != loop.refs_end(0);
       ++ref) {
    EXPECT_EQ(8u, ref->size) << "array " << ref->array;
  }
  const exec::BodyShape& shape = loop.body_shape();
  ASSERT_EQ(4u, shape.slots.size());
  for (const exec::BodySlot& slot : shape.slots) {
    EXPECT_EQ(8u, slot.width) << loop.nest().array(slot.array).name;
  }
  EXPECT_EQ(260u, loop.nest().array(shape.slots.back().array).elem_size);

  const exec::ExecResult ref = exec::run_reference(loop);
  for (const unsigned threads : {1u, 2u, 4u}) {
    rt::ExecutorConfig cfg;
    cfg.num_threads = threads;
    rt::CascadeExecutor executor(cfg);
    for (const exec::HelperMode mode :
         {exec::HelperMode::kNone, exec::HelperMode::kPrefetch,
          exec::HelperMode::kRestructure}) {
      for (const std::uint64_t ipc : {0ull, 5ull}) {
        exec::RtOptions opt;
        opt.helper = mode;
        opt.iters_per_chunk = ipc;
        const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
        EXPECT_EQ(got.digest, ref.digest) << "threads=" << threads << " mode="
                                          << static_cast<int>(mode) << " ipc=" << ipc;
        EXPECT_EQ(got.rw_checksum, ref.rw_checksum)
            << "threads=" << threads << " mode=" << static_cast<int>(mode)
            << " ipc=" << ipc;
      }
    }
  }
}

TEST(ExecBridge, SafeSpecStagesAndRunsGated) {
  exec::MaterializedLoop loop(load_spec("dense_sum.casc"));
  EXPECT_TRUE(loop.demoted_claims().empty());
  EXPECT_TRUE(exec::gate_for(loop, 64 * 1024).is_proven());
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
  EXPECT_FALSE(got.preflight_refused);
  EXPECT_GT(got.staged_chunks, 0u);
}

TEST(ExecBridge, CertifiedDisjointGatherStagesDespiteFalseClaim) {
  // The acceptance spec for the race certifier: 't' is claimed read-only but
  // written, so the strict verifier refuses — yet the resolved addresses
  // prove staged reads (lower half) and writes (upper half) never meet.  The
  // certificate overturns the refusal and the loop runs restructured with
  // bit-identical results.
  exec::MaterializedLoop loop(load_spec("gather_split.casc"));
  EXPECT_EQ(loop.demoted_claims(), std::vector<std::string>{"t"});
  // The strict gate (claims only) refuses...
  EXPECT_FALSE(exec::gate_for(loop, 64 * 1024).is_proven());
  // ...but the certificate-aware gate proves it for any ring.
  std::vector<std::string> certified;
  EXPECT_TRUE(exec::gate_for(loop, 64 * 1024, 4, &certified).is_proven());
  EXPECT_NE(std::find(certified.begin(), certified.end(), "t"),
            certified.end());

  const exec::ExecResult ref = exec::run_reference(loop);
  for (const unsigned threads : {2u, 4u}) {
    rt::ExecutorConfig cfg;
    cfg.num_threads = threads;
    rt::CascadeExecutor executor(cfg);
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kRestructure;
    const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
    EXPECT_FALSE(got.preflight_refused) << got.preflight_diag;
    EXPECT_GT(got.staged_chunks, 0u) << "threads=" << threads;
    EXPECT_EQ(got.digest, ref.digest) << "threads=" << threads;
    EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << "threads=" << threads;
  }

  // A fresh loop whose first call is a restructure run: the proof inside
  // that run restages 't', which grows the staged stream, so the loop's
  // staging region must be sized after the proof.
  exec::MaterializedLoop fresh(load_spec("gather_split.casc"));
  const std::uint64_t unproven_refs = fresh.staged_refs_total();
  rt::ExecutorConfig cfg;
  cfg.num_threads = 4;
  rt::CascadeExecutor executor(cfg);
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  const exec::ExecResult got = exec::run_cascaded(fresh, executor, opt);
  EXPECT_GT(fresh.staged_refs_total(), unproven_refs);
  EXPECT_GT(got.gate_seconds, 0.0);
  EXPECT_FALSE(got.preflight_refused) << got.preflight_diag;
  EXPECT_GT(got.staged_chunks, 0u);
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.rw_checksum, ref.rw_checksum);
}

TEST(ExecBridge, ReductionSpecsRunCorrectlyButDoNotStage) {
  // update-sum accumulators are never stage candidates; the runs stay
  // token-ordered (and therefore bit-identical) with no staged chunks from
  // the accumulator side.
  for (const std::string& file :
       {std::string("histogram.casc"), std::string("sparse_accumulate.casc")}) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    rt::ExecutorConfig cfg;
    cfg.num_threads = 2;
    rt::CascadeExecutor executor(cfg);
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kRestructure;
    const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
    EXPECT_EQ(got.digest, ref.digest) << file;
    EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << file;
  }
}

TEST(ExecBridge, UnsafeSpecRefusesRestructureButStaysCorrect) {
  exec::MaterializedLoop loop(load_spec("unsafe_seeded.casc"));
  // The false read-only claim on 'y' is demoted at materialization...
  EXPECT_EQ(loop.demoted_claims(), std::vector<std::string>{"y"});
  // ...and refuses the restructure gate (the verifier judges the ORIGINAL
  // claims, not the sanitized nest).
  EXPECT_FALSE(exec::gate_for(loop, 64 * 1024).is_proven());

  const exec::ExecResult ref = exec::run_reference(loop);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
  EXPECT_TRUE(got.preflight_refused);
  EXPECT_FALSE(got.preflight_diag.empty());
  EXPECT_EQ(got.staged_chunks, 0u);
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.rw_checksum, ref.rw_checksum);
}

// ---- the memoized restructure proof ------------------------------------------

/// The gate verdict built directly from the analysis library with no memo:
/// the reference a loop's memoized proof must reproduce.
struct DirectVerdict {
  bool proven = false;
  std::string rule;  ///< refusal rule (empty when proven)
  std::vector<std::string> certified;
};

DirectVerdict direct_verdict(const loopir::LoopSpec& spec,
                             std::uint64_t chunk_bytes, std::uint64_t workers) {
  analysis::AnalyzeOptions opt;
  opt.chunk_bytes = chunk_bytes;
  const analysis::AnalysisReport report = analysis::analyze(spec, opt);
  DirectVerdict v;
  if (report.restructure_eligible) {
    v.proven = true;
    return v;
  }
  bool only_staging = true;
  for (const common::Diagnostic& d : report.diags.items()) {
    if (d.severity != common::Severity::kError) continue;
    if (v.rule.empty()) v.rule = d.rule;
    if (d.rule != "classify-write-ro" && d.rule != "hazard-cross-chunk" &&
        d.rule != "shadow-write-ro" && d.rule != "shadow-hazard-cross-chunk") {
      only_staging = false;
    }
  }
  if (v.rule.empty()) v.rule = "preflight-unproven";
  if (only_staging) {
    analysis::CertifyOptions copt;
    copt.chunk_bytes = chunk_bytes;
    const analysis::Certificate cert = analysis::certify(spec, copt);
    if (cert.certifies_staging(workers)) {
      v.proven = true;
      v.rule.clear();
      v.certified = cert.certified_operands(workers);
    }
  }
  return v;
}

TEST(ExecBridgeProof, MemoizedVerdictMatchesDirectAnalysis) {
  for (const std::string& file : kSpecs) {
    const loopir::LoopSpec spec = load_spec(file);
    exec::MaterializedLoop loop(spec);
    for (const std::uint64_t chunk_bytes : {16u * 1024u, 64u * 1024u}) {
      for (const std::uint64_t workers : {1u, 2u, 4u}) {
        const DirectVerdict want = direct_verdict(spec, chunk_bytes, workers);
        std::vector<std::string> certified;
        const rt::PreflightGate got =
            exec::gate_for(loop, chunk_bytes, workers, &certified);
        const std::string where = file + " chunk=" + std::to_string(chunk_bytes) +
                                  " workers=" + std::to_string(workers);
        EXPECT_EQ(got.is_proven(), want.proven) << where;
        if (!want.proven) {
          EXPECT_EQ(got.reason().rule, want.rule) << where;
        }
        EXPECT_EQ(certified, want.certified) << where;
      }
      // The strict overload answers from the same proof: the claims alone.
      analysis::AnalyzeOptions opt;
      opt.chunk_bytes = chunk_bytes;
      EXPECT_EQ(exec::gate_for(loop, chunk_bytes).is_proven(),
                analysis::analyze(spec, opt).restructure_eligible)
          << file << " chunk=" << chunk_bytes;
    }
  }
}

TEST(ExecBridgeProof, SecondRestructureRunServesTheProofFromTheMemo) {
  for (const std::string& file :
       {std::string("dense_sum.casc"), std::string("gather_split.casc"),
        std::string("unsafe_seeded.casc")}) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    EXPECT_EQ(ref.gate_seconds, 0.0) << file;  // the reference never gates
    rt::ExecutorConfig cfg;
    cfg.num_threads = 2;
    rt::CascadeExecutor executor(cfg);
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kRestructure;
    const exec::ExecResult first = exec::run_cascaded(loop, executor, opt);
    const exec::ExecResult second = exec::run_cascaded(loop, executor, opt);
    EXPECT_GT(first.gate_seconds, 0.0) << file;
    EXPECT_EQ(second.gate_seconds, 0.0) << file;
    EXPECT_EQ(first.preflight_refused, second.preflight_refused) << file;
    EXPECT_EQ(first.digest, ref.digest) << file;
    EXPECT_EQ(second.digest, ref.digest) << file;
    EXPECT_EQ(second.rw_checksum, ref.rw_checksum) << file;

    // Prefetch runs never prove; a new worker count reuses the geometry's
    // proof.
    opt.helper = exec::HelperMode::kPrefetch;
    EXPECT_EQ(exec::run_cascaded(loop, executor, opt).gate_seconds, 0.0) << file;
    rt::ExecutorConfig wide;
    wide.num_threads = 4;
    rt::CascadeExecutor wide_executor(wide);
    opt.helper = exec::HelperMode::kRestructure;
    const exec::ExecResult wider = exec::run_cascaded(loop, wide_executor, opt);
    EXPECT_EQ(wider.gate_seconds, 0.0) << file;
    EXPECT_EQ(wider.digest, ref.digest) << file;
  }
}

bool same_shape(const exec::BodyShape& a, const exec::BodyShape& b) {
  return a.slots == b.slots && a.staged == b.staged &&
         a.staged_reads == b.staged_reads && a.plain_reads == b.plain_reads &&
         a.writes == b.writes;
}

TEST(ExecBridgeProof, CertifiedRestagingHappensOnceAndThenFreezes) {
  exec::MaterializedLoop loop(load_spec("gather_split.casc"));
  const exec::ExecResult ref = exec::run_reference(loop);
  const std::uint64_t demoted_total = loop.staged_refs_total();

  rt::ExecutorConfig cfg;
  cfg.num_threads = 4;
  rt::CascadeExecutor executor(cfg);
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  const exec::ExecResult first = exec::run_cascaded(loop, executor, opt);
  ASSERT_FALSE(first.preflight_refused) << first.preflight_diag;
  EXPECT_EQ(first.digest, ref.digest);
  // The certificate re-enabled 't': the first proof restaged it.
  const std::uint64_t staged_total = loop.staged_refs_total();
  EXPECT_GT(staged_total, demoted_total);
  const exec::BodyShape shape = loop.body_shape();

  for (int run = 0; run < 3; ++run) {
    const exec::ExecResult again = exec::run_cascaded(loop, executor, opt);
    EXPECT_EQ(again.digest, ref.digest) << "run " << run;
    EXPECT_EQ(again.rw_checksum, ref.rw_checksum) << "run " << run;
    EXPECT_EQ(loop.staged_refs_total(), staged_total) << "run " << run;
    EXPECT_TRUE(same_shape(loop.body_shape(), shape)) << "run " << run;
  }
  // A new geometry is proven afresh, but its certificate restages the same
  // operands: the stream stays as it is.
  opt.chunk_bytes = 16 * 1024;
  const exec::ExecResult other = exec::run_cascaded(loop, executor, opt);
  EXPECT_GT(other.gate_seconds, 0.0);
  EXPECT_EQ(other.digest, ref.digest);
  EXPECT_EQ(loop.staged_refs_total(), staged_total);
  EXPECT_TRUE(same_shape(loop.body_shape(), shape));
}

// Bounded-distance flow (certifier_test's kFlow8): the write at iteration i
// is staged-read at i + 8192.  At 24 bytes/iteration a 24 KiB chunk holds
// 1024 iterations, so every flow pair is 8 chunks apart; 2048-iteration
// chunks leave 4, 2731- and 4096-iteration chunks only 2.
constexpr const char* kFlow8 = R"(
loop flow8
trip 32768
compute 4 3
layout conflicting
array s 8 32768 ro
array k 8 32768 ro
access k read
access s read offset -8192
access s write
)";

TEST(ExecBridgeProof, OverriddenChunkGeometryIsTheOneProven) {
  // The gate must prove the chunks the run executes, not the ones
  // chunk_bytes would give: the certificate's ring bound is a chunk
  // distance.  On a 4-worker ring, overrides that keep the distance >= 4
  // stage; overrides that shrink it below 4 must refuse, or the helpers
  // stage 's' before its writer runs.
  exec::MaterializedLoop loop(loopir::LoopSpec::parse(kFlow8));
  ASSERT_EQ(loop.demoted_claims(), std::vector<std::string>{"s"});
  const exec::ExecResult ref = exec::run_reference(loop);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 4;
  rt::CascadeExecutor executor(cfg);
  for (const std::uint64_t ipc : {1024u, 2048u, 2731u, 4096u}) {
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kRestructure;
    opt.chunk_bytes = 24 * 1024;
    opt.iters_per_chunk = ipc;
    const bool stages = ipc <= 2048;
    std::uint64_t staged_chunks = 0;
    for (int run = 0; run < 5; ++run) {
      const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
      EXPECT_EQ(got.iters_per_chunk, ipc);
      EXPECT_EQ(got.preflight_refused, !stages) << "ipc=" << ipc;
      EXPECT_EQ(got.digest, ref.digest) << "ipc=" << ipc << " run " << run;
      EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << "ipc=" << ipc << " run " << run;
      staged_chunks += got.staged_chunks;
    }
    if (stages) {
      EXPECT_GT(staged_chunks, 0u) << "ipc=" << ipc;
    } else {
      EXPECT_EQ(staged_chunks, 0u) << "ipc=" << ipc;
    }
    // The memo holds the executed geometry's certificate.
    const exec::RestructureProof& proof = loop.restructure_proof(ipc);
    ASSERT_TRUE(proof.certificate.has_value()) << "ipc=" << ipc;
    EXPECT_EQ(proof.certificate->chunk_iters, ipc);
    EXPECT_EQ(proof.certificate->max_safe_workers, 8192 / ipc);
  }
}

TEST(ExecBridge, ChunkPlanParityAcrossBackends) {
  constexpr std::uint64_t kChunkBytes = 64 * 1024;
  for (const std::string& file : kSpecs) {
    exec::MaterializedLoop loop(load_spec(file));
    const loopir::LoopNest& nest = loop.nest();

    // Both backends must call the one shared planner with the same inputs.
    const core::ChunkPlan shared = core::ChunkPlan::for_iters_per_bytes(
        nest.num_iterations(), nest.bytes_per_iteration(), kChunkBytes);
    const core::ChunkPlan rt_plan = exec::plan_for(loop, kChunkBytes);
    EXPECT_EQ(rt_plan.iters_per_chunk(), shared.iters_per_chunk()) << file;
    EXPECT_EQ(rt_plan.num_chunks(), shared.num_chunks()) << file;

    // The simulated cascade over the same nest lands on the same chunk count.
    cascade::CascadeSimulator sim(sim::MachineConfig::pentium_pro());
    cascade::CascadeOptions sim_opt;
    sim_opt.chunk_bytes = kChunkBytes;
    sim_opt.helper = cascade::HelperKind::kPrefetch;
    const cascade::CascadeResult sim_result = sim.run_cascaded(nest, sim_opt);
    EXPECT_EQ(sim_result.num_chunks, shared.num_chunks()) << file;

    // And so does the real run, end to end.
    rt::CascadeExecutor executor{rt::ExecutorConfig{}};
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kNone;
    opt.chunk_bytes = kChunkBytes;
    const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
    EXPECT_EQ(got.iters_per_chunk, shared.iters_per_chunk()) << file;
    EXPECT_EQ(got.num_chunks, shared.num_chunks()) << file;
  }
}

TEST(ExecBridgeChaos, AnyChaosScheduleMatchesReferenceBitForBit) {
  // The fail-soft acceptance property, cross-backend: whatever seeded mix of
  // helper kills, stalls, and corrupt-staging commits a schedule contains,
  // the cascaded run must produce the sequential reference bits — for every
  // helper mode (kNone runs the faults on a no-op helper) and across worker
  // counts.  Exceptions must not escape: chaos plans are helper-site only.
  for (const std::string& file : kSpecs) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    for (const unsigned threads : {2u, 4u}) {
      rt::ExecutorConfig cfg;
      cfg.num_threads = threads;
      // Retry instantly: these runs are far shorter than a real backoff, and
      // the repeat faults drive workers into quarantine and reclamation.
      cfg.resilience.retry_backoff = std::chrono::milliseconds(0);
      rt::CascadeExecutor executor(cfg);
      for (const exec::HelperMode mode :
           {exec::HelperMode::kNone, exec::HelperMode::kPrefetch,
            exec::HelperMode::kRestructure}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          exec::RtOptions opt;
          opt.helper = mode;
          const std::uint64_t ipc = exec::plan_for(loop, opt.chunk_bytes).iters_per_chunk();
          const std::uint64_t chunks =
              (loop.num_iterations() + ipc - 1) / ipc;
          rt::ChaosOptions chaos_opt;
          chaos_opt.fault_rate = 0.5;
          chaos_opt.max_stall = std::chrono::milliseconds(1);
          const rt::ChaosPlan plan =
              rt::ChaosPlan::make(seed, chunks, ipc, chaos_opt);
          opt.chaos = &plan;
          const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
          EXPECT_EQ(got.digest, ref.digest)
              << file << " threads=" << threads << " mode=" << static_cast<int>(mode)
              << " seed=" << seed;
          EXPECT_EQ(got.rw_checksum, ref.rw_checksum)
              << file << " threads=" << threads << " mode=" << static_cast<int>(mode)
              << " seed=" << seed;
          if (got.helper_faults > 0) EXPECT_TRUE(got.degraded);
        }
      }
    }
  }
}

TEST(ExecBridgeChaos, SoftBudgetDemotionKeepsResultsIdentical) {
  // Drive the budget ladder explicitly: a tiny budget demotes helpers (and
  // then the whole cascade to sequential) mid-run, and the bits still match.
  exec::MaterializedLoop loop(load_spec("dense_sum.casc"));
  const exec::ExecResult ref = exec::run_reference(loop);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 4;
  rt::CascadeExecutor executor(cfg);
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  opt.soft_budget_factor = 1.0;
  opt.estimated_seq_seconds = 1e-6;  // ~1us budget: demotes almost at once
  const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.rw_checksum, ref.rw_checksum);
  // Budgets persist on the executor; reset so later tests see a clean slate.
  executor.set_soft_budget(std::chrono::milliseconds(0),
                           std::chrono::milliseconds(0));
}

}  // namespace
