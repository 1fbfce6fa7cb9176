#include "subject.hpp"

#include <algorithm>

#include "casc/analysis/certifier.hpp"
#include "casc/analysis/pipeline_plan.hpp"
#include "casc/analysis/verifier.hpp"
#include "casc/common/stopwatch.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/loopir/pipeline_spec.hpp"

namespace perfbench {

namespace {

using casc::exec::ExecResult;
using casc::exec::HelperMode;

void add_result(Outcome& out, const ExecResult& r) {
  out.loop_s += r.seconds;
  out.chunks += r.num_chunks;
  out.staged_chunks += r.staged_chunks;
  out.transfers += r.transfers;
  out.helpers_completed += r.helpers_completed;
  out.helpers_jumped_out += r.helpers_jumped_out;
  out.degraded = out.degraded || r.degraded;
}

std::uint64_t array_bytes(const std::vector<casc::loopir::LoopSpec::ArrayDecl>& arrays) {
  std::uint64_t bytes = 0;
  for (const auto& a : arrays) bytes += std::uint64_t{a.elem_size} * a.num_elems;
  return bytes;
}

/// A single loop as the one-stage pipeline it is, with honest mutability
/// claims (the pipeline form rejects writes to `ro` arrays).
casc::loopir::PipelineSpec one_stage(const casc::loopir::LoopSpec& spec) {
  casc::loopir::PipelineSpec p;
  p.name = spec.name;
  p.layout = spec.layout;
  p.arrays = spec.arrays;
  casc::loopir::PipelineSpec::Stage stage;
  stage.name = spec.name;
  stage.trip = spec.trip;
  stage.step = spec.step;
  stage.compute_cycles = spec.compute_cycles;
  stage.restructured_compute = spec.restructured_compute;
  stage.accesses = spec.accesses;
  for (auto& a : p.arrays) {
    if (stage.writes(a.name)) a.read_only = false;
  }
  p.stages.push_back(std::move(stage));
  return p;
}

class LoopSubject final : public Subject {
 public:
  LoopSubject(const std::string& text, casc::rt::CascadeExecutor& executor,
              std::uint64_t chunk_bytes)
      : Subject(executor, chunk_bytes) {
    casc::common::Stopwatch sw;
    const casc::loopir::LoopSpec spec = casc::loopir::LoopSpec::parse(text);
    times_.parse_ms = sw.elapsed_seconds() * 1e3;
    sw.restart();
    (void)casc::analysis::plan_pipeline(one_stage(spec));
    times_.plan_ms = sw.elapsed_seconds() * 1e3;
    sw.restart();
    loop_ = std::make_unique<casc::exec::MaterializedLoop>(spec);
    times_.materialize_ms = sw.elapsed_seconds() * 1e3;
  }

  Outcome reference() override {
    Outcome out;
    const ExecResult r = casc::exec::run_reference(*loop_);
    add_result(out, r);
    out.digest = r.digest;
    out.checksum = r.rw_checksum;
    return out;
  }

  Outcome cascaded(HelperMode mode) override {
    casc::exec::RtOptions opt;
    opt.helper = mode;
    opt.chunk_bytes = chunk_bytes_;
    Outcome out;
    const ExecResult r = casc::exec::run_cascaded(*loop_, executor_, opt);
    add_result(out, r);
    out.digest = r.digest;
    out.checksum = r.rw_checksum;
    return out;
  }

  void reset() override { loop_->reset(); }

  void gate() override {
    std::vector<std::string> certified;
    (void)casc::exec::gate_for(*loop_, chunk_bytes_, executor_.num_threads(),
                               &certified);
  }

  std::uint64_t checksum() override { return loop_->rw_checksum(); }

  void analyze() override {
    casc::analysis::AnalyzeOptions opt;
    opt.chunk_bytes = chunk_bytes_;
    (void)casc::analysis::analyze(loop_->spec(), opt);
  }

  void certify() override {
    casc::analysis::CertifyOptions opt;
    opt.chunk_bytes = chunk_bytes_;
    (void)casc::analysis::certify(loop_->spec(), opt);
  }

  [[nodiscard]] std::vector<Geometry> geometry() const override {
    return {{loop_->num_iterations(),
             casc::exec::plan_for(*loop_, chunk_bytes_).iters_per_chunk()}};
  }
  [[nodiscard]] const casc::exec::MaterializedLoop& gather_loop() const override {
    return *loop_;
  }
  [[nodiscard]] std::uint64_t planned_reuse() const override { return 0; }
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return array_bytes(loop_->spec().arrays);
  }

 private:
  std::unique_ptr<casc::exec::MaterializedLoop> loop_;
};

class ChainSubject final : public Subject {
 public:
  ChainSubject(const std::string& text, casc::rt::CascadeExecutor& executor,
               std::uint64_t chunk_bytes)
      : Subject(executor, chunk_bytes) {
    casc::common::Stopwatch sw;
    const casc::loopir::PipelineSpec spec = casc::loopir::PipelineSpec::parse(text);
    times_.parse_ms = sw.elapsed_seconds() * 1e3;
    sw.restart();
    (void)casc::analysis::plan_pipeline(spec);
    times_.plan_ms = sw.elapsed_seconds() * 1e3;
    sw.restart();
    pipe_ = std::make_unique<casc::exec::MaterializedPipeline>(spec);
    times_.materialize_ms = sw.elapsed_seconds() * 1e3;
    // Until a restructure run says otherwise, assume every plan-proven pair
    // replays its predecessor's stream (the runner's behaviour on a clean run).
    for (std::size_t k = 0; k < pipe_->num_stages(); ++k) {
      reused_.push_back(pipe_->reuses_previous(k));
    }
  }

  Outcome reference() override {
    return summarize(casc::exec::run_pipeline_reference(*pipe_));
  }

  Outcome cascaded(HelperMode mode) override {
    casc::exec::RtOptions opt;
    opt.helper = mode;
    opt.chunk_bytes = chunk_bytes_;
    const casc::exec::PipelineResult r =
        casc::exec::run_pipeline_cascaded(*pipe_, executor_, opt);
    if (mode == HelperMode::kRestructure) {
      for (std::size_t k = 0; k < r.stages.size(); ++k) {
        reused_[k] = r.stages[k].reused_staging;
      }
    }
    return summarize(r);
  }

  void reset() override { pipe_->reset(); }

  void gate() override {
    for (std::size_t k = 0; k < pipe_->num_stages(); ++k) {
      if (gated(k)) (void)casc::exec::gate_for(pipe_->stage(k), chunk_bytes_);
    }
  }

  std::uint64_t checksum() override {
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < pipe_->num_stages(); ++k) {
      sum ^= pipe_->stage(k).rw_checksum();
    }
    return sum ^ pipe_->rw_checksum();
  }

  void analyze() override {
    casc::analysis::AnalyzeOptions opt;
    opt.chunk_bytes = chunk_bytes_;
    for (std::size_t k = 0; k < pipe_->num_stages(); ++k) {
      if (gated(k)) (void)casc::analysis::analyze(pipe_->stage(k).spec(), opt);
    }
  }

  void certify() override {
    casc::analysis::CertifyOptions opt;
    opt.chunk_bytes = chunk_bytes_;
    for (std::size_t k = 0; k < pipe_->num_stages(); ++k) {
      if (gated(k)) (void)casc::analysis::certify(pipe_->stage(k).spec(), opt);
    }
  }

  [[nodiscard]] std::vector<Geometry> geometry() const override {
    std::vector<Geometry> out;
    for (std::size_t k = 0; k < pipe_->num_stages(); ++k) {
      const casc::exec::MaterializedLoop& loop = pipe_->stage(k);
      out.emplace_back(loop.num_iterations(),
                       casc::exec::plan_for(loop, chunk_bytes_).iters_per_chunk());
    }
    return out;
  }

  [[nodiscard]] const casc::exec::MaterializedLoop& gather_loop() const override {
    std::size_t best = 0;
    for (std::size_t k = 1; k < pipe_->num_stages(); ++k) {
      if (pipe_->stage(k).staged_refs_total() >
          pipe_->stage(best).staged_refs_total()) {
        best = k;
      }
    }
    return pipe_->stage(best);
  }

  [[nodiscard]] std::uint64_t planned_reuse() const override {
    return pipe_->plan().stages_reusing();
  }
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return array_bytes(pipe_->spec().arrays);
  }

 private:
  /// The runner gates a stage that stages into its own arena region.
  [[nodiscard]] bool gated(std::size_t k) {
    return pipe_->region(k) != nullptr && !reused_[k];
  }

  static Outcome summarize(const casc::exec::PipelineResult& r) {
    Outcome out;
    for (const casc::exec::PipelineStageResult& s : r.stages) {
      add_result(out, s.result);
    }
    out.digest = r.chain_digest;
    out.checksum = r.rw_checksum;
    out.stages_reused = r.stages_reused;
    return out;
  }

  std::unique_ptr<casc::exec::MaterializedPipeline> pipe_;
  std::vector<bool> reused_;
};

}  // namespace

std::unique_ptr<Subject> make_subject(const std::string& text,
                                      casc::rt::CascadeExecutor& executor,
                                      std::uint64_t chunk_bytes) {
  if (casc::loopir::is_pipeline_text(text)) {
    return std::make_unique<ChainSubject>(text, executor, chunk_bytes);
  }
  return std::make_unique<LoopSubject>(text, executor, chunk_bytes);
}

}  // namespace perfbench
