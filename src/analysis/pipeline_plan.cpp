#include "casc/analysis/pipeline_plan.hpp"

#include <algorithm>
#include <sstream>

#include "casc/telemetry/json.hpp"

namespace casc::analysis {

namespace {

/// Builds the staged slot signature of one stage, mirroring the
/// materializer's staging decisions exactly (materialize.cpp): the nest
/// emits, per access in body order, an index-load ref (always stageable)
/// followed by the element ref (stageable iff it is a read of an array the
/// stage never writes); an `update` access lowers to a read then a write of
/// the same site.
std::vector<StagedSlot> signature_of(const loopir::PipelineSpec& spec,
                                     const loopir::PipelineSpec::Stage& stage) {
  std::vector<StagedSlot> sig;
  auto emit_site = [&](const loopir::LoopSpec::AccessDecl& acc, bool is_write) {
    if (acc.index_via) {
      const loopir::LoopSpec::ArrayDecl* via = spec.find_array(*acc.index_via);
      StagedSlot idx;
      idx.array = *acc.index_via;
      idx.is_index_load = true;
      idx.elem_size = via != nullptr ? via->elem_size : 4;
      idx.stride = acc.stride;
      idx.offset = acc.offset;
      sig.push_back(std::move(idx));
    }
    if (is_write) return;
    if (stage.writes(acc.array)) return;  // rw in the stage spec: not staged
    const loopir::LoopSpec::ArrayDecl* decl = spec.find_array(acc.array);
    StagedSlot slot;
    slot.array = acc.array;
    slot.elem_size = decl != nullptr ? decl->elem_size : 4;
    slot.stride = acc.stride;
    slot.offset = acc.offset;
    if (acc.index_via) slot.via = *acc.index_via;
    sig.push_back(std::move(slot));
  };
  for (const loopir::LoopSpec::AccessDecl& acc : stage.accesses) {
    if (acc.update) {
      emit_site(acc, /*is_write=*/false);
      emit_site(acc, /*is_write=*/true);
    } else {
      emit_site(acc, acc.is_write);
    }
  }
  return sig;
}

}  // namespace

PipelinePlan plan_pipeline(const loopir::PipelineSpec& spec) {
  PipelinePlan plan;
  plan.pipeline = spec.name;

  plan.stages.reserve(spec.stages.size());
  for (const loopir::PipelineSpec::Stage& stage : spec.stages) {
    StagePlan sp;
    sp.name = stage.name;
    sp.trip = stage.trip;
    sp.step = std::max<std::uint64_t>(1, stage.step);
    sp.iterations = stage.trip == 0 ? 0 : (stage.trip + sp.step - 1) / sp.step;
    sp.staged_signature = signature_of(spec, stage);
    // The helper gathers every staged value as one zero-extended 64-bit
    // word (materialize.hpp), so the stream costs 8 bytes per slot.
    sp.staged_bytes = sp.iterations * sp.staged_signature.size() * 8;
    plan.arena_bytes = std::max(plan.arena_bytes, sp.staged_bytes);
    plan.stages.push_back(std::move(sp));
  }
  return plan;
}

std::string PipelinePlan::render_text() const {
  std::ostringstream os;
  os << "pipeline " << pipeline << ": " << stages.size() << " stages, arena "
     << arena_bytes << " bytes\n";
  for (std::size_t k = 0; k < stages.size(); ++k) {
    const StagePlan& s = stages[k];
    os << "  stage " << k << " '" << s.name << "': " << s.iterations
       << " iters, " << s.staged_signature.size() << " staged slots/iter, "
       << s.staged_bytes << " staged bytes\n";
  }
  return os.str();
}

void PipelinePlan::render_json(telemetry::JsonWriter& w) const {
  w.begin_object();
  w.key("pipeline");
  w.value(pipeline);
  w.key("arena_bytes");
  w.value(arena_bytes);
  w.key("stages");
  w.begin_array();
  for (std::size_t k = 0; k < stages.size(); ++k) {
    const StagePlan& s = stages[k];
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("iterations");
    w.value(s.iterations);
    w.key("trip");
    w.value(s.trip);
    w.key("step");
    w.value(s.step);
    w.key("staged_bytes");
    w.value(s.staged_bytes);
    w.key("signature");
    w.begin_array();
    for (const StagedSlot& slot : s.staged_signature) {
      w.begin_object();
      w.key("array");
      w.value(slot.array);
      w.key("kind");
      w.value(slot.is_index_load ? "index-load"
                                 : (slot.via.empty() ? "affine" : "gather"));
      w.key("elem_size");
      w.value(static_cast<std::uint64_t>(slot.elem_size));
      w.key("stride");
      w.value(slot.stride);
      w.key("offset");
      w.value(slot.offset);
      w.key("via");
      w.value(slot.via);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string PipelinePlan::render_json() const {
  std::ostringstream os;
  telemetry::JsonWriter w(os, 2);
  render_json(w);
  os << "\n";
  return os.str();
}

}  // namespace casc::analysis
