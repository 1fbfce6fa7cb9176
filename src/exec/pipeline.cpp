#include "casc/exec/pipeline.hpp"

#include "casc/common/check.hpp"
#include "array_state.hpp"

namespace casc::exec {

namespace {

/// Arena ceiling: 8 GB of staged stream across the whole chain.  Far above
/// every committed spec; far below anything that could take the host down.
constexpr std::uint64_t kMaxArenaBytes = 8ull << 30;

/// The declared bytes of a pipeline array (its storage may be rounded up).
std::uint64_t decl_bytes(const loopir::LoopSpec::ArrayDecl& decl) {
  return std::uint64_t{decl.elem_size} * decl.num_elems;
}

}  // namespace

MaterializedPipeline::MaterializedPipeline(const loopir::PipelineSpec& spec)
    : spec_(spec), plan_(analysis::plan_pipeline(spec)) {
  CASC_CHECK(!spec_.stages.empty(),
             "pipeline '" + spec_.name + "' has no loop blocks");
  CASC_CHECK(plan_.arena_bytes <= kMaxArenaBytes,
             "pipeline '" + spec_.name + "' staging arena too large");

  shared_.reserve(spec_.arrays.size());
  for (const loopir::LoopSpec::ArrayDecl& decl : spec_.arrays) {
    shared_.emplace_back(decl_bytes(decl));
  }
  auto bind = [this](const std::string& name,
                     std::uint64_t bytes) -> std::byte* {
    for (std::size_t i = 0; i < spec_.arrays.size(); ++i) {
      if (spec_.arrays[i].name == name) {
        CASC_CHECK(bytes <= shared_[i].size(),
                   "stage array '" + name + "' outgrows the shared storage");
        return shared_[i].data();
      }
    }
    return nullptr;  // never reached: stage specs only carry pipeline arrays
  };
  stages_.reserve(spec_.stages.size());
  for (std::size_t k = 0; k < spec_.stages.size(); ++k) {
    stages_.push_back(
        std::make_unique<MaterializedLoop>(spec_.stage_spec(k), bind));
  }
  if (plan_.arena_bytes > 0) {
    arena_ = common::AlignedStorage(plan_.arena_bytes);
  }
  // Every array starts filled; only the ones some stage writes ever change.
  // An array no stage writes is `ro` in every stage spec, and the
  // interpreter stores only through write references, so reset() and
  // rw_checksum() skip it.
  std::vector<detail::ArraySpan> written;
  for (std::size_t i = 0; i < spec_.arrays.size(); ++i) {
    fill_array(i);
    for (const loopir::PipelineSpec::Stage& stage : spec_.stages) {
      if (stage.writes(spec_.arrays[i].name)) {
        written.push_back({shared_[i].data(), decl_bytes(spec_.arrays[i])});
        break;
      }
    }
  }
  initial_ = std::make_unique<const detail::ArraySnapshot>(written);
  checksum_ = std::make_unique<const detail::StateChecksum>(std::move(written));
}

MaterializedPipeline::~MaterializedPipeline() = default;

void MaterializedPipeline::fill_array(std::size_t i) {
  const loopir::LoopSpec::ArrayDecl& decl = spec_.arrays[i];
  std::byte* out = shared_[i].data();
  if (decl.pattern) {
    // Index array: storage holds the values SOME stage's nest materialized
    // for it.  Every stage declaring it as an index array materializes the
    // identical sequence (same pattern/seed/param/size), so any stage
    // serves; a chain where every user clobbers it has no pattern consumer,
    // and the data fill below is as good a start state as any.
    for (const std::unique_ptr<MaterializedLoop>& stage : stages_) {
      const loopir::LoopNest& nest = stage->nest();
      for (loopir::ArrayId id = 0; id < nest.num_arrays(); ++id) {
        if (nest.array(id).name != decl.name) continue;
        const std::vector<std::uint32_t>& values = nest.index_values(id);
        if (values.empty()) break;
        detail::fill_index(out, decl.elem_size, values);
        return;
      }
    }
  }
  // Data array: keyed by the PIPELINE-level array position, so every run
  // (and every execution path over this pipeline) sees identical operand
  // values.
  detail::fill_random(out, decl_bytes(decl), i);
}

void MaterializedPipeline::reset() { initial_->restore(); }

std::uint64_t MaterializedPipeline::rw_checksum() const {
  return checksum_->value();
}

}  // namespace casc::exec
