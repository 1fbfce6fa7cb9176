#include "casc/analysis/passes.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "casc/core/chunk.hpp"

namespace casc::analysis {

namespace {

// Mirror of the region the engine carves out for sequential buffers
// (engine.cpp kBufferRegionBase): loop data must stay strictly below it.
constexpr std::uint64_t kBufferRegionBase = 1ull << 44;

using loopir::LoopSpec;

/// Per-executed-iteration element delta of an affine access site: iteration
/// it touches element offset + stride * (it * step).
std::int64_t elem_delta(const LoopSpec::AccessDecl& acc, std::uint64_t step) {
  return acc.stride * static_cast<std::int64_t>(step);
}

std::uint64_t executed_iterations(const LoopSpec& spec) {
  if (spec.trip == 0 || spec.step == 0) return 0;
  return (spec.trip + spec.step - 1) / spec.step;
}

const LoopSpec::ArrayDecl* find_array(const LoopSpec& spec,
                                      const std::string& name) {
  for (const auto& decl : spec.arrays) {
    if (decl.name == name) return &decl;
  }
  return nullptr;
}

bool claimed_read_only(const LoopSpec::ArrayDecl& decl) {
  return decl.read_only || decl.pattern.has_value();
}

/// Affine element range [lo, hi] of an access over the whole trip.
void affine_range(const LoopSpec::AccessDecl& acc, std::uint64_t iters,
                  std::uint64_t step, std::int64_t& lo, std::int64_t& hi) {
  const std::int64_t first = acc.offset;
  const std::int64_t last =
      acc.offset + elem_delta(acc, step) * static_cast<std::int64_t>(iters - 1);
  lo = std::min(first, last);
  hi = std::max(first, last);
}

std::string iter_range_str(std::int64_t lo, std::int64_t hi) {
  return std::string("[")
      .append(std::to_string(lo))
      .append(", ")
      .append(std::to_string(hi))
      .append("]");
}

/// One read or write site.  Plain accesses are one site; a commutative
/// update is a read site followed by a write site at the same element, which
/// is exactly how instantiate() lowers it — the footprint and dependence
/// passes reason about sites so both shapes of a[i] = f(a[i]) analyze
/// identically.
struct Site {
  LoopSpec::AccessDecl acc;   ///< with is_write reflecting THIS site
  std::size_t decl_index = 0; ///< position in LoopSpec::accesses
};

std::vector<Site> expand_sites(const LoopSpec& spec) {
  std::vector<Site> sites;
  sites.reserve(spec.accesses.size() + 4);
  for (std::size_t i = 0; i < spec.accesses.size(); ++i) {
    const LoopSpec::AccessDecl& acc = spec.accesses[i];
    if (acc.update) {
      LoopSpec::AccessDecl r = acc;
      r.update.reset();
      r.is_write = false;
      sites.push_back({r, i});
      LoopSpec::AccessDecl w = acc;
      w.update.reset();
      w.is_write = true;
      sites.push_back({w, i});
    } else {
      sites.push_back({acc, i});
    }
  }
  return sites;
}

}  // namespace

std::vector<OperandClass> classify_operands(const LoopSpec& spec,
                                            common::DiagnosticList& diags) {
  std::vector<OperandClass> classes;
  classes.reserve(spec.arrays.size());
  for (const auto& decl : spec.arrays) {
    OperandClass c;
    c.name = decl.name;
    c.is_index = decl.pattern.has_value();
    c.claimed_ro = claimed_read_only(decl);
    bool mixed_ops = false;
    for (const auto& acc : spec.accesses) {
      if (acc.array == decl.name) {
        if (acc.reads()) c.read = true;
        if (acc.writes()) c.written = true;
        if (acc.update) {
          c.updated = true;
          const std::string op = loopir::to_string(*acc.update);
          if (c.reduce_op.empty()) {
            c.reduce_op = op;
          } else if (c.reduce_op != op) {
            mixed_ops = true;
          }
        } else {
          (acc.is_write ? c.plain_written : c.plain_read) = true;
        }
      }
      if (acc.index_via && *acc.index_via == decl.name) {
        // The index array is loaded to resolve the target element; a read of
        // partially-accumulated values if the operand is also updated.
        c.used_as_via = true;
        c.read = true;
        c.plain_read = true;
      }
    }
    if (mixed_ops) {
      c.reduce_op.clear();
      diags.warning("reduce-mixed-op",
                    "array '" + decl.name +
                        "' is updated with more than one combine operator; a "
                        "per-worker partial accumulator has no single merge "
                        "operator, so the operand degrades to plain rw",
                    decl.name, decl.line);
    }
    if (c.written && c.claimed_ro) {
      int line = decl.line;
      for (const auto& acc : spec.accesses) {
        if (acc.writes() && acc.array == decl.name) {
          line = acc.line;
          break;
        }
      }
      diags.error("classify-write-ro",
                  "array '" + decl.name + "' is declared " +
                      (c.is_index ? std::string("as an index array (implicitly "
                                                "read-only)")
                                  : std::string("read-only")) +
                      " but the loop body writes it; the read-only claim is "
                      "false and any helper that stages its values is unsound",
                  decl.name, line);
    }
    if (!c.read && !c.written) {
      diags.warning("unused-array",
                    "array '" + decl.name +
                        "' is declared but never accessed; it still consumes "
                        "address space and footprint budget",
                    decl.name, decl.line);
    }
    if (!c.claimed_ro && c.read && !c.written) {
      diags.note("rw-never-written",
                 "array '" + decl.name +
                     "' is declared rw but the loop never writes it; "
                     "declaring it ro would let the restructuring helper "
                     "stage its values",
                 decl.name, decl.line);
    }
    if (c.updated && !mixed_ops && (c.plain_read || c.plain_written) &&
        !c.claimed_ro) {
      diags.note("reduce-impure",
                 "array '" + decl.name +
                     "' mixes commutative updates with plain " +
                     (c.plain_read ? std::string("reads") : std::string("writes")) +
                     "; a plain access observes partial accumulation, so the "
                     "operand cannot be privatized (token order still "
                     "preserves it as rw)",
                 decl.name, decl.line);
    }
    if (c.reduction()) {
      diags.note("requires-privatization",
                 "operand '" + decl.name + "' is a " + c.reduce_op +
                     "-reduction (every access is '" + c.reduce_op +
                     "' update of one element); the restructuring helper "
                     "cannot stage it, but a privatization runtime may stage "
                     "per-worker partial accumulators and merge them with "
                     "operator " + c.reduce_op +
                     " on token hand-off — the eligibility certificate "
                     "records the operand and operator",
                 decl.name, decl.line);
    }
    classes.push_back(c);
  }
  return classes;
}

void check_index_ranges(const LoopSpec& spec, common::DiagnosticList& diags) {
  const std::uint64_t iters = executed_iterations(spec);
  if (iters == 0) return;
  for (const auto& acc : spec.accesses) {
    if (acc.index_via) {
      const LoopSpec::ArrayDecl* via = find_array(spec, *acc.index_via);
      if (via == nullptr) continue;  // parser already diagnosed undeclared-array
      if (!via->pattern) {
        diags.error("via-not-index",
                    "access to '" + acc.array + "' is indirect via '" +
                        via->name +
                        "', which is a plain array; only index arrays "
                        "(declared with 'index') carry materialized values "
                        "that can drive an indirect access",
                    acc.array, acc.line);
        continue;
      }
      // The affine part of an indirect access is the position into the index
      // array; the target range is value-dependent (whole array).
      std::int64_t lo = 0;
      std::int64_t hi = 0;
      affine_range(acc, iters, spec.step, lo, hi);
      if (lo < 0 || hi >= static_cast<std::int64_t>(via->num_elems)) {
        diags.warning("index-wrap",
                      "index positions " + iter_range_str(lo, hi) +
                          " into '" + via->name + "' exceed its extent " +
                          std::to_string(via->num_elems) +
                          " and wrap modulo the extent; re-reading wrapped "
                          "positions changes the dependence structure",
                      via->name, acc.line);
      }
      continue;
    }
    const LoopSpec::ArrayDecl* target = find_array(spec, acc.array);
    if (target == nullptr) continue;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    affine_range(acc, iters, spec.step, lo, hi);
    if (lo < 0 || hi >= static_cast<std::int64_t>(target->num_elems)) {
      diags.warning("index-wrap",
                    "affine elements " + iter_range_str(lo, hi) + " of '" +
                        acc.array + "' exceed its extent " +
                        std::to_string(target->num_elems) +
                        " and wrap modulo the extent; wrapped accesses "
                        "revisit elements and change the dependence structure",
                    acc.array, acc.line);
    }
  }
}

StaticFootprint compute_footprints(const LoopSpec& spec,
                                   std::uint64_t chunk_bytes) {
  StaticFootprint fp;
  const std::uint64_t iters = executed_iterations(spec);
  // Sites, not declarations: an update lowers to a read and a write, and the
  // nest counts both.
  const std::vector<Site> sites = expand_sites(spec);
  // Mirror LoopNest::bytes_per_iteration: loop-invariant sites (stride 0)
  // stay cached and do not count toward chunk sizing.
  for (const Site& site : sites) {
    const auto& acc = site.acc;
    if (acc.stride == 0) continue;
    const LoopSpec::ArrayDecl* target = find_array(spec, acc.array);
    fp.bytes_per_iteration += target != nullptr ? target->elem_size : 4;
    if (acc.index_via) {
      const LoopSpec::ArrayDecl* via = find_array(spec, *acc.index_via);
      fp.bytes_per_iteration += via != nullptr ? via->elem_size : 4;
    }
  }
  if (iters == 0) return fp;
  const core::ChunkPlan plan = core::ChunkPlan::for_iters_per_bytes(
      iters, std::max<std::uint64_t>(fp.bytes_per_iteration, 1), chunk_bytes);
  fp.chunk_iters = plan.iters_per_chunk();
  fp.num_chunks = plan.num_chunks();

  for (const Site& site : sites) {
    const auto& acc = site.acc;
    AccessFootprint af;
    af.access_index = site.decl_index;
    af.array = acc.array;
    af.is_write = acc.is_write;
    af.indirect = acc.index_via.has_value();
    const LoopSpec::ArrayDecl* target = find_array(spec, acc.array);
    if (target == nullptr) continue;  // undeclared: parser already errored
    const std::uint64_t array_bytes =
        static_cast<std::uint64_t>(target->elem_size) * target->num_elems;
    affine_range(acc, iters, spec.step, af.min_elem, af.max_elem);
    af.wraps =
        af.min_elem < 0 ||
        af.max_elem >= static_cast<std::int64_t>(std::max<std::uint64_t>(
                           target->num_elems, 1));
    // Distinct elements one chunk can touch: one per iteration for a moving
    // site, one total for a loop-invariant one; never more than the array.
    const std::uint64_t distinct =
        acc.stride == 0 && !acc.index_via ? 1 : fp.chunk_iters;
    af.chunk_bytes_bound = std::min(array_bytes, distinct * target->elem_size);
    if (acc.index_via) {
      const LoopSpec::ArrayDecl* via = find_array(spec, *acc.index_via);
      if (via != nullptr) {
        af.chunk_bytes_bound +=
            std::min(via->num_elems * via->elem_size,
                     fp.chunk_iters * static_cast<std::uint64_t>(via->elem_size));
      }
    }
    fp.per_chunk_bound += af.chunk_bytes_bound;
    // What the restructuring helper would stage for this site: operand
    // values of claimed-read-only reads (and the index loads resolving
    // them); writes and plain rw reads are left to the execution phase.
    if (!acc.is_write && claimed_read_only(*target)) {
      fp.staged_chunk_bound += af.chunk_bytes_bound;
    }
    fp.accesses.push_back(af);
  }
  return fp;
}

std::vector<AffineDependence> check_dependences(
    const LoopSpec& spec, const std::vector<OperandClass>& classes,
    std::uint64_t chunk_iters, common::DiagnosticList& diags) {
  std::vector<AffineDependence> deps;
  const std::uint64_t iters = executed_iterations(spec);
  if (iters == 0) return deps;

  std::unordered_map<std::string, const OperandClass*> class_of;
  for (const auto& c : classes) class_of[c.name] = &c;

  auto staged = [&](const std::string& array) {
    auto it = class_of.find(array);
    return it != class_of.end() && it->second->staged();
  };

  // Evidence helper: the first (writer, reader) iteration pair of a flow
  // dependence of distance d that lands in different chunks.
  auto crossing_pair = [&](std::int64_t d, std::string& out) {
    if (chunk_iters == 0) return false;
    // Reader j is the first iteration of some chunk with j - d in an
    // earlier chunk; the smallest such j is the start of chunk 1 when
    // d <= chunk_iters, else chunk(d)+... — scanning chunk starts is exact.
    for (std::uint64_t c = 1; c * chunk_iters < iters; ++c) {
      const std::int64_t j = static_cast<std::int64_t>(c * chunk_iters);
      const std::int64_t i = j - d;
      if (i >= 0 && i / static_cast<std::int64_t>(chunk_iters) <
                        static_cast<std::int64_t>(c)) {
        out = "write at iteration " + std::to_string(i) + " (chunk " +
              std::to_string(i / static_cast<std::int64_t>(chunk_iters)) +
              ") reaches the staged read at iteration " + std::to_string(j) +
              " (chunk " + std::to_string(c) + ")";
        return true;
      }
    }
    return false;
  };

  const std::vector<Site> sites = expand_sites(spec);
  for (std::size_t wi = 0; wi < sites.size(); ++wi) {
    const auto& w = sites[wi].acc;
    if (!w.is_write) continue;
    for (std::size_t ri = 0; ri < sites.size(); ++ri) {
      if (ri == wi) continue;
      const auto& r = sites[ri].acc;
      if (r.array != w.array) continue;
      if (r.is_write && ri < wi) continue;  // count each output pair once
      const bool indirect = w.index_via.has_value() || r.index_via.has_value();
      if (indirect) {
        // Value-dependent element sets: no distance to compute.  A staged
        // operand with an unprovable write pattern is refused outright.
        if (!r.is_write && staged(w.array)) {
          diags.error(
              "hazard-cross-chunk",
              "array '" + w.array +
                  "' is staged by the restructuring helper but written "
                  "through value-dependent (indirect) indices; the write and "
                  "staged-read element sets cannot be proven disjoint, so a "
                  "stale staged copy across a chunk boundary cannot be ruled "
                  "out",
              w.array, r.line);
        }
        continue;
      }
      const std::int64_t sw = elem_delta(w, spec.step);
      const std::int64_t sr = elem_delta(r, spec.step);
      if (sw != sr) {
        // Stride mismatch: element sets intersect at varying distances.
        std::int64_t wlo = 0;
        std::int64_t whi = 0;
        std::int64_t rlo = 0;
        std::int64_t rhi = 0;
        affine_range(w, iters, spec.step, wlo, whi);
        affine_range(r, iters, spec.step, rlo, rhi);
        if (whi < rlo || rhi < wlo) continue;  // provably disjoint
        if (!r.is_write && staged(w.array)) {
          diags.error("hazard-cross-chunk",
                      "array '" + w.array +
                          "' is staged by the restructuring helper but "
                          "written with a different stride (" +
                          std::to_string(sw) + " vs " + std::to_string(sr) +
                          " elements/iteration); overlapping element ranges "
                          "make stale staged reads across chunk boundaries "
                          "possible",
                      w.array, r.line);
        } else {
          diags.note("dep-loop-carried",
                     "accesses to '" + w.array +
                         "' with mismatched strides overlap; any dependence "
                         "between execution phases is preserved by token "
                         "order",
                     w.array, r.line);
        }
        continue;
      }
      std::int64_t d = 0;
      if (sw == 0) {
        // Both sites loop-invariant: same element every iteration iff the
        // offsets match; the dependence spans every distance.
        if (w.offset != r.offset) continue;
        d = 1;  // representative loop-carried distance
      } else {
        const std::int64_t diff = w.offset - r.offset;
        if (diff % sw != 0) continue;  // element sets interleave, never meet
        d = diff / sw;
      }
      AffineDependence dep;
      dep.array = w.array;
      dep.src_access = sites[wi].decl_index;
      dep.dst_access = sites[ri].decl_index;
      dep.dst_is_write = r.is_write;
      dep.distance = d;
      deps.push_back(dep);
      if (d == 0) continue;  // intra-iteration: sequential order within the
                             // body is never reordered, nothing to prove
      const char* kind = r.is_write ? "output" : (d > 0 ? "flow" : "anti");
      if (!r.is_write && d > 0 && staged(w.array)) {
        std::string evidence;
        std::string msg =
            "flow dependence of distance " + std::to_string(d) + " on '" +
            w.array +
            "' flows into a staged read: the restructuring helper copies "
            "the operand before earlier chunks have executed";
        if (crossing_pair(d, evidence)) {
          msg += " (" + evidence + ")";
        } else {
          msg +=
              " (single chunk at this geometry; the hazard is latent and "
              "triggers at any larger trip or smaller chunk)";
        }
        diags.error("hazard-cross-chunk", msg, w.array, r.line);
        continue;
      }
      if (!r.is_write && d < 0 && staged(w.array)) {
        diags.note("dep-loop-carried",
                   "anti dependence of distance " + std::to_string(-d) +
                       " on staged array '" + w.array +
                       "': the staged copy is taken before the write "
                       "executes, which matches sequential order — "
                       "staging-safe, but the read-only claim is still false",
                   w.array, r.line);
        continue;
      }
      diags.note("dep-loop-carried",
                 std::string(kind) + " dependence of distance " +
                     std::to_string(d > 0 ? d : -d) + " on '" + w.array +
                     "' between execution phases; token order runs chunks "
                     "sequentially, so it is preserved by construction",
                 w.array, r.line);
    }
  }
  return deps;
}

void check_layout(const loopir::LoopNest& nest, common::DiagnosticList& diags) {
  struct Extent {
    std::uint64_t base;
    std::uint64_t end;
    std::string name;
  };
  std::vector<Extent> extents;
  extents.reserve(nest.num_arrays());
  for (loopir::ArrayId id = 0; id < nest.num_arrays(); ++id) {
    const loopir::ArraySpec& arr = nest.array(id);
    const std::uint64_t base = nest.array_base(id);
    const std::uint64_t end = base + arr.size_bytes();
    if (end > kBufferRegionBase) {
      diags.error("footprint-overlap",
                  "array '" + arr.name + "' spans [" + std::to_string(base) +
                      ", " + std::to_string(end) +
                      "), which reaches the sequential-buffer region at 2^44; "
                      "staged values would alias loop data",
                  arr.name);
    }
    extents.push_back({base, end, arr.name});
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.base < b.base; });
  for (std::size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].base < extents[i - 1].end) {
      diags.error("footprint-overlap",
                  "arrays '" + extents[i - 1].name + "' and '" +
                      extents[i].name +
                      "' overlap in the address map; aliased operands break "
                      "the per-array dependence analysis",
                  extents[i].name);
    }
  }
}

}  // namespace casc::analysis
