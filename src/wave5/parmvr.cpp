#include "casc/wave5/parmvr.hpp"

#include <algorithm>
#include <array>

#include "casc/common/check.hpp"

namespace casc::wave5 {

using loopir::AccessSpec;
using loopir::ArrayId;
using loopir::ArraySpec;
using loopir::IndexPattern;
using loopir::LayoutPolicy;
using loopir::LoopNest;

namespace {

const std::array<ParmvrLoopInfo, kNumParmvrLoops> kLoopInfo = {{
    {1, "resident_sweep", "repeated sweep over a 256 KB working set; cache-resident"},
    {2, "copy3", "three-stream add X(i)=A(i)+B(i); 768 KB; conflicting bases"},
    {3, "gather_small", "permuted gather X(i)=A(IJ(i)); ~1.1 MB"},
    {4, "stencil5", "five-point stencil over A with B forcing term; 2.5 MB"},
    {5, "field_gather", "weighted cell-field gather X(i)+=E(CELL(i))*W(i)+D(i); ~6 MB"},
    {6, "saxpy_large", "large saxpy Y(i)+=a*X(i); 6 MB; two streams"},
    {7, "scatter", "permuted scatter X(IJ(i))=A(i)*B(i)+C(i); ~6 MB"},
    {8, "four_stream", "X(i)=A(i)+B(i)*C(i); 8 MB; four conflicting streams"},
    {9, "quad_stream_large", "four natural streams at 12 MB; purely capacity-bound"},
    {10, "random_update", "X(R(i))+=A(i) with random R; 8 MB; no locality in X"},
    {11, "reduction_gather", "s+=A(IJ(i))*B(i); ~2.5 MB; all operands read-only"},
    {12, "strided_gather", "X(i)=A(2i); 1.5 MB; stride-2 reads"},
    {13, "compute_bound", "X(i)=f(A(i)) with ~40 cycles of arithmetic; 512 KB"},
    {14, "block_gather", "X(i)=A(BJ(i))+C(i)*D(i), shuffled 64-element blocks; ~16 MB"},
    {15, "widest", "X(i)+=A(i)+B(IJ(i)); ~17 MB; the enlarged problem's largest loop"},
}};

/// Scales an element count down, keeping it large enough to exercise caches.
std::uint64_t scaled(std::uint64_t elems, unsigned scale) {
  return std::max<std::uint64_t>(1024, elems / scale);
}

}  // namespace

const ParmvrLoopInfo& parmvr_loop_info(int id) {
  CASC_CHECK(id >= 1 && id <= kNumParmvrLoops, "PARMVR loop id must be in 1..15");
  return kLoopInfo[static_cast<std::size_t>(id - 1)];
}

LoopNest make_parmvr_loop(int id, unsigned scale) {
  CASC_CHECK(id >= 1 && id <= kNumParmvrLoops, "PARMVR loop id must be in 1..15");
  CASC_CHECK(scale >= 1, "scale must be at least 1");
  LoopNest nest("parmvr_" + std::to_string(id) + "_" + parmvr_loop_info(id).name);

  switch (id) {
    case 1: {
      // X(i mod m) = f(A(i mod m)) — a 256 KB working set swept repeatedly,
      // so after the first pass everything is cache-resident.  There is
      // nothing for a helper to fix; cascading only pays transfer overhead
      // and per-processor re-warming (the paper's "maximum slowdown of 0.9"
      // loop).
      const std::uint64_t m = scaled(16 * 1024, scale);
      const std::uint64_t n = 8 * m;  // eight sweeps
      const ArrayId x = nest.add_array({"X", 8, m, false});
      const ArrayId a = nest.add_array({"A", 8, m, true});
      nest.add_access({a, false, 1, 0, {}});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(25);
      nest.finalize(LayoutPolicy::kStaggered);
      break;
    }
    case 2: {
      // X(i) = A(i) + B(i) — three streams with conflicting bases.
      const std::uint64_t n = scaled(32 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId a = nest.add_array({"A", 8, n, true});
      const ArrayId b = nest.add_array({"B", 8, n, true});
      nest.add_access({a, false, 1, 0, {}});
      nest.add_access({b, false, 1, 0, {}});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(65);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 3: {
      // X(i) = A(IJ(i)) — permuted gather.
      const std::uint64_t n = scaled(32 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId a = nest.add_array({"A", 8, n, true});
      const ArrayId ij = nest.add_index_array("IJ", n, IndexPattern::kRandomPerm, 3);
      nest.add_access({a, false, 1, 0, ij});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(75, 60);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 4: {
      // X(i) = c*(A(i-1)+A(i)+A(i+1)) + B(i) — stencil.
      const std::uint64_t n = scaled(80 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId a = nest.add_array({"A", 8, n, true});
      const ArrayId b = nest.add_array({"B", 8, n, true});
      const ArrayId c = nest.add_array({"C", 8, n, true});
      nest.add_access({a, false, 1, -1, {}});
      nest.add_access({a, false, 1, 0, {}});
      nest.add_access({a, false, 1, 1, {}});
      nest.add_access({b, false, 1, 0, {}});
      nest.add_access({c, false, 1, 0, {}});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(90);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 5: {
      // X(i) += E(CELL(i)) * W(i) — particle reads its cell's field value,
      // weighted.  CELL, W, and X march in lockstep from conflicting bases:
      // three streams thrash a 2-way L2 while a 4-way one holds them.
      const std::uint64_t n = scaled(128 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId e = nest.add_array({"E", 8, n, true});
      const ArrayId w = nest.add_array({"W", 8, n, true});
      const ArrayId d = nest.add_array({"D", 8, n, true});
      const ArrayId cell = nest.add_index_array("CELL", n, IndexPattern::kRandomPerm, 5);
      nest.add_access({e, false, 1, 0, cell});
      nest.add_access({w, false, 1, 0, {}});
      nest.add_access({d, false, 1, 0, {}});
      nest.add_access({x, false, 1, 0, {}});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(110, 90);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 6: {
      // Y(i) += a * X(i) — two large streams.
      const std::uint64_t n = scaled(384 * 1024, scale);
      const ArrayId y = nest.add_array({"Y", 8, n, false});
      const ArrayId x = nest.add_array({"X", 8, n, true});
      nest.add_access({x, false, 1, 0, {}});
      nest.add_access({y, false, 1, 0, {}});
      nest.add_access({y, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(60);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 7: {
      // X(IJ(i)) = A(i) — permuted scatter; the resolved index is staged by
      // the restructuring helper, the store stays in the execution phase.
      const std::uint64_t n = scaled(128 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId a = nest.add_array({"A", 8, n, true});
      const ArrayId b = nest.add_array({"B", 8, n, true});
      const ArrayId c = nest.add_array({"C", 8, n, true});
      const ArrayId ij = nest.add_index_array("IJ", n, IndexPattern::kRandomPerm, 7);
      nest.add_access({a, false, 1, 0, {}});
      nest.add_access({b, false, 1, 0, {}});
      nest.add_access({c, false, 1, 0, {}});
      nest.add_access({x, true, 1, 0, ij});
      nest.set_trip(n);
      nest.set_compute_cycles(95, 75);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 8: {
      // X(i) = A(i) + B(i)*C(i) — four conflicting streams: exactly fills the
      // Pentium Pro's 4-way L2 sets (capacity misses only) while thrashing
      // the R10000's 2-way L2 (conflict misses on every reference).
      const std::uint64_t n = scaled(256 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId a = nest.add_array({"A", 8, n, true});
      const ArrayId b = nest.add_array({"B", 8, n, true});
      const ArrayId c = nest.add_array({"C", 8, n, true});
      nest.add_access({a, false, 1, 0, {}});
      nest.add_access({b, false, 1, 0, {}});
      nest.add_access({c, false, 1, 0, {}});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(75);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 9: {
      // Four naturally laid-out streams at the 12 MB size: a pure
      // capacity-bound loop.  The compiler's prefetching already hides much
      // of its latency on the R10000, so cascading gains modestly there; the
      // Pentium Pro (no compiler prefetch) gains more.
      const std::uint64_t n = scaled(384 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const char* names[] = {"A", "B", "C"};
      for (const char* name : names) {
        const ArrayId a = nest.add_array({name, 8, n, true});
        nest.add_access({a, false, 1, 0, {}});
      }
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(70);
      nest.finalize(LayoutPolicy::kStaggered);
      break;
    }
    case 10: {
      // X(R(i)) += A(i) — random read-modify-write; helpers can prefetch the
      // X lines but cannot restructure them (X is read-write).
      const std::uint64_t nx = scaled(512 * 1024, scale);
      const std::uint64_t n = scaled(256 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, nx, false});
      const ArrayId a = nest.add_array({"A", 8, n, true});
      const ArrayId r = nest.add_index_array("R", n, IndexPattern::kRandom, 10);
      nest.add_access({a, false, 1, 0, {}});
      nest.add_access({x, false, 1, 0, r});
      nest.add_access({x, true, 1, 0, r});
      nest.set_trip(n);
      nest.set_compute_cycles(80, 70);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 11: {
      // s += A(IJ(i)) * B(i) — a reduction: every operand is read-only, so
      // restructuring turns the whole execution phase into one buffer stream.
      const std::uint64_t n = scaled(128 * 1024, scale);
      const ArrayId a = nest.add_array({"A", 8, n, true});
      const ArrayId b = nest.add_array({"B", 8, n, true});
      const ArrayId ij = nest.add_index_array("IJ", n, IndexPattern::kRandomPerm, 11);
      nest.add_access({a, false, 1, 0, ij});
      nest.add_access({b, false, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(65, 45);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 12: {
      // X(i) = A(2i) — stride-2 gather: half of each A line is wasted, which
      // sequential-buffer packing recovers.
      const std::uint64_t n = scaled(64 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId a = nest.add_array({"A", 8, 2 * n, true});
      nest.add_access({a, false, 2, 0, {}});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(55);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 13: {
      // X(i) = f(A(i)) with heavy arithmetic — compute-bound; memory-state
      // optimization has nothing to hide, so cascading only pays transfers.
      const std::uint64_t n = scaled(32 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId a = nest.add_array({"A", 8, n, true});
      nest.add_access({a, false, 1, 0, {}});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(150, 150);
      nest.finalize(LayoutPolicy::kStaggered);
      break;
    }
    case 14: {
      // X(i) = A(BJ(i)) + C(i)*D(i) — gather through shuffled 64-element
      // blocks (spatial locality within a block, none across) plus three
      // lockstep streams from conflicting bases.
      const std::uint64_t n = scaled(320 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId a = nest.add_array({"A", 8, n, true});
      const ArrayId c = nest.add_array({"C", 8, n, true});
      const ArrayId d = nest.add_array({"D", 8, n, true});
      const ArrayId bj =
          nest.add_index_array("BJ", n, IndexPattern::kBlockShuffle, 14, 64);
      nest.add_access({a, false, 1, 0, bj});
      nest.add_access({c, false, 1, 0, {}});
      nest.add_access({d, false, 1, 0, {}});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(95, 75);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    case 15: {
      // X(i) += A(i) + B(IJ(i)) — the enlarged problem's largest loop
      // (~17 MB total footprint).
      const std::uint64_t n = scaled(512 * 1024, scale);
      const std::uint64_t nb = scaled(1024 * 1024, scale);
      const ArrayId x = nest.add_array({"X", 8, n, false});
      const ArrayId a = nest.add_array({"A", 8, n, true});
      const ArrayId b = nest.add_array({"B", 8, nb, true});
      const ArrayId ij = nest.add_index_array("IJ", n, IndexPattern::kRandomPerm, 15);
      nest.add_access({a, false, 1, 0, {}});
      nest.add_access({b, false, 1, 0, ij});
      nest.add_access({x, false, 1, 0, {}});
      nest.add_access({x, true, 1, 0, {}});
      nest.set_trip(n);
      nest.set_compute_cycles(110, 90);
      nest.finalize(LayoutPolicy::kConflicting);
      break;
    }
    default:
      CASC_CHECK(false, "unreachable");
  }
  return nest;
}

std::vector<LoopNest> make_parmvr(unsigned scale) {
  std::vector<LoopNest> loops;
  loops.reserve(kNumParmvrLoops);
  for (int id = 1; id <= kNumParmvrLoops; ++id) {
    loops.push_back(make_parmvr_loop(id, scale));
  }
  return loops;
}

loopir::PipelineSpec make_parmvr_pipeline(unsigned scale) {
  CASC_CHECK(scale >= 1, "scale must be at least 1");
  const std::uint64_t n = scaled(128 * 1024, scale);

  loopir::PipelineSpec p;
  p.name = "parmvr_call12";
  p.layout = LayoutPolicy::kConflicting;

  auto data = [&](const char* name, bool read_only) {
    loopir::LoopSpec::ArrayDecl d;
    d.name = name;
    d.elem_size = 8;
    d.num_elems = n;
    d.read_only = read_only;
    p.arrays.push_back(d);
  };
  auto index = [&](const char* name, std::uint64_t seed) {
    loopir::LoopSpec::ArrayDecl d;
    d.name = name;
    d.elem_size = 4;
    d.num_elems = n;
    d.read_only = true;
    d.pattern = IndexPattern::kRandomPerm;
    d.seed = seed;
    p.arrays.push_back(d);
  };
  // Source-term and weight streams (never written in one call)...
  data("Q", true);
  data("W", true);
  data("EF", true);
  data("B0", true);
  // ...the particle->cell map and the sorted-order permutation...
  index("CELL", 5);
  index("IJ", 3);
  // ...and the per-particle state the chain advances.
  for (const char* name : {"VX", "VY", "VZ", "PX", "PY", "PZ", "RHO", "CUR", "SC"}) {
    data(name, false);
  }

  struct Access {
    const char* array;
    bool write;
    std::int64_t offset = 0;
    const char* via = nullptr;
  };
  auto stage = [&](const char* name, std::uint32_t cycles,
                   std::optional<std::uint32_t> restructured,
                   std::initializer_list<Access> accesses) {
    loopir::PipelineSpec::Stage s;
    s.name = name;
    s.trip = n;
    s.compute_cycles = cycles;
    s.restructured_compute = restructured;
    for (const Access& a : accesses) {
      loopir::LoopSpec::AccessDecl acc;
      acc.array = a.array;
      acc.is_write = a.write;
      acc.offset = a.offset;
      if (a.via != nullptr) acc.index_via = a.via;
      s.accesses.push_back(std::move(acc));
    }
    p.stages.push_back(std::move(s));
  };

  constexpr bool kR = false, kW = true;
  // The three field-gather components (and the two sorted gathers, and the
  // two tail gathers) read IDENTICAL staged streams and differ only in the
  // write target; each gathers its own copy.
  stage("charge_sweep", 25, {}, {{"Q", kR}, {"SC", kW}});
  stage("weight_blend", 65, {}, {{"Q", kR}, {"W", kR}, {"SC", kW}});
  stage("field_gather_x", 75, 60, {{"EF", kR, 0, "CELL"}, {"W", kR}, {"VX", kW}});
  stage("field_gather_y", 75, 60, {{"EF", kR, 0, "CELL"}, {"W", kR}, {"VY", kW}});
  stage("field_gather_z", 75, 60, {{"EF", kR, 0, "CELL"}, {"W", kR}, {"VZ", kW}});
  stage("push_x", 60, {}, {{"VX", kR}, {"B0", kR}, {"PX", kW}});
  stage("push_y", 60, {}, {{"VY", kR}, {"B0", kR}, {"PY", kW}});
  stage("push_z", 60, {}, {{"VZ", kR}, {"B0", kR}, {"PZ", kW}});
  stage("sorted_gather_q", 95, 75, {{"Q", kR, 0, "IJ"}, {"W", kR}, {"SC", kW}});
  stage("sorted_gather_cur", 95, 75, {{"Q", kR, 0, "IJ"}, {"W", kR}, {"CUR", kW}});
  stage("smooth_rho", 90, {},
        {{"SC", kR, -1}, {"SC", kR, 0}, {"SC", kR, 1}, {"B0", kR}, {"RHO", kW}});
  stage("current_blend", 70, {}, {{"CUR", kR}, {"B0", kR}, {"CUR", kW}});
  stage("tail_gather_a", 110, 90, {{"EF", kR, 0, "CELL"}, {"Q", kR}, {"PX", kW}});
  stage("tail_gather_b", 110, 90, {{"EF", kR, 0, "CELL"}, {"Q", kR}, {"PY", kW}});
  stage("deposit_sweep", 70, {},
        {{"RHO", kR}, {"CUR", kR}, {"SC", kR}, {"SC", kW}});
  return p;
}

}  // namespace casc::wave5
