#include "inputs.hpp"

#include <cstdio>
#include <sstream>

#include "casc/common/rng.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/wave5/parmvr.hpp"

namespace perfbench {

namespace {

/// An independent small seed (it is printed into spec text) derived from the
/// workload seed and a salt.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  casc::common::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull + salt);
  return sm.next() % 1000000007ull + 1;
}

std::string tag(std::uint64_t seed, std::uint64_t salt) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08llx",
                static_cast<unsigned long long>(derive_seed(seed, salt)));
  return buf;
}

std::string dense_text(const std::string& name, std::uint64_t trip,
                       int operands) {
  std::ostringstream os;
  os << "loop " << name << "\ntrip " << trip
     << "\ncompute 6 4\nlayout conflicting\narray y 8 " << trip << " rw\n";
  for (int k = 0; k < operands; ++k) {
    os << "array " << static_cast<char>('a' + k) << " 8 " << trip << " ro\n";
  }
  for (int k = 0; k < operands; ++k) {
    os << "access " << static_cast<char>('a' + k) << " read\n";
  }
  os << "access y write\n";
  return os.str();
}

std::string spmv_text(const std::string& name, std::uint64_t trip,
                      std::uint64_t x_elems, std::uint64_t index_seed) {
  std::ostringstream os;
  os << "loop " << name << "\ntrip " << trip
     << "\ncompute 14 9\nlayout conflicting\n"
     << "array y 8 " << trip << " rw\n"
     << "array val 8 " << trip << " ro\n"
     << "array x 8 " << x_elems << " ro\n"
     << "index col " << trip << " random " << index_seed << "\n"
     << "access val read\naccess x read via col\naccess y read\naccess y write\n";
  return os.str();
}

/// The gather_split access shape: an indirect gather from the lower half of
/// `t` while the loop writes the upper half.  `t` is declared rw: the
/// service's admission instantiates the spec as written, so the false `ro`
/// claim of tests/specs/gather_split.casc (which only the race certifier
/// clears) draws svc-spec-invalid there.
std::string split_text(const std::string& name, std::uint64_t trip,
                       std::uint64_t index_seed) {
  std::ostringstream os;
  os << "loop " << name << "\ntrip " << trip
     << "\ncompute 6 4\nlayout conflicting\n"
     << "array t 8 " << 2 * trip << " rw\n"
     << "index gidx " << trip << " random " << index_seed << "\n"
     << "access t read via gidx\naccess t write offset " << trip << "\n";
  return os.str();
}

}  // namespace

std::string gather_loop_text(std::uint64_t seed) {
  // y 4 MiB + val 4 MiB + col 2 MiB (u32) + x 3 MiB = 13 MiB.
  return spmv_text("gather_loop_" + tag(seed, 1), 1u << 19, 3u << 17,
                   derive_seed(seed, 2));
}

std::string parmvr_chain_text(std::uint64_t seed) {
  casc::loopir::PipelineSpec spec = casc::wave5::make_parmvr_pipeline(1);
  std::uint64_t salt = 100;
  for (auto& a : spec.arrays) {
    if (a.pattern.has_value()) a.seed = derive_seed(seed, salt++);
  }
  return spec.to_text();
}

std::vector<std::string> svc_mix_texts(std::uint64_t seed) {
  return {
      dense_text("mix_dense_s_" + tag(seed, 10), 2048, 2),
      spmv_text("mix_gather_s_" + tag(seed, 11), 4096, 1024, derive_seed(seed, 21)),
      dense_text("mix_dense_m_" + tag(seed, 12), 16384, 3),
      spmv_text("mix_gather_m_" + tag(seed, 13), 32768, 8192, derive_seed(seed, 23)),
      split_text("mix_split_" + tag(seed, 14), 16384, derive_seed(seed, 24)),
      dense_text("mix_stream_" + tag(seed, 15), 8192, 1),
  };
}

const std::vector<double>& svc_mix_weights() {
  static const std::vector<double> weights = {0.30, 0.22, 0.16, 0.12, 0.10, 0.10};
  return weights;
}

std::vector<JobPick> svc_job_order(std::uint64_t seed, std::size_t n) {
  casc::common::Rng rng(derive_seed(seed, 30));
  const std::vector<double>& w = svc_mix_weights();
  std::vector<JobPick> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double u = rng.uniform01();
    std::uint32_t k = 0;
    while (k + 1 < w.size() && u >= w[k]) u -= w[k++];
    out.push_back({k, rng.below(4) != 0});
  }
  return out;
}

}  // namespace perfbench
