// Seeded input generation.  The workload seed is the only source of
// variation: the same seed regenerates byte-identical spec texts and job
// order, and the program under test receives only these generated inputs.
// Shapes (trip counts, array sizes, job-mix weights) are fixed; the seed moves
// index contents, names and job order, so different seeds cost the same.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// gather-loop: one spmv-shaped indirect gather of 2^19 iterations (val read,
/// x read via a random col index, y read and written), about 13 MiB.
std::string gather_loop_text(std::uint64_t seed);

/// parmvr-chain: wave5's PARMVR call (15 stages over one shared namespace)
/// with every index array's pattern seed derived from the workload seed.
std::string parmvr_chain_text(std::uint64_t seed);

/// svc-mix: the distinct spec texts jobs draw from, and their job weights.
std::vector<std::string> svc_mix_texts(std::uint64_t seed);
const std::vector<double>& svc_mix_weights();

/// One job of the svc-mix stream.
struct JobPick {
  std::uint32_t spec = 0;    ///< index into svc_mix_texts()
  bool restructure = true;   ///< restructure (3/4 of jobs) or prefetch
  bool operator==(const JobPick&) const = default;
};

/// The first `n` jobs of the seeded stream: specs drawn from the skewed
/// svc_mix_weights(), helpers 3:1 restructure:prefetch.
std::vector<JobPick> svc_job_order(std::uint64_t seed, std::size_t n);

}  // namespace perfbench
