// The benchmark's workloads: gather-loop, parmvr-chain and svc-mix.
//
// An untraced run (trace = false) measures the end-to-end metrics; a traced
// run of the same workload and seed records a span around every public call
// it makes and reports the per-layer metrics instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (relative to the working directory) for the svc socket and
  /// the Perfetto trace file; must exist.
  std::string work_dir = ".bench_build";
};

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< digest/checksum mismatches, error replies, throws
  std::vector<std::string> notes;  ///< human-readable lines for the log
};

/// A metric every run of the given mode reports, on every workload.
struct MetricDecl {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};
const std::vector<MetricDecl>& end_to_end_metrics();  ///< untraced runs
const std::vector<MetricDecl>& per_layer_metrics();   ///< traced runs

/// gather-loop, parmvr-chain, svc-mix.
const std::vector<std::string>& workload_names();

/// Runs one workload; throws on set-up failure or an unknown workload.
RunResult run_workload(const RunConfig& cfg);

}  // namespace perfbench
