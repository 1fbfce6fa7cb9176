// casc-setup — environment tuning diagnosis for cascade benchmarking.
//
// The cascade's speedup claims live or die on machine configuration: helpers
// race the memory system, so transparent huge pages, frequency scaling, and
// noisy co-resident load all skew measurements, and perf counter access
// gates the telemetry layer.  This tool inspects the knobs that matter and
// prints one line per check — `[ ok ]` or `[warn]` with a concrete
// remediation command — so a CI runner or a fresh box can be qualified
// before trusting bench numbers.
//
// Checks: CPU count vs a requested shard plan, SIMD tier (reported, never
// warned about), transparent hugepages, kernel.perf_event_paranoid, core
// isolation (isolcpus/nohz_full), cpufreq governor, and SMT.
//
// Exit code: 0 always by default (diagnosis, not policy); --strict exits 1
// when any check warns.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "casc/cli/args.hpp"
#include "casc/common/simd.hpp"

namespace {

using namespace casc;  // NOLINT(build/namespaces)

const std::vector<cli::OptionSpec> kSpecs = {
    {"shards", "N", "planned cascd shard count to check core budget against", "1"},
    {"threads-per-shard", "N", "planned workers per shard", "2"},
    {"strict", "", "exit 1 if any check warns", ""},
    {"help", "", "show this help", ""},
};

int warnings = 0;

void ok(const std::string& what) { std::cout << "[ ok ] " << what << "\n"; }

void warn(const std::string& what, const std::string& fix) {
  ++warnings;
  std::cout << "[warn] " << what << "\n";
  if (!fix.empty()) std::cout << "       fix: " << fix << "\n";
}

/// First line of a sysfs/procfs file, or empty when unreadable.
std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in.good()) std::getline(in, line);
  return line;
}

void check_cores(unsigned shards, unsigned threads_per_shard) {
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  const unsigned want = shards * threads_per_shard;
  std::ostringstream plan;
  plan << shards << " shard(s) x " << threads_per_shard << " worker(s) = "
       << want << " cores wanted, " << ncpu << " online";
  if (want <= ncpu) {
    ok(plan.str());
  } else {
    warn(plan.str() + " — shards will share cores and helpers will preempt "
                      "execution",
         "reduce --shards/--threads-per-shard or run on a bigger machine");
  }
}

/// Informational only: no run path dispatches a SIMD kernel (the exec
/// bridge's helper makes one plain load per staged value), so the tier
/// cannot skew a measurement.  perfbench's simd.gather_gbps probe and
/// bench_rt_kernels time the one kernel at this tier.
void check_simd() {
  namespace simd = common::simd;
  std::string line = std::string("SIMD tier: ") +
                     simd::tier_name(simd::active_tier());
  if (simd::no_simd_env()) {
    line += std::string(" (CASC_NO_SIMD set; host supports ") +
            simd::tier_name(simd::detected_tier()) + ")";
  }
  ok(line);
}

void check_thp() {
  const std::string path = "/sys/kernel/mm/transparent_hugepage/enabled";
  const std::string line = read_line(path);
  if (line.empty()) {
    ok("transparent hugepages: not present on this kernel");
    return;
  }
  // The active setting is bracketed: "always [madvise] never".
  if (line.find("[always]") != std::string::npos) {
    warn("transparent hugepages set to 'always' — khugepaged can stall "
         "helpers mid-chunk and skew bench variance",
         "echo madvise | sudo tee " + path);
  } else if (line.find("[never]") != std::string::npos) {
    warn("transparent hugepages set to 'never' — the aligned allocator's "
         "madvise(MADV_HUGEPAGE) is a no-op, so large staged buffers pay a "
         "TLB entry per 4 KB page",
         "echo madvise | sudo tee " + path);
  } else {
    ok("transparent hugepages: " + line);
  }
}

void check_perf_paranoid() {
  const std::string path = "/proc/sys/kernel/perf_event_paranoid";
  const std::string line = read_line(path);
  if (line.empty()) {
    ok("perf_event_paranoid: not present (perf counters unavailable)");
    return;
  }
  long level = 0;
  try {
    level = std::stol(line);
  } catch (...) {
    level = 0;
  }
  if (level > 2) {
    warn("perf_event_paranoid is " + line +
             " — casc-bench perf counters (instructions, cache misses) will "
             "read as zero for unprivileged runs",
         "echo 2 | sudo tee " + path);
  } else {
    ok("perf_event_paranoid: " + line);
  }
}

void check_isolation() {
  const std::string isolated = read_line("/sys/devices/system/cpu/isolated");
  const std::string cmdline = read_line("/proc/cmdline");
  if (!isolated.empty()) {
    ok("isolated cores available for pinned shards: " + isolated);
    return;
  }
  std::string note = "no isolated cores (isolcpus/nohz_full unset)";
  if (cmdline.find("isolcpus") != std::string::npos) {
    note += " despite isolcpus on the kernel command line";
  }
  warn(note + " — pinned rings share cores with the scheduler's other work; "
              "fine for correctness, noisy for benchmarks",
       "boot with isolcpus=<list> nohz_full=<list> and point cascd --pin "
       "shards at them");
}

void check_governor() {
  const std::string path =
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor";
  const std::string gov = read_line(path);
  if (gov.empty()) {
    ok("cpufreq: no scaling governor exposed (fixed-frequency host or VM)");
    return;
  }
  if (gov == "performance") {
    ok("cpufreq governor: performance");
  } else {
    warn("cpufreq governor is '" + gov +
             "' — frequency ramps make cascade speedups non-reproducible",
         "echo performance | sudo tee "
         "/sys/devices/system/cpu/cpu*/cpufreq/scaling_governor");
  }
}

void check_smt() {
  const std::string path = "/sys/devices/system/cpu/smt/active";
  const std::string active = read_line(path);
  if (active.empty()) {
    ok("SMT: no control exposed");
    return;
  }
  if (active == "0") {
    ok("SMT: off (each pinned worker owns its core)");
  } else {
    warn("SMT is active — sibling hyperthreads contend for the cache the "
         "helper phase is trying to warm",
         "echo off | sudo tee /sys/devices/system/cpu/smt/control (bench "
         "boxes only)");
  }
}

int run(const cli::Args& args) {
  std::cout << "casc-setup: qualifying this host for cascade benchmarks\n";
  check_cores(static_cast<unsigned>(args.get_u64("shards")),
              static_cast<unsigned>(args.get_u64("threads-per-shard")));
  check_simd();
  check_thp();
  check_perf_paranoid();
  check_isolation();
  check_governor();
  check_smt();
  if (warnings == 0) {
    std::cout << "all checks passed\n";
    return 0;
  }
  std::cout << warnings << " check(s) warned\n";
  return args.has("strict") ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  try {
    const cli::Args args = cli::Args::parse(raw, kSpecs);
    if (args.has("help")) {
      std::cout << cli::Args::help(
          "casc-setup", "environment tuning diagnosis for cascade benchmarks",
          kSpecs);
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
