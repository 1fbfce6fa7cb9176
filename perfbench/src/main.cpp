// casc_perfbench: runs one benchmark workload and prints its metrics.
//
//   casc_perfbench --workload gather-loop|parmvr-chain|svc-mix --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR]
//   casc_perfbench --list-metrics
//
// Human-readable lines first (the host block, notes, one line per metric),
// then, as the last line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// Exit code 0 when every checked result matched the sequential reference,
// 1 on a mismatch, 2 on bad arguments or a set-up failure (no result line).
#include <sched.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "casc/common/simd.hpp"
#include "workloads.hpp"

namespace {

std::string read_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// "always [madvise] never" -> "madvise".
std::string bracketed(const std::string& s) {
  const auto lo = s.find('[');
  const auto hi = s.find(']');
  if (lo == std::string::npos || hi == std::string::npos || hi < lo) return s;
  return s.substr(lo + 1, hi - lo - 1);
}

/// Size of the first cpu0 cache at `level` that holds data, as sysfs prints it.
std::string cache_size(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string lvl = read_line((dir + "/level").c_str());
    if (lvl.empty()) break;
    if (std::stoi(lvl) != level) continue;
    if (read_line((dir + "/type").c_str()) == "Instruction") continue;
    return read_line((dir + "/size").c_str());
  }
  return "unknown";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// The host block: what a wall-clock number depends on.
std::string host_block() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::string thp = bracketed(read_line("/sys/kernel/mm/transparent_hugepage/enabled"));
  std::string paranoid = read_line("/proc/sys/kernel/perf_event_paranoid");
  if (thp.empty()) thp = "unknown";
  if (paranoid.empty()) paranoid = "unknown";
  return std::string("{\"nproc\": ") + std::to_string(nproc) +
         ", \"simd_tier\": " +
         json_string(casc::common::simd::tier_name(casc::common::simd::active_tier())) +
         ", \"thp\": " + json_string(thp) +
         ", \"perf_event_paranoid\": " + json_string(paranoid) +
         ", \"l2\": " + json_string(cache_size(2)) +
         ", \"llc\": " + json_string(cache_size(3)) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "casc_perfbench: %s\nusage: casc_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n"
               "       casc_perfbench --list-metrics\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-metrics") {
      for (const bool trace : {false, true}) {
        for (const auto& d : trace ? perfbench::per_layer_metrics()
                                   : perfbench::end_to_end_metrics()) {
          std::printf("%s %s %s %s\n", trace ? "per_layer" : "end_to_end", d.name,
                      d.unit, d.better);
        }
      }
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
      } else if (arg == "--work-dir") {
        cfg.work_dir = value;
      } else {
        return usage(("unknown argument " + std::string(arg)).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + std::string(arg)).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("host %s\n", host_block().c_str());
  std::fflush(stdout);

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "casc_perfbench: %s\n", e.what());
    return 2;
  }

  for (const std::string& note : res.notes) std::printf("  %s\n", note.c_str());
  for (const perfbench::Metric& m : res.metrics) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  failed_ratio %.6f (%llu of %llu)\n",
              perfbench::ratio(static_cast<double>(res.failed),
                               static_cast<double>(res.attempted)),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));

  const bool correct = res.failed == 0 && res.attempted > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
