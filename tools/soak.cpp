// cascsoak — chaos soak harness for the fail-soft cascade runtime.
//
// Drives thousands of cascades through one persistent executor while a
// seeded ChaosPlan kills, stalls, and corrupts the helper phases, cycling
// through every workload shape the runtime supports:
//
//   run % 4 == 0   exec bridge, HelperMode::kNone  (chaos on a no-op helper)
//   run % 4 == 1   exec bridge, HelperMode::kPrefetch
//   run % 4 == 2   exec bridge, HelperMode::kRestructure
//   run % 4 == 3   exec bridge, HelperMode::kRestructure over a scattered
//                  gather (the loop-carried accumulator makes every staged
//                  value's order matter)
//
// The contract under test is the fail-soft guarantee: EVERY cascade must
// complete with the bit-identical sequential result and NO run may abort —
// chaos plans contain helper-site faults only, which the runtime must absorb
// via backoff / quarantine / chunk reclamation.  Degradation is expected and
// reported; divergence or an escaped exception fails the soak.  Each
// restructure run starts from a poisoned staging region, so a chunk that
// executes from staging its helper never committed in that run reads poison
// instead of the previous run's identical values, and diverges.
//
// --daemon mode soaks the SERVICE path instead: an in-process cascd
// (sharded SvcServer on a Unix socket) is flooded by N concurrent tenant
// clients — one of them chaos-injected — and the gates become: zero server
// aborts, every reply digest-identical to the local sequential reference,
// and no tenant starved (bounded max/min completed-job ratio at the moment
// the first tenant finishes).
//
// Exit code: 0 when all runs are degraded-but-correct, 1 otherwise.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "casc/cli/args.hpp"
#include "casc/common/diagnostic.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/report/table.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/svc/client.hpp"
#include "casc/svc/server.hpp"

namespace {

using namespace casc;  // NOLINT(build/namespaces)

const std::vector<cli::OptionSpec> kSpecs = {
    {"runs", "N", "cascades to drive through the chaos schedule", "1000"},
    {"seed", "N", "base seed; run r uses a seed derived from (seed, r)", "1"},
    {"threads", "N", "worker threads (0 = hardware)", "4"},
    {"fault-rate", "PCT", "per-chunk fault probability, percent", "15"},
    {"max-stall-ms", "N", "upper bound on injected helper stalls", "2"},
    {"daemon", "", "soak the service path: in-process cascd + tenant clients", ""},
    {"jobs", "N", "daemon mode: total jobs across all tenants", "4000"},
    {"tenants", "N", "daemon mode: concurrent tenant clients (>= 2)", "8"},
    {"shards", "N", "daemon mode: server shard count", "2"},
    {"threads-per-shard", "N", "daemon mode: workers per shard", "2"},
    {"window", "N", "daemon mode: per-tenant pipelined submits in flight", "32"},
    {"fairness-ratio", "N", "daemon mode: max allowed max/min completed ratio", "8"},
    {"socket", "PATH", "daemon mode: socket path (default under /tmp)", ""},
    {"help", "", "show this help", ""},
};

/// Dense streaming kernel with staged-eligible operands: the bridge-side
/// soak workload.  Mirrors tests/specs/dense_sum.casc at a trip count sized
/// for thousands of runs.
constexpr const char* kSoakSpec = R"(loop soak_dense
trip 16384
compute 6 4
layout conflicting
array y 8 16384 rw
array a 8 16384 ro
array b 8 16384 ro
access a read
access b read
access y write
)";

/// Scattered gather with the same trip count, so one chaos geometry serves
/// both specs: x is read through a random index, as in
/// tests/specs/spmv_small.casc, then y is read and written.
constexpr const char* kSoakGatherSpec = R"(loop soak_gather
trip 16384
compute 14 9
layout conflicting
array y 8 16384 rw
array x 8 4096 ro
index col 16384 random 11
access x read via col
access y read
access y write
)";

constexpr std::uint64_t kItersPerChunk = 1024;

/// Written over a loop's whole staging region before each restructure run.
constexpr std::byte kStagingPoison{0xA5};

/// Per-run seed derivation (splitmix-style) so consecutive runs draw
/// unrelated chaos schedules from one base seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t run) {
  std::uint64_t z = seed + run * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct SoakTotals {
  std::uint64_t helper_faults = 0;
  std::uint64_t chunks_reclaimed = 0;
  std::uint64_t helper_retries = 0;
  std::uint64_t stagings_invalidated = 0;
  std::uint64_t workers_quarantined = 0;
  std::uint64_t degraded_runs = 0;
  std::uint64_t demoted_runs = 0;

  void absorb(const rt::RunStats& stats) {
    helper_faults += stats.helper_faults;
    chunks_reclaimed += stats.chunks_reclaimed;
    helper_retries += stats.helper_retries;
    stagings_invalidated += stats.stagings_invalidated;
    workers_quarantined += stats.workers_quarantined;
    if (stats.degraded()) ++degraded_runs;
    if (stats.demotion_level > 0) ++demoted_runs;
  }
};

int run_soak(const cli::Args& args) {
  const std::uint64_t runs = std::max<std::uint64_t>(1, args.get_u64("runs"));
  const std::uint64_t seed = args.get_u64("seed");
  rt::ChaosOptions chaos_opt;
  chaos_opt.fault_rate =
      static_cast<double>(std::min<std::uint64_t>(100, args.get_u64("fault-rate"))) /
      100.0;
  chaos_opt.max_stall = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, args.get_u64("max-stall-ms")));

  rt::ExecutorConfig exec_cfg;
  exec_cfg.num_threads = static_cast<unsigned>(args.get_u64("threads"));
  // Retry instantly instead of backing off: these cascades are microseconds
  // long, and a real backoff would let every faulted helper sit out the rest
  // of its run — the quarantine and reclamation paths would never fire.
  exec_cfg.resilience.retry_backoff = std::chrono::milliseconds(0);
  rt::CascadeExecutor executor(exec_cfg);

  // Bridge workloads: materialize once, reference once.
  common::DiagnosticList diags;
  const loopir::LoopSpec spec = loopir::LoopSpec::parse(kSoakSpec, diags);
  const loopir::LoopSpec gather_spec =
      loopir::LoopSpec::parse(kSoakGatherSpec, diags);
  if (!diags.ok()) {
    std::cerr << diags.render_text();
    return 1;
  }
  exec::MaterializedLoop loop(spec);
  exec::MaterializedLoop gather_loop(gather_spec);
  const exec::ExecResult ref = exec::run_reference(loop);
  const exec::ExecResult gather_ref = exec::run_reference(gather_loop);
  const std::uint64_t num_chunks =
      (loop.num_iterations() + kItersPerChunk - 1) / kItersPerChunk;

  SoakTotals totals;
  std::uint64_t failures = 0;
  std::uint64_t first_failed_run = 0;
  std::string first_failure;

  const auto fail = [&](std::uint64_t run, const std::string& why) {
    ++failures;
    if (failures == 1) {
      first_failed_run = run;
      first_failure = why;
    }
  };

  for (std::uint64_t run = 0; run < runs; ++run) {
    const rt::ChaosPlan plan = rt::ChaosPlan::make(mix(seed, run), num_chunks,
                                                   kItersPerChunk, chaos_opt);
    try {
      const bool gather = run % 4 == 3;
      const exec::ExecResult& want = gather ? gather_ref : ref;
      exec::RtOptions rt_opt;
      rt_opt.iters_per_chunk = kItersPerChunk;
      rt_opt.helper = run % 4 == 0   ? exec::HelperMode::kNone
                      : run % 4 == 1 ? exec::HelperMode::kPrefetch
                                     : exec::HelperMode::kRestructure;
      rt_opt.chaos = &plan;
      // Helpers off after 8x the reference time, sequential after twice that.
      const auto demote = std::chrono::milliseconds(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(8.0 * want.seconds * 1e3)));
      executor.set_soft_budget(demote, 2 * demote);
      exec::MaterializedLoop& target = gather ? gather_loop : loop;
      if (rt_opt.helper == exec::HelperMode::kRestructure) {
        const exec::StagingRegion region = target.staging_region();
        std::fill_n(region.data, region.bytes, kStagingPoison);
      }
      const exec::ExecResult got_rt = exec::run_cascaded(target, executor, rt_opt);
      if (got_rt.digest != want.digest || got_rt.rw_checksum != want.rw_checksum) {
        fail(run, "cascaded digest diverged from the sequential reference");
      }
    } catch (const std::exception& e) {
      // Helper-site chaos must never abort a cascade; an escaped exception
      // means the fail-soft protocol broke.
      fail(run, std::string("cascade aborted: ") + e.what());
    }
    totals.absorb(executor.last_run_stats());
    if ((run + 1) % 250 == 0) {
      std::cout << "  ..." << (run + 1) << "/" << runs << " cascades, "
                << report::fmt_count(totals.helper_faults) << " faults absorbed, "
                << failures << " failures\n";
    }
  }

  report::Table table({"Metric", "Total"});
  table.set_title("chaos soak degradation (" + std::to_string(runs) +
                  " cascades, seed " + std::to_string(seed) + ", " +
                  std::to_string(executor.num_threads()) + " threads)");
  table.add_row({"helper faults injected+absorbed",
                 report::fmt_count(totals.helper_faults)});
  table.add_row({"chunks reclaimed", report::fmt_count(totals.chunks_reclaimed)});
  table.add_row({"helper retries", report::fmt_count(totals.helper_retries)});
  table.add_row(
      {"stagings invalidated", report::fmt_count(totals.stagings_invalidated)});
  table.add_row(
      {"workers quarantined", report::fmt_count(totals.workers_quarantined)});
  table.add_row({"degraded runs", report::fmt_count(totals.degraded_runs)});
  table.add_row({"demoted runs", report::fmt_count(totals.demoted_runs)});
  table.add_row({"aborted/diverged runs", report::fmt_count(failures)});
  table.print(std::cout);

  if (failures != 0) {
    std::cerr << "SOAK FAIL: " << failures << " of " << runs
              << " cascades failed (first at run " << first_failed_run << ": "
              << first_failure << ")\n";
    return 1;
  }
  std::cout << "SOAK PASS: " << runs << "/" << runs
            << " cascades degraded-but-correct\n";
  return 0;
}

// A second, smaller spec so the daemon soak exercises pool-key diversity
// (two distinct materializations per shard, interleaved by the batcher).
constexpr const char* kSoakSpecSmall = R"(loop soak_small
trip 4096
compute 4 3
layout staggered
array y 8 4096 rw
array a 8 4096 ro
access a read
access y write
)";

struct TenantOutcome {
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t degraded = 0;
  std::uint64_t reused = 0;
  std::string first_error;
};

/// One tenant: pipelines `jobs` submits through a private connection in
/// windows of `window`, checking every reply against the local references.
void tenant_main(const std::string& socket_path, unsigned tenant_id,
                 std::uint64_t jobs, std::uint64_t window, bool chaos,
                 std::uint64_t seed,
                 const std::vector<std::string>& spec_texts,
                 const std::vector<std::pair<std::uint64_t, std::uint64_t>>& refs,
                 std::atomic<std::uint64_t>& live_completed,
                 TenantOutcome& out) {
  const auto fail = [&](const std::string& why) {
    ++out.errors;
    if (out.first_error.empty()) out.first_error = why;
  };

  svc::SvcClient client;
  if (!client.connect(socket_path)) {
    fail(client.last_error());
    out.errors += jobs;
    return;
  }

  svc::SubmitRequest req;
  req.tenant = "tenant-" + std::to_string(tenant_id);
  req.weight = 1 + tenant_id % 4;  // heterogeneous WRR weights

  std::uint64_t sent = 0, answered = 0;
  while (answered < jobs && out.errors == 0) {
    while (sent < jobs && sent - answered < window) {
      req.job = sent + 1;
      req.spec_text = spec_texts[sent % spec_texts.size()];
      if (chaos) req.chaos_seed = mix(seed, sent);
      if (!client.send_submit(req)) {
        fail("submit failed: " + client.last_error());
        return;
      }
      ++sent;
    }
    const svc::Reply reply = client.read_reply();
    if (reply.kind == svc::Reply::Kind::kResult) {
      ++answered;
      ++out.completed;
      live_completed.fetch_add(1, std::memory_order_relaxed);
      if (reply.result.reused) ++out.reused;
      if (reply.result.degraded) ++out.degraded;
      const auto& want = refs[(reply.result.job - 1) % refs.size()];
      if (reply.result.digest != want.first ||
          reply.result.rw_checksum != want.second) {
        ++out.mismatches;
        fail("job " + std::to_string(reply.result.job) +
             " digest diverged from the sequential reference");
      }
    } else if (reply.kind == svc::Reply::Kind::kError) {
      ++answered;
      fail("server error[" + reply.error.rule + "] job " +
           std::to_string(reply.error.job) + ": " + reply.error.message);
    } else {
      fail("connection lost: " + client.last_error());
      return;
    }
  }
}

int run_daemon_soak(const cli::Args& args) {
  const std::uint64_t total_jobs = std::max<std::uint64_t>(1, args.get_u64("jobs"));
  const unsigned tenants =
      static_cast<unsigned>(std::max<std::uint64_t>(2, args.get_u64("tenants")));
  const std::uint64_t window = std::max<std::uint64_t>(1, args.get_u64("window"));
  const std::uint64_t seed = args.get_u64("seed");
  const std::uint64_t jobs_per_tenant = (total_jobs + tenants - 1) / tenants;
  const double max_ratio =
      static_cast<double>(std::max<std::uint64_t>(1, args.get_u64("fairness-ratio")));

  const std::vector<std::string> spec_texts = {kSoakSpec, kSoakSpecSmall};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> refs;
  for (const std::string& text : spec_texts) {
    common::DiagnosticList diags;
    const loopir::LoopSpec spec = loopir::LoopSpec::parse(text, diags);
    if (!diags.ok()) {
      std::cerr << diags.render_text();
      return 1;
    }
    exec::MaterializedLoop loop(spec);
    const exec::ExecResult ref = exec::run_reference(loop);
    refs.emplace_back(ref.digest, ref.rw_checksum);
  }

  svc::SvcConfig cfg;
  cfg.socket_path = args.get("socket");
  if (cfg.socket_path.empty()) {
    cfg.socket_path = "/tmp/cascsoak-" + std::to_string(::getpid()) + ".sock";
  }
  cfg.num_shards = static_cast<unsigned>(std::max<std::uint64_t>(1, args.get_u64("shards")));
  cfg.threads_per_shard = static_cast<unsigned>(
      std::max<std::uint64_t>(1, args.get_u64("threads-per-shard")));
  cfg.queue_cap = std::max<std::size_t>(64, tenants * window * 2);
  svc::SvcServer server(std::move(cfg));
  server.start();
  std::cout << "daemon soak: " << total_jobs << " jobs, " << tenants
            << " tenants (tenant-0 chaos-injected), "
            << args.get_u64("shards") << " shard(s) on "
            << server.socket_path() << "\n";

  // Progress reporter: live completion count while the flood runs.
  std::atomic<std::uint64_t> live_completed{0};
  std::atomic<bool> flood_done{false};
  std::thread progress([&] {
    std::uint64_t last = 0;
    while (!flood_done.load()) {
      std::this_thread::sleep_for(std::chrono::seconds(2));
      const std::uint64_t now = live_completed.load();
      if (now != last && !flood_done.load()) {
        std::cout << "  ..." << now << "/" << total_jobs << " jobs completed\n";
        last = now;
      }
    }
  });

  // The flood: tenant-0 is the chaos tenant, everyone else runs clean.
  // Fairness snapshot: the first tenant to finish records everyone's live
  // completion counters; under WRR no tenant may be starved at that moment.
  std::vector<TenantOutcome> outcomes(tenants);
  std::vector<std::atomic<std::uint64_t>> per_tenant(tenants);
  std::mutex snapshot_mutex;
  std::vector<std::uint64_t> first_finish_snapshot;
  std::vector<std::thread> threads;
  threads.reserve(tenants);
  for (unsigned t = 0; t < tenants; ++t) {
    threads.emplace_back([&, t] {
      tenant_main(server.socket_path(), t, jobs_per_tenant, window,
                  /*chaos=*/t == 0, mix(seed, t), spec_texts, refs,
                  per_tenant[t], outcomes[t]);
      std::lock_guard<std::mutex> lock(snapshot_mutex);
      if (first_finish_snapshot.empty()) {
        first_finish_snapshot.reserve(tenants);
        for (unsigned u = 0; u < tenants; ++u) {
          first_finish_snapshot.push_back(per_tenant[u].load());
        }
      }
    });
  }
  // Aggregate per-tenant counters into the progress total.
  std::thread aggregator([&] {
    while (!flood_done.load()) {
      std::uint64_t sum = 0;
      for (unsigned t = 0; t < tenants; ++t) sum += per_tenant[t].load();
      live_completed.store(sum);
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });
  for (std::thread& th : threads) th.join();
  flood_done.store(true);
  progress.join();
  aggregator.join();

  // Graceful drain through the protocol, like an operator would.
  bool drained = false;
  std::uint64_t drain_completed = 0;
  {
    svc::SvcClient drain_client;
    if (drain_client.connect(server.socket_path()) &&
        drain_client.send_drain()) {
      const svc::Reply ack = drain_client.read_reply();
      if (ack.kind == svc::Reply::Kind::kDrainAck) {
        drained = true;
        drain_completed = ack.drain_completed;
      }
    }
  }
  server.wait();

  TenantOutcome totals;
  std::uint64_t min_done = ~0ull, max_done = 0;
  for (unsigned t = 0; t < tenants; ++t) {
    totals.completed += outcomes[t].completed;
    totals.errors += outcomes[t].errors;
    totals.mismatches += outcomes[t].mismatches;
    totals.degraded += outcomes[t].degraded;
    totals.reused += outcomes[t].reused;
    if (totals.first_error.empty()) totals.first_error = outcomes[t].first_error;
  }
  // Fairness over the snapshot at first-finisher time: every tenant had the
  // same per-tenant job count, so a starved tenant shows up as a tiny
  // completion count the moment the fastest tenant is done.
  for (const std::uint64_t done : first_finish_snapshot) {
    min_done = std::min(min_done, done);
    max_done = std::max(max_done, done);
  }
  const double ratio = min_done == 0
                           ? static_cast<double>(max_done == 0 ? 1 : max_done)
                           : static_cast<double>(max_done) /
                                 static_cast<double>(min_done);
  const bool fair = min_done > 0 && ratio <= max_ratio;

  report::Table table({"Metric", "Total"});
  table.set_title("daemon soak (" + std::to_string(tenants) + " tenants x " +
                  std::to_string(jobs_per_tenant) + " jobs, seed " +
                  std::to_string(seed) + ")");
  table.add_row({"jobs completed", report::fmt_count(totals.completed)});
  table.add_row({"pool reuses", report::fmt_count(totals.reused)});
  table.add_row({"degraded (chaos absorbed)", report::fmt_count(totals.degraded)});
  table.add_row({"digest mismatches", report::fmt_count(totals.mismatches)});
  table.add_row({"errors", report::fmt_count(totals.errors)});
  table.add_row({"fairness max/min at first finish",
                 report::fmt_double(ratio) + " (cap " +
                     report::fmt_double(max_ratio) + ")"});
  table.add_row({"drain ack", drained ? "ok (" +
                     std::to_string(drain_completed) + " jobs)" : "MISSING"});
  table.print(std::cout);

  const std::uint64_t expected = jobs_per_tenant * tenants;
  if (totals.errors != 0 || totals.mismatches != 0 ||
      totals.completed != expected || !fair || !drained) {
    std::cerr << "SOAK FAIL (daemon): completed " << totals.completed << "/"
              << expected << ", errors " << totals.errors << ", mismatches "
              << totals.mismatches << ", fairness "
              << (fair ? "ok" : "VIOLATED") << ", drain "
              << (drained ? "ok" : "missing");
    if (!totals.first_error.empty()) {
      std::cerr << " (first error: " << totals.first_error << ")";
    }
    std::cerr << "\n";
    return 1;
  }
  std::cout << "SOAK PASS (daemon): " << totals.completed << "/" << expected
            << " jobs digest-identical across " << tenants
            << " tenants, fairness ratio " << report::fmt_double(ratio) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  try {
    const cli::Args args = cli::Args::parse(raw, kSpecs);
    if (args.has("help")) {
      std::cout << cli::Args::help("cascsoak",
                                   "chaos soak harness for the fail-soft runtime",
                                   kSpecs);
      return 0;
    }
    if (args.has("daemon")) return run_daemon_soak(args);
    return run_soak(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
