// cascsim — command-line driver for the cascaded-execution pipeline.
//
// One loop description, two backends:
//   * --backend=sim (default): the cycle-accurate simulated machine;
//   * --backend=rt: the SAME spec materialized into real arrays and run on
//     the real threaded runtime (casc::exec), reported predicted-vs-measured
//     with casc-bench-v1 JSON output.
//
// Examples:
//   cascsim --machine=r10000 --loop=parmvr:8 --helper=restructure
//   cascsim --machine=ppro --procs=4 --loop=parmvr --chunk=64K
//   cascsim --machine=future:8 --loop=synth:sparse --unbounded --sweep=1K:256K --plot
//   cascsim --loop=file:myloop.casc --helper=auto --threecs
//   cascsim --backend=rt --loop=file:a.casc,b.casc --threads=4
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "casc/cascade/engine.hpp"
#include "casc/cascade/helper_selector.hpp"
#include "casc/cascade/sequence.hpp"
#include "casc/cli/args.hpp"
#include "casc/common/check.hpp"
#include "casc/common/diagnostic.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/pipeline.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/report/ascii_plot.hpp"
#include "casc/report/table.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/state_dump.hpp"
#include "casc/sim/three_cs.hpp"
#include "casc/synth/synthetic_loop.hpp"
#include "casc/telemetry/bench_reporter.hpp"
#include "casc/telemetry/perf_counters.hpp"
#include "casc/telemetry/timeline_export.hpp"
#include "casc/trace/trace.hpp"
#include "casc/wave5/parmvr.hpp"

namespace {

using namespace casc;  // NOLINT(build/namespaces)

const std::vector<cli::OptionSpec> kSpecs = {
    {"backend", "sim|rt", "simulated machine, or the real threaded runtime", "sim"},
    {"machine", "ppro|r10000|future:N", "machine model", "ppro"},
    {"procs", "N", "processor count (0 = machine default)", "0"},
    {"loop", "parmvr[:id]|synth:dense|synth:sparse|file:PATH|trace:PATH",
     "workload; file:PATH takes loop specs or pipeline chains "
     "(--backend=rt takes file:PATH[,PATH...])", "parmvr"},
    {"dump-trace", "PATH", "capture the (single) loop's trace to a file and exit", ""},
    {"scale", "N", "divide PARMVR footprints by N", "1"},
    {"helper", "none|prefetch|restructure|auto", "helper strategy", "restructure"},
    {"chunk", "BYTES", "chunk size (K/M suffixes ok)", "64K"},
    {"threads", "N", "rt backend: worker threads (0 = hardware)", "0"},
    {"bench-name", "NAME", "rt backend: BENCH_<NAME>.json output name", "xval_specs"},
    {"sweep", "MIN:MAX", "sweep chunk sizes instead of a single run", ""},
    {"calls", "N", "repeat the workload N times on one machine", "1"},
    {"start", "cold|distributed|warm", "initial cache state", "distributed"},
    {"unbounded", "", "paper-style unbounded helper time", ""},
    {"no-jump-out", "", "disable helper jump-out", ""},
    {"plot", "", "render sweeps as an ASCII plot", ""},
    {"threecs", "", "classify L1/L2 misses (compulsory/capacity/conflict)", ""},
    {"trace-json", "PATH",
     "write the cascaded run's timeline as a Chrome/Perfetto trace", ""},
    {"chaos", "SEED",
     "rt backend: seeded chaos fault injection against the helpers (kill / "
     "stall / corrupt staging); degraded-but-correct runs still exit 0 and "
     "print a degradation table",
     ""},
    {"counters", "", "measure hardware counters around the run (perf_event)", ""},
    {"help", "", "show this help", ""},
};

/// Bad *user input* (unknown names, unreadable files, malformed specs).
/// Unlike CheckFailure — which is reserved for internal invariant violations
/// and aborts with the full help screen — a UsageError carries structured
/// Diagnostics, is rendered one finding per line, and exits 2.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(common::DiagnosticList diags)
      : std::runtime_error(diags.render_text()), diags_(std::move(diags)) {}

  [[nodiscard]] const common::DiagnosticList& diags() const noexcept {
    return diags_;
  }

 private:
  common::DiagnosticList diags_;
};

[[noreturn]] void usage_error(std::string rule, std::string message) {
  common::DiagnosticList diags;
  diags.error(std::move(rule), std::move(message));
  throw UsageError(std::move(diags));
}

sim::MachineConfig make_machine(const cli::Args& args) {
  const std::string name = args.get("machine");
  sim::MachineConfig cfg;
  if (name == "ppro" || name == "pentium_pro") {
    cfg = sim::MachineConfig::pentium_pro();
  } else if (name == "r10000" || name == "r10k") {
    cfg = sim::MachineConfig::r10000();
  } else if (name.rfind("future:", 0) == 0) {
    try {
      cfg = sim::MachineConfig::future(std::stod(name.substr(7)));
    } catch (const std::exception&) {
      usage_error("cli-unknown-machine",
                  "malformed future machine '" + name + "' (expected future:N)");
    }
  } else {
    usage_error("cli-unknown-machine",
                "unknown machine '" + name + "' (expected ppro, r10000, or future:N)");
  }
  const std::uint64_t procs = args.get_u64("procs");
  if (procs != 0) cfg.num_processors = static_cast<unsigned>(procs);
  return cfg;
}

/// Reads one spec file whole, or exits 2 with a Diagnostic.
std::string read_spec_text(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    usage_error("cli-spec-unreadable", "cannot open loop spec '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reads and parses one .casc spec, reporting every problem as a Diagnostic.
loopir::LoopSpec load_spec_file(const std::string& path) {
  common::DiagnosticList diags;
  loopir::LoopSpec spec = loopir::LoopSpec::parse(read_spec_text(path), diags);
  if (!diags.ok()) throw UsageError(std::move(diags));
  return spec;
}

/// Parses pipeline text with collected diagnostics, or exits 2.
loopir::PipelineSpec parse_pipeline(const std::string& text) {
  common::DiagnosticList diags;
  loopir::PipelineSpec spec = loopir::PipelineSpec::parse(text, diags);
  if (!diags.ok()) throw UsageError(std::move(diags));
  return spec;
}

std::vector<loopir::LoopNest> make_loops(const cli::Args& args) {
  const std::string loop = args.get("loop");
  const unsigned scale = static_cast<unsigned>(std::max<std::uint64_t>(1, args.get_u64("scale")));
  std::vector<loopir::LoopNest> loops;
  if (loop == "parmvr") {
    loops = wave5::make_parmvr(scale);
  } else if (loop.rfind("parmvr:", 0) == 0) {
    loops.push_back(wave5::make_parmvr_loop(std::stoi(loop.substr(7)), scale));
  } else if (loop == "synth:dense") {
    loops.push_back(synth::make_synthetic_loop(synth::Density::kDense));
  } else if (loop == "synth:sparse") {
    loops.push_back(synth::make_synthetic_loop(synth::Density::kSparse));
  } else if (loop.rfind("file:", 0) == 0) {
    loops.push_back(load_spec_file(loop.substr(5)).instantiate());
  } else {
    usage_error("cli-unknown-loop",
                "unknown loop '" + loop +
                    "' (expected parmvr[:id], synth:dense, synth:sparse, "
                    "file:PATH, or trace:PATH)");
  }
  return loops;
}

cascade::CascadeOptions make_options(const cli::Args& args) {
  cascade::CascadeOptions opt;
  opt.chunk_bytes = args.get_bytes("chunk");
  opt.jump_out = !args.has("no-jump-out");
  if (args.has("unbounded")) opt.time_model = cascade::HelperTimeModel::kUnbounded;
  const std::string start = args.get("start");
  if (start == "cold") {
    opt.start_state = cascade::StartState::kCold;
  } else if (start == "distributed") {
    opt.start_state = cascade::StartState::kDistributed;
  } else if (start == "warm") {
    opt.start_state = cascade::StartState::kWarmSingle;
  } else {
    usage_error("cli-unknown-start",
                "unknown start state '" + start +
                    "' (expected cold, distributed, or warm)");
  }
  const std::string helper = args.get("helper");
  if (helper == "none") {
    opt.helper = cascade::HelperKind::kNone;
  } else if (helper == "prefetch") {
    opt.helper = cascade::HelperKind::kPrefetch;
  } else if (helper == "restructure" || helper == "auto") {
    opt.helper = cascade::HelperKind::kRestructure;
  } else {
    usage_error("cli-unknown-helper",
                "unknown helper '" + helper +
                    "' (expected none, prefetch, restructure, or auto)");
  }
  return opt;
}

void run_threecs(const std::vector<loopir::LoopNest>& loops,
                 const sim::MachineConfig& cfg) {
  report::Table table({"Loop", "Level", "Accesses", "Compulsory", "Capacity",
                       "Conflict", "Conflict share"});
  table.set_title("Three-Cs miss classification on " + cfg.name);
  for (const loopir::LoopNest& nest : loops) {
    for (const auto* level : {&cfg.l1, &cfg.l2}) {
      sim::MissClassifier classifier(*level);
      std::vector<loopir::Ref> refs;
      for (std::uint64_t it = 0; it < nest.num_iterations(); ++it) {
        refs.clear();
        nest.refs_for_iteration(it, refs);
        for (const loopir::Ref& r : refs) classifier.access(r.mem.addr, r.mem.size);
      }
      const sim::ThreeCs& c = classifier.counts();
      table.add_row({nest.name(), level->name, report::fmt_count(c.accesses),
                     report::fmt_count(c.compulsory), report::fmt_count(c.capacity),
                     report::fmt_count(c.conflict),
                     report::fmt_percent(c.conflict_fraction())});
    }
  }
  table.print(std::cout);
}

/// --backend=sim with a pipeline chain: every stage runs on ONE persistent
/// simulated machine (continue_*), so stage k's cache lines are warm for
/// stage k+1 — versus the independent baseline, a fresh machine per stage.
int run_sim_pipeline(const loopir::PipelineSpec& spec, const cli::Args& args,
                     const sim::MachineConfig& cfg,
                     const cascade::CascadeOptions& opt) {
  for (const char* mode : {"threecs", "dump-trace", "sweep"}) {
    if (args.has(mode)) {
      usage_error("cli-pipeline-mode",
                  std::string("--") + mode +
                      " works on single-loop workloads; pipeline chains "
                      "support the plain run and --calls only");
    }
  }
  std::vector<loopir::LoopNest> nests;
  nests.reserve(spec.stages.size());
  for (std::size_t k = 0; k < spec.stages.size(); ++k) {
    nests.push_back(spec.stage_spec(k).instantiate());
  }

  const unsigned calls =
      static_cast<unsigned>(std::max<std::uint64_t>(1, args.get_u64("calls")));
  if (calls > 1) {
    // Repeated chains reuse the sequence machinery: the stage list is one
    // call, the persistent machine carries cache state across calls.
    cascade::CascadeSimulator sim(cfg);
    const auto seq = cascade::run_sequence_sequential(sim, nests, calls, opt.start_state);
    const auto casc_seq = cascade::run_sequence_cascaded(sim, nests, calls, opt);
    report::Table table({"Call", "Sequential cycles", "Cascaded cycles", "Speedup"});
    table.set_title(cfg.name + ": pipeline " + spec.name + ", " +
                    std::to_string(calls) + " repeated calls");
    for (unsigned c = 1; c <= calls; ++c) {
      table.add_row({std::to_string(c), report::fmt_count(seq.call(c)),
                     report::fmt_count(casc_seq.call(c)),
                     report::fmt_double(static_cast<double>(seq.call(c)) /
                                        static_cast<double>(casc_seq.call(c)))});
    }
    table.print(std::cout);
    return 0;
  }

  cascade::CascadeSimulator seq_sim(cfg);
  cascade::CascadeSimulator chain_sim(cfg);
  report::Table table({"Stage", "Iters", "Seq cycles", "Chained cycles",
                       "Independent cycles", "Speedup", "Chain gain"});
  table.set_title(cfg.name + ": pipeline " + spec.name + " (" +
                  cascade::to_string(opt.helper) + ", " +
                  report::fmt_bytes(opt.chunk_bytes) + " chunks)");
  std::uint64_t seq_total = 0, chain_total = 0, indep_total = 0;
  for (std::size_t k = 0; k < nests.size(); ++k) {
    const auto seq = k == 0 ? seq_sim.run_sequential(nests[k], opt.start_state)
                            : seq_sim.continue_sequential(nests[k]);
    const auto chained = k == 0 ? chain_sim.run_cascaded(nests[k], opt)
                                : chain_sim.continue_cascaded(nests[k], opt);
    cascade::CascadeSimulator fresh(cfg);
    const auto indep = fresh.run_cascaded(nests[k], opt);
    seq_total += seq.total_cycles;
    chain_total += chained.total_cycles;
    indep_total += indep.total_cycles;
    table.add_row({spec.stages[k].name,
                   report::fmt_count(nests[k].num_iterations()),
                   report::fmt_count(seq.total_cycles),
                   report::fmt_count(chained.total_cycles),
                   report::fmt_count(indep.total_cycles),
                   report::fmt_double(static_cast<double>(seq.total_cycles) /
                                      static_cast<double>(chained.total_cycles)),
                   report::fmt_double(static_cast<double>(indep.total_cycles) /
                                      static_cast<double>(chained.total_cycles))});
  }
  table.add_row({"whole chain", "", report::fmt_count(seq_total),
                 report::fmt_count(chain_total), report::fmt_count(indep_total),
                 report::fmt_double(static_cast<double>(seq_total) /
                                    static_cast<double>(chain_total)),
                 report::fmt_double(static_cast<double>(indep_total) /
                                    static_cast<double>(chain_total))});
  table.print(std::cout);
  return 0;
}

/// --backend=rt with a pipeline chain: predicted per stage on one persistent
/// simulated machine, measured per stage on the real runtime through the
/// chain's staging arena, and the whole chain cross-validated bit for bit
/// against both the sequential reference and the independent-cascades
/// baseline.  Returns false on any digest divergence.
bool run_rt_pipeline(const std::string& text, const sim::MachineConfig& cfg,
                     const cascade::CascadeOptions& sim_opt,
                     const exec::RtOptions& rt_opt,
                     rt::CascadeExecutor& executor,
                     telemetry::BenchReporter& reporter) {
  const loopir::PipelineSpec spec = parse_pipeline(text);
  exec::MaterializedPipeline pipe(spec);
  const std::size_t n = pipe.num_stages();

  // Predicted: the chain on one persistent machine vs a fresh machine per
  // stage (the same contrast the rt measurement draws).
  cascade::CascadeSimulator seq_sim(cfg);
  cascade::CascadeSimulator chain_sim(cfg);
  std::vector<std::uint64_t> pred_seq(n), pred_chain(n);
  std::uint64_t pred_seq_total = 0, pred_chain_total = 0, pred_indep_total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const loopir::LoopNest& nest = pipe.stage(k).nest();
    pred_seq[k] = (k == 0 ? seq_sim.run_sequential(nest, sim_opt.start_state)
                          : seq_sim.continue_sequential(nest))
                      .total_cycles;
    pred_chain[k] = (k == 0 ? chain_sim.run_cascaded(nest, sim_opt)
                            : chain_sim.continue_cascaded(nest, sim_opt))
                        .total_cycles;
    cascade::CascadeSimulator fresh(cfg);
    pred_indep_total += fresh.run_cascaded(nest, sim_opt).total_cycles;
    pred_seq_total += pred_seq[k];
    pred_chain_total += pred_chain[k];
  }

  // Measured: sequential reference, the pipelined cascade (one executor, one
  // arena), and the independent-cascades baseline (fresh executor per stage).
  exec::PipelineResult ref = exec::run_pipeline_reference(pipe);
  exec::PipelineResult chain = exec::run_pipeline_cascaded(pipe, executor, rt_opt);
  exec::PipelineResult indep =
      exec::run_pipeline_independent(pipe, executor.num_threads(), rt_opt);

  const bool match = chain.chain_digest == ref.chain_digest &&
                     chain.rw_checksum == ref.rw_checksum &&
                     indep.chain_digest == ref.chain_digest &&
                     indep.rw_checksum == ref.rw_checksum;

  report::Table table({"Stage", "Iters", "Predicted speedup", "Measured speedup",
                       "Staged", "Digest"});
  table.set_title("pipeline " + spec.name + ": predicted (sim: " + cfg.name +
                  ") vs measured (rt: " + std::to_string(executor.num_threads()) +
                  " threads, " + cascade::to_string(sim_opt.helper) + ", " +
                  report::fmt_bytes(sim_opt.chunk_bytes) + " chunks)");
  for (std::size_t k = 0; k < n; ++k) {
    const exec::PipelineStageResult& st = chain.stages[k];
    const bool stage_match = st.result.digest == ref.stages[k].result.digest;
    table.add_row(
        {st.name, report::fmt_count(st.result.total_iters),
         report::fmt_double(static_cast<double>(pred_seq[k]) /
                            static_cast<double>(pred_chain[k])),
         report::fmt_double(st.result.seconds > 0.0
                                ? ref.stages[k].result.seconds / st.result.seconds
                                : 0.0),
         report::fmt_count(st.result.staged_chunks),
         stage_match ? "match" : "MISMATCH"});
    if (st.result.preflight_refused) {
      std::cout << "note: " << st.name
                << ": restructure refused by preflight, helper degraded: "
                << st.result.preflight_diag << "\n";
    }
  }
  table.add_row({"whole chain", "",
                 report::fmt_double(static_cast<double>(pred_seq_total) /
                                    static_cast<double>(pred_chain_total)),
                 report::fmt_double(chain.seconds > 0.0 ? ref.seconds / chain.seconds
                                                        : 0.0),
                 "", match ? "match" : "MISMATCH"});
  table.print(std::cout);
  std::cout << "pipeline vs independent cascades: "
            << report::fmt_double(chain.seconds > 0.0 ? indep.seconds / chain.seconds
                                                      : 0.0)
            << "x measured, "
            << report::fmt_double(static_cast<double>(pred_indep_total) /
                                  static_cast<double>(pred_chain_total))
            << "x predicted\n";

  reporter.add_metric(spec.name + ".predicted_speedup",
                      static_cast<double>(pred_seq_total) /
                          static_cast<double>(pred_chain_total));
  reporter.add_metric(spec.name + ".measured_speedup",
                      chain.seconds > 0.0 ? ref.seconds / chain.seconds : 0.0);
  reporter.add_metric(spec.name + ".pipeline_vs_independent",
                      chain.seconds > 0.0 ? indep.seconds / chain.seconds : 0.0);
  reporter.add_metric(spec.name + ".digest_match", match ? 1.0 : 0.0);
  reporter.add_wall_ns(static_cast<std::int64_t>(chain.seconds * 1e9));
  return match;
}

/// --backend=rt: materialize each spec, predict with the simulator, measure
/// on the real threaded runtime, and cross-validate bit for bit.
int run_backend_rt(const cli::Args& args) {
  const std::string loop = args.get("loop");
  if (loop.rfind("file:", 0) != 0) {
    usage_error("cli-backend-loop",
                "--backend=rt executes materialized specs only; pass "
                "--loop=file:PATH[,PATH...]");
  }
  std::vector<std::string> paths;
  std::string rest = loop.substr(5);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string head = rest.substr(0, comma);
    if (!head.empty()) paths.push_back(head);
    if (comma == std::string::npos) break;
    rest = rest.substr(comma + 1);
  }
  if (paths.empty()) {
    usage_error("cli-backend-loop", "--backend=rt got an empty file: list");
  }

  const sim::MachineConfig cfg = make_machine(args);
  const cascade::CascadeOptions sim_opt = make_options(args);
  exec::RtOptions rt_opt;
  rt_opt.chunk_bytes = sim_opt.chunk_bytes;
  switch (sim_opt.helper) {
    case cascade::HelperKind::kNone: rt_opt.helper = exec::HelperMode::kNone; break;
    case cascade::HelperKind::kPrefetch:
      rt_opt.helper = exec::HelperMode::kPrefetch;
      break;
    case cascade::HelperKind::kRestructure:
      rt_opt.helper = exec::HelperMode::kRestructure;
      break;
  }

  rt::ExecutorConfig exec_cfg;
  exec_cfg.num_threads = static_cast<unsigned>(args.get_u64("threads"));
  rt::CascadeExecutor executor(exec_cfg);

  const bool chaos_on = args.has("chaos");
  const std::uint64_t chaos_seed = chaos_on ? args.get_u64("chaos") : 0;

  telemetry::BenchReporter reporter(args.get("bench-name"));
  reporter.set_param("backend", std::string("rt"));
  reporter.set_param("machine", cfg.name);
  reporter.set_param("chunk_bytes", sim_opt.chunk_bytes);
  reporter.set_param("helper", cascade::to_string(sim_opt.helper));
  reporter.set_param("threads", std::uint64_t{executor.num_threads()});
  if (chaos_on) reporter.set_param("chaos_seed", chaos_seed);

  telemetry::PerfCounters counters;
  counters.start();

  report::Table table({"Loop", "Iters", "Chunk iters", "Chunks", "Predicted speedup",
                       "Measured speedup", "Staged", "Digest", "Preflight"});
  table.set_title("predicted (sim: " + cfg.name + ") vs measured (rt: " +
                  std::to_string(executor.num_threads()) + " threads, " +
                  cascade::to_string(sim_opt.helper) + ", " +
                  report::fmt_bytes(sim_opt.chunk_bytes) + " chunks)");

  report::Table degrade_table({"Loop", "Faults planned", "Helper faults",
                               "Reclaimed", "Retries", "Invalidated",
                               "Quarantined", "Demotion"});
  degrade_table.set_title("fail-soft degradation under chaos (seed " +
                          std::to_string(chaos_seed) + ")");

  bool all_match = true;
  std::uint64_t loop_index = 0;
  for (const std::string& path : paths) {
    const std::string text = read_spec_text(path);
    // Pipeline chains print their own predicted-vs-measured table.  Chaos
    // stays off for chains: the seeded fault schedules are derived per
    // single-loop chunk geometry.
    if (loopir::is_pipeline_text(text)) {
      all_match =
          run_rt_pipeline(text, cfg, sim_opt, rt_opt, executor, reporter) &&
          all_match;
      ++loop_index;
      continue;
    }
    common::DiagnosticList parse_diags;
    const loopir::LoopSpec spec = loopir::LoopSpec::parse(text, parse_diags);
    if (!parse_diags.ok()) throw UsageError(std::move(parse_diags));
    exec::MaterializedLoop loop_mat(spec);
    const std::string& name = loop_mat.nest().name();

    // Predicted: the simulated machine over the same (sanitized) nest.
    cascade::CascadeSimulator sim(cfg);
    const auto seq = sim.run_sequential(loop_mat.nest(), sim_opt.start_state);
    const auto casc_result = sim.run_cascaded(loop_mat.nest(), sim_opt);
    const double predicted = static_cast<double>(seq.total_cycles) /
                             static_cast<double>(casc_result.total_cycles);

    // Measured: sequential reference, then the cascaded threaded run.
    const exec::ExecResult ref = exec::run_reference(loop_mat);
    rt::ChaosPlan chaos_plan;
    if (chaos_on) {
      // Derive the plan from the run's actual chunk geometry, vary the seed
      // per loop, and soft-budget the run off the measured reference time so
      // a chaos pile-up demotes instead of wedging.
      std::uint64_t ipc = rt_opt.iters_per_chunk;
      if (ipc == 0) ipc = exec::plan_for(loop_mat, rt_opt.chunk_bytes).iters_per_chunk();
      const std::uint64_t total = loop_mat.num_iterations();
      const std::uint64_t num_chunks = total == 0 ? 0 : (total + ipc - 1) / ipc;
      chaos_plan = rt::ChaosPlan::make(chaos_seed + loop_index, num_chunks, ipc);
      rt_opt.chaos = &chaos_plan;
      rt_opt.soft_budget_factor = 8.0;
      rt_opt.estimated_seq_seconds = ref.seconds;
    }
    ++loop_index;
    const exec::ExecResult rt_result = exec::run_cascaded(loop_mat, executor, rt_opt);
    rt_opt.chaos = nullptr;
    const bool match = rt_result.digest == ref.digest &&
                       rt_result.rw_checksum == ref.rw_checksum;
    all_match = all_match && match;
    const double measured = rt_result.seconds > 0.0 ? ref.seconds / rt_result.seconds : 0.0;

    table.add_row({name, report::fmt_count(rt_result.total_iters),
                   report::fmt_count(rt_result.iters_per_chunk),
                   report::fmt_count(rt_result.num_chunks),
                   report::fmt_double(predicted), report::fmt_double(measured),
                   report::fmt_count(rt_result.staged_chunks),
                   match ? "match" : "MISMATCH",
                   rt_result.preflight_refused ? "refused" : "ok"});

    reporter.add_metric(name + ".predicted_speedup", predicted);
    reporter.add_metric(name + ".measured_speedup", measured);
    reporter.add_metric(name + ".digest_match", match ? 1.0 : 0.0);
    reporter.add_metric(name + ".num_chunks",
                        static_cast<double>(rt_result.num_chunks));
    reporter.add_metric(name + ".staged_chunks",
                        static_cast<double>(rt_result.staged_chunks));
    reporter.add_metric(name + ".preflight_refused",
                        rt_result.preflight_refused ? 1.0 : 0.0);
    reporter.add_wall_ns(static_cast<std::int64_t>(rt_result.seconds * 1e9));

    if (chaos_on) {
      degrade_table.add_row(
          {name, report::fmt_count(chaos_plan.faults().size()),
           report::fmt_count(rt_result.helper_faults),
           report::fmt_count(rt_result.chunks_reclaimed),
           report::fmt_count(rt_result.helper_retries),
           report::fmt_count(rt_result.stagings_invalidated),
           report::fmt_count(rt_result.workers_quarantined),
           std::to_string(rt_result.demotion_level)});
      reporter.add_metric(name + ".helper_faults",
                          static_cast<double>(rt_result.helper_faults));
      reporter.add_metric(name + ".chunks_reclaimed",
                          static_cast<double>(rt_result.chunks_reclaimed));
      reporter.add_metric(name + ".helper_retries",
                          static_cast<double>(rt_result.helper_retries));
      reporter.add_metric(name + ".workers_quarantined",
                          static_cast<double>(rt_result.workers_quarantined));
      reporter.add_metric(name + ".degraded", rt_result.degraded ? 1.0 : 0.0);
    }

    if (rt_result.preflight_refused) {
      std::cout << "note: " << name
                << ": restructure refused by preflight, helper degraded: "
                << rt_result.preflight_diag << "\n";
    }
  }

  counters.stop();
  reporter.set_counters(counters.available() ? counters.read()
                                             : telemetry::CounterSample{},
                        counters.available(), counters.unavailable_reason());

  table.print(std::cout);
  if (chaos_on) {
    // The exit-code contract: degraded-but-correct is success.  Any chaos
    // damage shows up here; only a digest mismatch (below) fails the run.
    std::cout << "\n";
    degrade_table.print(std::cout);
  }
  const std::string written = reporter.write_file();
  if (!written.empty()) std::cout << "bench json: " << written << "\n";

  if (!all_match) {
    std::cerr << "error[xval-digest-mismatch]: cascaded rt execution diverged "
                 "from the sequential reference\n";
    return 4;
  }
  return 0;
}

int run_modes(const cli::Args& args, telemetry::TraceWriter* trace) {
  const sim::MachineConfig cfg = make_machine(args);
  cascade::CascadeOptions opt = make_options(args);
  opt.record_timeline = trace != nullptr;

  // Trace replay is a dedicated path: traces are Workloads, not LoopNests.
  if (args.get("loop").rfind("trace:", 0) == 0) {
    const trace::Trace t = trace::Trace::load(args.get("loop").substr(6));
    const trace::TraceWorkload workload(t);
    cascade::CascadeSimulator sim(cfg);
    const auto seq = sim.run_sequential(workload, opt.start_state);
    const auto casc_result = sim.run_cascaded(workload, opt);
    if (trace != nullptr) {
      telemetry::append_sim_timeline(*trace, casc_result.timeline,
                                     cfg.num_processors, 0,
                                     cfg.name + ": " + t.meta().name);
    }
    report::Table table({"Trace", "Iterations", "Refs", "Seq cycles",
                         "Cascaded cycles", "Speedup"});
    table.set_title(cfg.name + ": trace replay (" + cascade::to_string(opt.helper) +
                    ", " + report::fmt_bytes(opt.chunk_bytes) + " chunks)");
    table.add_row({t.meta().name, report::fmt_count(t.num_iterations()),
                   report::fmt_count(t.num_refs()),
                   report::fmt_count(seq.total_cycles),
                   report::fmt_count(casc_result.total_cycles),
                   report::fmt_double(static_cast<double>(seq.total_cycles) /
                                      static_cast<double>(casc_result.total_cycles))});
    table.print(std::cout);
    return 0;
  }

  // Pipeline chains get the chained-vs-independent treatment; a chain is a
  // whole workload, so it bypasses the single-loop modes below.
  if (args.get("loop").rfind("file:", 0) == 0) {
    const std::string text = read_spec_text(args.get("loop").substr(5));
    if (loopir::is_pipeline_text(text)) {
      return run_sim_pipeline(parse_pipeline(text), args, cfg, opt);
    }
  }

  const std::vector<loopir::LoopNest> loops = make_loops(args);
  cascade::CascadeSimulator sim(cfg);

  if (args.has("threecs")) {
    run_threecs(loops, cfg);
    return 0;
  }

  if (args.has("dump-trace")) {
    if (loops.size() != 1) {
      usage_error("cli-dump-trace-multi-loop",
                  "--dump-trace needs a single-loop workload (" +
                      std::to_string(loops.size()) +
                      " loops selected); pick one with --loop=parmvr:ID or "
                      "--loop=file:PATH");
    }
    const trace::Trace t = trace::Trace::capture(loops[0]);
    t.save(args.get("dump-trace"));
    std::cout << "wrote " << report::fmt_count(t.num_refs()) << " refs over "
              << report::fmt_count(t.num_iterations()) << " iterations to "
              << args.get("dump-trace") << "\n";
    return 0;
  }

  if (args.has("sweep")) {
    const std::string sweep = args.get("sweep");
    const auto colon = sweep.find(':');
    if (colon == std::string::npos) {
      usage_error("cli-bad-sweep", "--sweep expects MIN:MAX, got '" + sweep + "'");
    }
    std::uint64_t lo = 0, hi = 0;
    try {
      lo = cli::parse_bytes(sweep.substr(0, colon));
      hi = cli::parse_bytes(sweep.substr(colon + 1));
    } catch (const common::CheckFailure& e) {
      usage_error("cli-bad-sweep", std::string("--sweep: ") + e.what());
    }
    if (lo == 0 || lo > hi) {
      usage_error("cli-bad-sweep", "invalid sweep range '" + sweep +
                                       "' (need 0 < MIN <= MAX)");
    }

    std::vector<double> xs;
    report::Series curve{"speedup (" + cascade::to_string(opt.helper) + ")", {}};
    report::Table table({"Chunk", "Speedup"});
    table.set_title(cfg.name + ": chunk sweep over " + std::to_string(loops.size()) +
                    " loop(s)");
    for (std::uint64_t bytes = lo; bytes <= hi; bytes *= 2) {
      opt.chunk_bytes = bytes;
      std::uint64_t seq = 0, casc_cycles = 0;
      for (const auto& nest : loops) {
        seq += sim.run_sequential(nest, opt.start_state).total_cycles;
        casc_cycles += sim.run_cascaded(nest, opt).total_cycles;
      }
      const double speedup =
          static_cast<double>(seq) / static_cast<double>(casc_cycles);
      xs.push_back(static_cast<double>(bytes) / 1024.0);
      curve.ys.push_back(speedup);
      table.add_row({report::fmt_bytes(bytes), report::fmt_double(speedup)});
    }
    table.print(std::cout);
    if (args.has("plot")) {
      report::PlotOptions plot;
      plot.log_x = true;
      plot.x_label = "KB per chunk";
      plot.y_label = "speedup";
      std::cout << "\n" << report::render_plot(xs, {curve}, plot);
    }
    return 0;
  }

  if (args.get("helper") == "auto") {
    report::Table table({"Loop", "Chosen helper", "Chunk", "Speedup", "none",
                         "prefetch", "restructure"});
    table.set_title(cfg.name + ": automatic helper selection");
    for (const auto& nest : loops) {
      const cascade::HelperChoice choice = cascade::select_helper(sim, nest, opt);
      table.add_row({nest.name(), cascade::to_string(choice.helper),
                     report::fmt_bytes(choice.chunk_bytes),
                     report::fmt_double(choice.speedup),
                     report::fmt_double(choice.speedup_by_kind[0]),
                     report::fmt_double(choice.speedup_by_kind[1]),
                     report::fmt_double(choice.speedup_by_kind[2])});
    }
    table.print(std::cout);
    return 0;
  }

  const unsigned calls = static_cast<unsigned>(std::max<std::uint64_t>(1, args.get_u64("calls")));
  if (calls > 1) {
    const auto seq = cascade::run_sequence_sequential(sim, loops, calls, opt.start_state);
    const auto casc_seq = cascade::run_sequence_cascaded(sim, loops, calls, opt);
    report::Table table({"Call", "Sequential cycles", "Cascaded cycles", "Speedup"});
    table.set_title(cfg.name + ": " + std::to_string(calls) + " repeated calls");
    for (unsigned c = 1; c <= calls; ++c) {
      table.add_row({std::to_string(c), report::fmt_count(seq.call(c)),
                     report::fmt_count(casc_seq.call(c)),
                     report::fmt_double(static_cast<double>(seq.call(c)) /
                                        static_cast<double>(casc_seq.call(c)))});
    }
    table.print(std::cout);
    return 0;
  }

  report::Table table({"Loop", "Footprint", "Seq cycles", "Cascaded cycles", "Speedup",
                       "Exec L2 misses", "Seq L2 misses", "Helper coverage"});
  table.set_title(cfg.name + " (" + std::to_string(cfg.num_processors) + " procs, " +
                  report::fmt_bytes(opt.chunk_bytes) + " chunks, " +
                  cascade::to_string(opt.helper) + ")");
  std::uint64_t seq_total = 0, casc_total = 0;
  int pid = 0;
  for (const auto& nest : loops) {
    const auto seq = sim.run_sequential(nest, opt.start_state);
    const auto casc_result = sim.run_cascaded(nest, opt);
    if (trace != nullptr) {
      telemetry::append_sim_timeline(*trace, casc_result.timeline,
                                     cfg.num_processors, pid++,
                                     cfg.name + ": " + nest.name());
    }
    seq_total += seq.total_cycles;
    casc_total += casc_result.total_cycles;
    table.add_row({nest.name(), report::fmt_bytes(nest.footprint_bytes()),
                   report::fmt_count(seq.total_cycles),
                   report::fmt_count(casc_result.total_cycles),
                   report::fmt_double(static_cast<double>(seq.total_cycles) /
                                      static_cast<double>(casc_result.total_cycles)),
                   report::fmt_count(casc_result.l2_exec.misses),
                   report::fmt_count(seq.l2.misses),
                   report::fmt_percent(casc_result.helper_coverage())});
  }
  table.print(std::cout);
  if (loops.size() > 1) {
    std::cout << "overall speedup: "
              << report::fmt_double(static_cast<double>(seq_total) /
                                    static_cast<double>(casc_total))
              << "\n";
  }
  return 0;
}

void print_counters(const telemetry::PerfCounters& counters) {
  if (!counters.available()) {
    std::cout << "\nhardware counters unavailable: "
              << counters.unavailable_reason() << "\n";
    return;
  }
  const telemetry::CounterSample sample = counters.read();
  report::Table table({"Counter", "Value", "Scaling"});
  table.set_title("Hardware counters (this process, whole run)");
  for (const telemetry::CounterValue& v : sample.values) {
    if (!v.valid) continue;
    table.add_row({telemetry::to_string(v.counter), report::fmt_count(v.value),
                   report::fmt_double(v.scaling)});
  }
  std::cout << "\n";
  table.print(std::cout);
}

int run(const cli::Args& args) {
  const std::string backend = args.get("backend");
  if (backend == "rt") return run_backend_rt(args);
  if (backend != "sim") {
    usage_error("cli-unknown-backend",
                "unknown backend '" + backend + "' (expected sim or rt)");
  }
  const bool want_counters = args.has("counters");
  const std::string trace_path = args.get("trace-json");
  telemetry::TraceWriter trace;
  telemetry::PerfCounters counters;
  if (want_counters) counters.start();
  const int rc = run_modes(args, trace_path.empty() ? nullptr : &trace);
  if (want_counters) {
    counters.stop();
    print_counters(counters);
  }
  if (!trace_path.empty() && rc == 0) {
    if (trace.num_slices() == 0) {
      std::cerr << "warning: this mode records no cascade timeline; " << trace_path
                << " not written (use a plain run or trace replay)\n";
    } else {
      trace.save(trace_path);
      std::cout << "trace json: " << trace_path
                << " (open in chrome://tracing or ui.perfetto.dev)\n";
    }
  }
  return rc;
}

/// On failure, any in-flight cascade runtime state is part of the story:
/// render every live executor's dump (e.g. a run wedged by a user workload).
void print_cascade_dumps() {
  const std::vector<rt::CascadeStateDump> dumps = rt::dump_state();
  for (const rt::CascadeStateDump& dump : dumps) {
    std::cerr << rt::render(dump);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  try {
    const cli::Args args = cli::Args::parse(raw, kSpecs);
    if (args.has("help")) {
      std::cout << cli::Args::help("cascsim", "cascaded-execution pipeline driver",
                                   kSpecs);
      return 0;
    }
    return run(args);
  } catch (const UsageError& e) {
    for (const casc::common::Diagnostic& diag : e.diags().items()) {
      std::cerr << casc::common::render_text(diag) << "\n";
    }
    std::cerr << "run 'cascsim --help' for usage\n";
    return 2;
  } catch (const casc::common::CheckFailure& e) {
    std::cerr << "error: " << e.what() << "\n";
    print_cascade_dumps();
    std::cerr << "\n"
              << casc::cli::Args::help("cascsim", "cascaded-execution pipeline driver",
                                       kSpecs);
    return 2;
  } catch (const casc::rt::WatchdogExpired& e) {
    std::cerr << "error: " << e.what() << "\n" << casc::rt::render(e.dump());
    print_cascade_dumps();
    return 3;
  } catch (const std::exception& e) {
    // Malformed numeric arguments (std::stod etc.) and other library errors
    // must not escape to std::terminate.
    std::cerr << "error: " << e.what() << "\n";
    print_cascade_dumps();
    return 2;
  }
}
