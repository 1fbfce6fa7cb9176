#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "casc/common/simd.hpp"
#include "casc/rt/executor.hpp"
#include "casc/svc/client.hpp"
#include "casc/svc/server.hpp"
#include "inputs.hpp"
#include "spans.hpp"
#include "subject.hpp"

namespace perfbench {

namespace {

using casc::exec::HelperMode;
using Clock = std::chrono::steady_clock;

constexpr unsigned kLoopWorkers = 4;
constexpr unsigned kShards = 2;
constexpr unsigned kThreadsPerShard = 2;
constexpr unsigned kClients = 2;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kJobStream = 1u << 16;
/// Set-ups per run: setup_s is their median; the last one is measured.
constexpr unsigned kSetups = 3;

enum Kind : int { kRef = 0, kRestr = 1, kPref = 2 };
constexpr const char* kKindName[3] = {"reference", "restructure", "prefetch"};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Outcome invoke(Subject& s, int kind) {
  switch (kind) {
    case kRef:
      return s.reference();
    case kRestr:
      return s.cascaded(HelperMode::kRestructure);
    default:
      return s.cascaded(HelperMode::kPrefetch);
  }
}

/// Every checked operation: a digest or checksum mismatch, an error reply or
/// an exception counts as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;

  void check(const Outcome& got, const Outcome& want) {
    ++attempted;
    if (got.digest != want.digest || got.checksum != want.checksum) ++failed;
    if (got.degraded) ++degraded;
  }
  void throw_seen() {
    ++attempted;
    ++failed;
  }
};

/// Untraced wall times of the rotation reference -> restructure -> prefetch.
struct Samples {
  std::vector<double> call_ms[3];
  std::vector<double> rotation_ms;       ///< the three calls together
  std::vector<double> rotation_loop_ms;  ///< their ExecResult::seconds
};

/// Counters of traced cascaded calls.
struct Counters {
  std::uint64_t restructure_calls = 0;
  std::uint64_t chunks = 0;
  std::uint64_t staged_chunks = 0;
  std::uint64_t transfers = 0;
  std::uint64_t helpers_completed = 0;
  std::uint64_t helpers_jumped_out = 0;
  std::uint64_t stages_reused_min = std::numeric_limits<std::uint64_t>::max();
  /// Per traced restructure call: (reset + gate + loop + checksum) over the
  /// run_cascaded call they were measured beside.
  std::vector<double> accounted;
  /// Per traced restructure call: its run_cascaded span over the untraced
  /// restructure call made just before it.
  std::vector<double> overhead;
};

void rotate(Subject& s, const Outcome& want, Samples& out, Tally& tally) {
  double rotation = 0.0;
  double loop = 0.0;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    try {
      const Outcome o = invoke(s, k);
      const double ms = ms_since(t0);
      tally.check(o, want);
      out.call_ms[k].push_back(ms);
      rotation += ms;
      loop += o.loop_s * 1e3;
    } catch (const std::exception&) {
      tally.throw_seen();
      rotation += ms_since(t0);
    }
  }
  out.rotation_ms.push_back(rotation);
  out.rotation_loop_ms.push_back(loop);
}

/// The same rotation, with every call split into the public parts the
/// library's runner performs: reset, gate (restructure only), the run itself
/// with its ExecResult::seconds as a child span, and the rw checksums.
void rotate_traced(SpanRecorder& rec, Subject& s, const Outcome& want,
                   std::uint32_t tag, Counters& c, Tally& tally) {
  for (int k = 0; k < 3; ++k) {
    const std::uint64_t call = rec.next_call();
    try {
      rec.scope(std::string("call.") + kKindName[k], call, [&] {
        // A span without children is the last one recorded, so
        // spans().back() is the call just timed.
        rec.scope("exec.reset", call, [&] { s.reset(); }, tag);
        double parts_ms = rec.spans().back().dur_ms();
        if (k == kRestr) {
          rec.scope("analysis.gate_for", call, [&] { s.gate(); }, tag);
          parts_ms += rec.spans().back().dur_ms();
        }
        const std::string run_name = k == kRef ? std::string("exec.run_reference")
                                               : std::string("exec.run_cascaded.") +
                                                     kKindName[k];
        const Outcome o = rec.scope(run_name, call, [&] { return invoke(s, k); }, tag);
        const Span run = rec.spans().back();
        rec.add(std::string("exec.loop.") + kKindName[k], run.id, call,
                run.end_us - o.loop_s * 1e6, run.end_us, tag);
        rec.scope("exec.rw_checksum", call, [&] { (void)s.checksum(); }, tag);
        parts_ms += o.loop_s * 1e3 + rec.spans().back().dur_ms();
        tally.check(o, want);
        if (k == kRef) return;
        c.helpers_completed += o.helpers_completed;
        c.helpers_jumped_out += o.helpers_jumped_out;
        if (k == kRestr) {
          c.accounted.push_back(ratio(parts_ms, run.dur_ms()));
          ++c.restructure_calls;
          c.chunks += o.chunks;
          c.staged_chunks += o.staged_chunks;
          c.transfers += o.transfers;
          c.stages_reused_min = std::min(c.stages_reused_min, o.stages_reused);
        }
      }, tag);
    } catch (const std::exception&) {
      tally.throw_seen();
    }
  }
}

/// rt hand-off cost: CascadeExecutor::run over the subject's own chunk
/// geometry with an empty body and no helper, per token transfer.
double handoff_us(SpanRecorder& rec, casc::rt::CascadeExecutor& executor,
                  const std::vector<Geometry>& geometry, std::uint32_t tag) {
  const auto body = [](std::uint64_t, std::uint64_t) {};
  const std::uint64_t call = rec.next_call();
  double us = 0.0;
  std::uint64_t transfers = 0;
  for (const Geometry& g : geometry) {
    rec.scope("rt.run_empty", call, [&] { executor.run(g.first, g.second, body); }, tag);
    us += rec.spans().back().dur_us();
    transfers += executor.last_run_stats().transfers;
  }
  return ratio(us, static_cast<double>(transfers));
}

/// SIMD gather throughput over the loop's own staged stream, walked the way
/// the restructuring helper walks it (runs of same-array 8-byte entries).
/// Counts computed bytes: 8 per gathered value.
double gather_gbps(SpanRecorder& rec, const casc::exec::MaterializedLoop& loop,
                   std::uint32_t tag, int reps) {
  const std::uint64_t n = loop.staged_refs_total();
  const std::uint64_t* offs = loop.staged_offsets();
  const std::uint32_t* arrs = loop.staged_arrays();
  const std::uint8_t* sizes = loop.staged_sizes();
  std::vector<std::uint64_t> out(n);
  std::vector<double> gbps;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t bytes = 0;
    rec.scope("simd.gather_offsets_u64", rec.next_call(), [&] {
      std::uint64_t p = 0;
      while (p < n) {
        if (sizes[p] != 8) {
          ++p;
          continue;
        }
        std::uint64_t q = p + 1;
        while (q < n && arrs[q] == arrs[p] && sizes[q] == 8) ++q;
        casc::common::simd::gather_offsets_u64(loop.array_data(arrs[p]), offs + p,
                                               q - p, out.data() + p);
        bytes += 8 * (q - p);
        p = q;
      }
    }, tag);
    gbps.push_back(ratio(static_cast<double>(bytes),
                         rec.spans().back().dur_us() * 1e3));
  }
  return median(gbps);
}

/// Per-layer inputs of one spec (loop workloads have exactly one).
struct Group {
  std::uint32_t tag = 0;
  double weight = 1.0;
  Subject* subject = nullptr;
  BuildTimes build;
  Samples untraced;  ///< untraced rotations made inside the traced run
  Counters counters;
  std::vector<double> handoff_us;
};

/// Traced rotations, analysis calls and rt probes for one group.
void trace_group(SpanRecorder& rec, Group& g, const Outcome& want, int rounds,
                 Tally& tally) {
  for (int r = 0; r < rounds; ++r) {
    rotate(*g.subject, want, g.untraced, tally);
    const std::size_t traced_before = rec.spans().size();
    rotate_traced(rec, *g.subject, want, g.tag, g.counters, tally);
    for (std::size_t i = traced_before; i < rec.spans().size(); ++i) {
      const Span& span = rec.spans()[i];
      if (span.name == "exec.run_cascaded.restructure" &&
          !g.untraced.call_ms[kRestr].empty()) {
        g.counters.overhead.push_back(
            ratio(span.dur_ms(), g.untraced.call_ms[kRestr].back()));
      }
    }
  }
}

void probe_group(SpanRecorder& rec, Group& g, casc::rt::CascadeExecutor& executor,
                 int analysis_reps, int handoff_reps) {
  for (int r = 0; r < analysis_reps; ++r) {
    const std::uint64_t call = rec.next_call();
    rec.scope("analysis.analyze", call, [&] { g.subject->analyze(); }, g.tag);
    rec.scope("analysis.certify", call, [&] { g.subject->certify(); }, g.tag);
  }
  const std::vector<Geometry> geometry = g.subject->geometry();
  for (int r = 0; r < handoff_reps; ++r) {
    g.handoff_us.push_back(handoff_us(rec, executor, geometry, g.tag));
  }
}

/// Synthetic spans for the build calls timed inside the subject's
/// construction, so they show in the trace file too.
void record_build(SpanRecorder& rec, const Group& g) {
  const std::uint64_t call = rec.next_call();
  double t = rec.now_us();
  const std::pair<const char*, double> parts[] = {
      {"loopir.parse", g.build.parse_ms},
      {"analysis.plan_pipeline", g.build.plan_ms},
      {"exec.materialize", g.build.materialize_ms}};
  for (const auto& [name, ms] : parts) {
    rec.add(name, 0, call, t, t + ms * 1e3, g.tag);
    t += ms * 1e3;
  }
}

/// Metrics by name; emitted in the declared order.
using MetricMap = std::map<std::string, double>;

double weighted(const std::vector<Group>& groups,
                const std::function<double(const Group&)>& fn) {
  double sum = 0.0;
  double wsum = 0.0;
  for (const Group& g : groups) {
    sum += g.weight * fn(g);
    wsum += g.weight;
  }
  return ratio(sum, wsum);
}

/// The per-layer metrics every workload derives the same way from its groups.
void common_layer_metrics(const SpanRecorder& rec, const std::vector<Group>& groups,
                          MetricMap& m) {
  const auto span_ms = [&](const char* name) {
    return weighted(groups, [&](const Group& g) {
      return median(rec.durations_ms(name, g.tag));
    });
  };
  m["loopir.parse_ms"] = weighted(groups, [](const Group& g) { return g.build.parse_ms; });
  m["exec.materialize_ms"] =
      weighted(groups, [](const Group& g) { return g.build.materialize_ms; });
  m["analysis.plan_ms"] = weighted(groups, [](const Group& g) { return g.build.plan_ms; });
  m["exec.reset_ms"] = span_ms("exec.reset");
  m["exec.checksum_ms"] = span_ms("exec.rw_checksum");
  m["exec.seq_loop_ms"] = span_ms("exec.loop.reference");
  m["exec.restructure_loop_ms"] = span_ms("exec.loop.restructure");
  m["exec.prefetch_loop_ms"] = span_ms("exec.loop.prefetch");
  m["analysis.gate_ms"] = span_ms("analysis.gate_for");
  m["analysis.analyze_ms"] = span_ms("analysis.analyze");
  m["analysis.certify_ms"] = span_ms("analysis.certify");

  Counters total;
  for (const Group& g : groups) {
    total.restructure_calls += g.counters.restructure_calls;
    total.chunks += g.counters.chunks;
    total.staged_chunks += g.counters.staged_chunks;
    total.helpers_completed += g.counters.helpers_completed;
    total.helpers_jumped_out += g.counters.helpers_jumped_out;
    total.stages_reused_min =
        std::min(total.stages_reused_min, g.counters.stages_reused_min);
  }
  m["exec.staged_chunk_ratio"] = ratio(static_cast<double>(total.staged_chunks),
                                       static_cast<double>(total.chunks));
  const std::uint64_t reused =
      total.restructure_calls == 0 ? 0 : total.stages_reused_min;
  std::uint64_t planned = 0;
  for (const Group& g : groups) planned += g.subject->planned_reuse();
  m["exec.stages_reused"] = static_cast<double>(reused);
  m["exec.reuse_shortfall"] = static_cast<double>(planned - std::min(planned, reused));
  m["rt.handoff_us"] = weighted(groups, [](const Group& g) { return median(g.handoff_us); });
  m["rt.transfers"] = weighted(groups, [](const Group& g) {
    return ratio(static_cast<double>(g.counters.transfers),
                 static_cast<double>(g.counters.restructure_calls));
  });
  m["rt.jumped_out_ratio"] =
      ratio(static_cast<double>(total.helpers_jumped_out),
            static_cast<double>(total.helpers_completed + total.helpers_jumped_out));

  m["trace.overhead_ratio"] =
      weighted(groups, [](const Group& g) { return median(g.counters.overhead); });
  m["trace.accounted_ratio"] =
      weighted(groups, [](const Group& g) { return median(g.counters.accounted); });
}

void add_note(RunResult& res, const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  res.notes.emplace_back(buf);
}

/// Median self time per span name (span minus the part its children cover).
void self_time_notes(const SpanRecorder& rec, RunResult& res) {
  const std::vector<double> self = rec.self_us();
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < self.size(); ++i) {
    by_name[rec.spans()[i].name].push_back(self[i] * 1e-3);
  }
  res.notes.emplace_back("span self time (median ms, count):");
  for (const auto& [name, v] : by_name) {
    add_note(res, "  %-34s %12.4f  n=%zu", name.c_str(), median(v), v.size());
  }
}

std::string trace_path(const RunConfig& cfg) {
  return cfg.work_dir + "/perfbench-trace-" + cfg.workload + "-" +
         std::to_string(cfg.seed) + ".json";
}

void emit(RunResult& res, const MetricMap& m, bool trace) {
  for (const MetricDecl& d : trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = m.find(d.name);
    if (it == m.end()) throw std::logic_error(std::string("metric not measured: ") + d.name);
    res.metrics.push_back({d.name, it->second, d.unit});
  }
}

// ---- gather-loop / parmvr-chain ---------------------------------------------

RunResult run_loop_workload(const RunConfig& cfg,
                            std::string (*generate)(std::uint64_t)) {
  RunResult res;
  Tally tally;
  std::unique_ptr<Subject> subject;
  std::unique_ptr<casc::rt::CascadeExecutor> executor;
  Outcome want;
  std::vector<double> setup_s;
  for (unsigned i = 0; i < kSetups; ++i) {
    subject.reset();
    executor.reset();
    const auto t0 = Clock::now();
    const std::string text = generate(cfg.seed);
    casc::rt::ExecutorConfig ec;
    ec.num_threads = kLoopWorkers;
    // One worker per core: a spinning token ring whose workers the scheduler
    // stacks on one core stalls, which made unpinned call times bimodal.
    ec.pin_threads = true;
    executor = std::make_unique<casc::rt::CascadeExecutor>(ec);
    subject = make_subject(text, *executor);
    want = subject->reference();
    for (const int k : {kRestr, kPref}) tally.check(invoke(*subject, k), want);
    setup_s.push_back(ms_since(t0) * 1e-3);
  }
  add_note(res, "footprint %.2f MiB", subject->footprint_bytes() / 1048576.0);

  SpanRecorder rec;
  Group g;
  g.subject = subject.get();
  g.build = subject->build_times();
  Samples samples;
  const auto w0 = Clock::now();
  do {
    if (cfg.trace) {
      trace_group(rec, g, want, 1, tally);
    } else {
      rotate(*subject, want, samples, tally);
    }
  } while (ms_since(w0) < cfg.seconds * 1e3);
  const double window_s = ms_since(w0) * 1e-3;

  MetricMap m;
  if (!cfg.trace) {
    const double seq = median(samples.call_ms[kRef]);
    const double restructure = median(samples.call_ms[kRestr]);
    const double prefetch = median(samples.call_ms[kPref]);
    const double rate = static_cast<double>(samples.rotation_ms.size()) / window_s;
    const TailPercentile tail = tail_percentile(samples.rotation_ms);
    m["setup_s"] = median(setup_s);
    m["seq_ms_p50"] = seq;
    m["restructure_ms_p50"] = restructure;
    m["prefetch_ms_p50"] = prefetch;
    m["speedup_restructure"] = ratio(seq, restructure);
    m["speedup_prefetch"] = ratio(seq, prefetch);
    m["jobs_per_s"] = rate;
    m["job_ms_p50"] = median(samples.rotation_ms);
    m["job_ms_p99"] = tail.value;
    // One rotation is three loop calls; run through run_reference on one
    // thread it would take three reference calls.
    m["speedup_vs_seq"] = rate * 3.0 * seq * 1e-3;
    add_note(res, "samples: %zu setups, %zu calls per kind, %zu rotations (jobs)",
             setup_s.size(), samples.call_ms[kRef].size(), samples.rotation_ms.size());
    add_note(res, "job_ms_p99 is p%.0f of %zu rotations (%zu beyond%s)",
             tail.percentile, samples.rotation_ms.size(), tail.beyond,
             tail.supported ? "" : "; fewer than 10, reported as the median");
  } else {
    probe_group(rec, g, *executor, 2, 10);
    record_build(rec, g);
    const std::vector<Group> groups{g};
    common_layer_metrics(rec, groups, m);
    const double untraced_restructure = median(g.untraced.call_ms[kRestr]);
    m["exec.pool_hit_ratio"] = 1.0;  // one materialization serves every call
    m["rt.degraded_calls"] = static_cast<double>(tally.degraded);
    m["simd.gather_gbps"] = gather_gbps(rec, subject->gather_loop(), 0, 5);
    m["svc.loop_ms_p50"] = median(g.untraced.rotation_loop_ms);
    std::vector<double> overhead;
    for (std::size_t i = 0; i < g.untraced.rotation_ms.size(); ++i) {
      overhead.push_back(g.untraced.rotation_ms[i] - g.untraced.rotation_loop_ms[i]);
    }
    m["svc.overhead_ms_p50"] = median(overhead);
    m["svc.shard_balance"] = 1.0;    // one executor
    m["svc.batch_size_mean"] = 1.0;  // one call per dispatch
    m["trace.gate_share"] = ratio(m["analysis.gate_ms"], untraced_restructure);
    add_note(res, "traced rotations %zu, untraced restructure median %.4f ms",
             g.untraced.rotation_ms.size(), untraced_restructure);
    self_time_notes(rec, res);
    rec.save_perfetto(trace_path(cfg));
    add_note(res, "trace written to %s", trace_path(cfg).c_str());
  }
  emit(res, m, cfg.trace);
  res.attempted = tally.attempted;
  res.failed = tally.failed;
  return res;
}

// ---- svc-mix ------------------------------------------------------------------

struct JobRecord {
  std::uint32_t spec = 0;
  bool restructure = true;
  bool done = false;
  bool ok = false;
  bool reused = false;
  bool degraded = false;
  double send_ms = 0.0;  ///< since the window opened
  double recv_ms = 0.0;
  double loop_ms = 0.0;  ///< reply.seconds
};

struct ClientState {
  casc::svc::SvcClient client;
  std::string tenant;
  std::uint64_t next_job_id = 1;
  std::vector<JobRecord> jobs;
};

/// Closed loop with a window of kWindow outstanding jobs: jobs first, first +
/// stride, ... of the seeded stream until `stop_ms` or `max_jobs`, then
/// drains.  Returns false when the connection broke (every job still pending
/// counts as failed).
bool client_loop(ClientState& cs, const std::vector<std::string>& texts,
                 const std::vector<JobPick>& order, std::size_t first,
                 std::size_t stride, const std::vector<Outcome>& want,
                 Clock::time_point origin, double stop_ms, std::size_t max_jobs) {
  std::unordered_map<std::uint64_t, std::size_t> pending;
  std::size_t next = first;
  std::size_t sent = 0;
  const auto send_one = [&] {
    const JobPick pick = order[next % order.size()];
    next += stride;
    ++sent;
    casc::svc::SubmitRequest req;
    req.tenant = cs.tenant;
    req.job = cs.next_job_id++;
    req.helper = pick.restructure ? casc::svc::HelperMode::kRestructure
                                  : casc::svc::HelperMode::kPrefetch;
    req.spec_text = texts[pick.spec];
    JobRecord rec;
    rec.spec = pick.spec;
    rec.restructure = pick.restructure;
    rec.send_ms = ms_since(origin);
    cs.jobs.push_back(rec);
    if (!cs.client.send_submit(req)) return false;
    pending[req.job] = cs.jobs.size() - 1;
    return true;
  };
  const auto read_one = [&] {
    const casc::svc::Reply reply = cs.client.read_reply();
    const double now = ms_since(origin);
    std::uint64_t id = 0;
    if (reply.kind == casc::svc::Reply::Kind::kResult) {
      id = reply.result.job;
    } else if (reply.kind == casc::svc::Reply::Kind::kError) {
      id = reply.error.job;
    } else {
      return false;
    }
    const auto it = pending.find(id);
    if (it == pending.end()) return reply.kind == casc::svc::Reply::Kind::kResult;
    JobRecord& rec = cs.jobs[it->second];
    pending.erase(it);
    rec.done = true;
    rec.recv_ms = now;
    if (reply.kind == casc::svc::Reply::Kind::kResult) {
      rec.ok = reply.result.digest == want[rec.spec].digest &&
               reply.result.rw_checksum == want[rec.spec].checksum;
      rec.reused = reply.result.reused;
      rec.degraded = reply.result.degraded;
      rec.loop_ms = reply.result.seconds * 1e3;
    }
    return true;
  };
  while (sent < max_jobs && ms_since(origin) < stop_ms) {
    while (pending.size() < kWindow && sent < max_jobs) {
      if (!send_one()) return false;
    }
    if (!read_one()) return false;
  }
  while (!pending.empty()) {
    if (!read_one()) return false;
  }
  return true;
}

/// Everything one svc-mix set-up builds; torn down before the next one.
struct SvcRig {
  std::vector<std::string> texts;
  std::vector<JobPick> order;
  std::unique_ptr<casc::rt::CascadeExecutor> probe_executor;
  std::vector<std::unique_ptr<Subject>> subjects;
  std::vector<Outcome> want;
  std::unique_ptr<casc::svc::SvcServer> server;
  std::vector<std::unique_ptr<ClientState>> clients;

  ~SvcRig() {
    clients.clear();
    if (server) server->stop();
  }
};

std::unique_ptr<SvcRig> build_svc_rig(const RunConfig& cfg, Tally& tally) {
  auto rig = std::make_unique<SvcRig>();
  rig->texts = svc_mix_texts(cfg.seed);
  rig->order = svc_job_order(cfg.seed, kJobStream);
  casc::rt::ExecutorConfig ec;
  ec.num_threads = kThreadsPerShard;  // one shard's ring geometry
  rig->probe_executor = std::make_unique<casc::rt::CascadeExecutor>(ec);
  for (const std::string& text : rig->texts) {
    rig->subjects.push_back(make_subject(text, *rig->probe_executor));
    rig->want.push_back(rig->subjects.back()->reference());
  }

  casc::svc::SvcConfig sc;
  sc.socket_path = cfg.work_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  sc.num_shards = kShards;
  sc.threads_per_shard = kThreadsPerShard;
  sc.queue_cap = 4096;
  rig->server = std::make_unique<casc::svc::SvcServer>(std::move(sc));
  rig->server->start();
  for (unsigned c = 0; c < kClients; ++c) {
    auto cs = std::make_unique<ClientState>();
    cs->tenant = "client" + std::to_string(c);
    if (!cs->client.connect(rig->server->socket_path())) {
      throw std::runtime_error("svc-mix: connect failed: " + cs->client.last_error());
    }
    rig->clients.push_back(std::move(cs));
  }

  // Warm-up: every spec with both helpers from every client.
  std::vector<JobPick> warm;
  for (std::uint32_t s = 0; s < rig->texts.size(); ++s) {
    warm.push_back({s, true});
    warm.push_back({s, false});
  }
  for (auto& cs : rig->clients) {
    const bool alive = client_loop(*cs, rig->texts, warm, 0, 1, rig->want,
                                   Clock::now(), std::numeric_limits<double>::infinity(),
                                   warm.size());
    if (!alive) throw std::runtime_error("svc-mix: warm-up connection failed");
    for (const JobRecord& j : cs->jobs) {
      ++tally.attempted;
      if (!j.ok) ++tally.failed;
    }
    cs->jobs.clear();
  }
  return rig;
}

/// The seeded job stream through run_reference on one thread for `budget_ms`,
/// from job `first` on; appends the per-job times and returns the wall time.
double reference_pass(SvcRig& rig, std::size_t first, double budget_ms,
                      std::vector<double>& ref_ms, Tally& tally) {
  const auto r0 = Clock::now();
  for (std::size_t j = first; ms_since(r0) < budget_ms; ++j) {
    const JobPick pick = rig.order[j % rig.order.size()];
    const auto t0 = Clock::now();
    const Outcome o = rig.subjects[pick.spec]->reference();
    ref_ms.push_back(ms_since(t0));
    tally.check(o, rig.want[pick.spec]);
  }
  return ms_since(r0);
}

RunResult run_svc_mix(const RunConfig& cfg) {
  RunResult res;
  Tally tally;
  std::unique_ptr<SvcRig> rig;
  std::vector<double> setup_s;
  for (unsigned i = 0; i < kSetups; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = build_svc_rig(cfg, tally);
    setup_s.push_back(ms_since(t0) * 1e-3);
  }

  // The one-thread reference rate is measured in two halves, just before and
  // just after the window, so both see the host in the state the window did.
  constexpr double kReferenceHalfMs = 2000.0;
  std::vector<double> ref_ms;
  double ref_wall_ms = 0.0;
  if (!cfg.trace) ref_wall_ms += reference_pass(*rig, 0, kReferenceHalfMs, ref_ms, tally);

  // Timed window: kClients closed-loop clients, each taking every
  // kClients-th job of the seeded stream.
  const auto origin = Clock::now();
  std::vector<char> alive(kClients, 0);
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        alive[c] = client_loop(*rig->clients[c], rig->texts, rig->order, c, kClients,
                               rig->want, origin, cfg.seconds * 1e3,
                               std::numeric_limits<std::size_t>::max())
                       ? 1
                       : 0;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const auto stats = rig->server->stats();
  rig->server->stop();

  std::vector<JobRecord> jobs;
  for (auto& cs : rig->clients) {
    jobs.insert(jobs.end(), cs->jobs.begin(), cs->jobs.end());
  }
  double last_ms = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t reused = 0;
  std::uint64_t degraded = 0;
  std::vector<double> latency;
  std::vector<double> latency_by_helper[2];
  std::vector<double> loop_ms;
  std::vector<double> loop_by_helper[2];
  std::vector<double> overhead_ms;
  std::vector<std::uint64_t> per_spec(rig->texts.size(), 0);
  std::vector<std::uint64_t> failed_spec(rig->texts.size(), 0);
  for (const JobRecord& j : jobs) {
    ++tally.attempted;
    if (!j.done || !j.ok) {
      ++tally.failed;
      ++failed_spec[j.spec];
      continue;
    }
    ++completed;
    reused += j.reused ? 1 : 0;
    degraded += j.degraded ? 1 : 0;
    ++per_spec[j.spec];
    const double ms = j.recv_ms - j.send_ms;
    last_ms = std::max(last_ms, j.recv_ms);
    latency.push_back(ms);
    latency_by_helper[j.restructure ? 1 : 0].push_back(ms);
    loop_ms.push_back(j.loop_ms);
    loop_by_helper[j.restructure ? 1 : 0].push_back(j.loop_ms);
    overhead_ms.push_back(ms - j.loop_ms);
  }
  for (std::size_t s = 0; s < failed_spec.size(); ++s) {
    if (failed_spec[s] != 0) {
      add_note(res, "spec %zu: %llu failed jobs", s,
               static_cast<unsigned long long>(failed_spec[s]));
    }
  }
  for (unsigned c = 0; c < kClients; ++c) {
    if (alive[c] == 0) add_note(res, "client %u lost its connection", c);
  }
  const double jobs_per_s = ratio(static_cast<double>(completed), last_ms * 1e-3);
  const double restructure = median(latency_by_helper[1]);

  MetricMap m;
  if (!cfg.trace) {
    ref_wall_ms +=
        reference_pass(*rig, ref_ms.size(), kReferenceHalfMs, ref_ms, tally);
    const double ref_rate = static_cast<double>(ref_ms.size()) / (ref_wall_ms * 1e-3);
    const double seq = median(ref_ms);
    const double prefetch = median(latency_by_helper[0]);
    const TailPercentile tail = tail_percentile(latency);
    m["setup_s"] = median(setup_s);
    m["seq_ms_p50"] = seq;
    m["restructure_ms_p50"] = restructure;
    m["prefetch_ms_p50"] = prefetch;
    m["speedup_restructure"] = ratio(seq, restructure);
    m["speedup_prefetch"] = ratio(seq, prefetch);
    m["jobs_per_s"] = jobs_per_s;
    m["job_ms_p50"] = median(latency);
    m["job_ms_p99"] = tail.value;
    m["speedup_vs_seq"] = ratio(jobs_per_s, ref_rate);
    add_note(res, "samples: %zu setups, %llu jobs (%zu restructure, %zu prefetch), "
             "%zu reference jobs", setup_s.size(),
             static_cast<unsigned long long>(completed), latency_by_helper[1].size(),
             latency_by_helper[0].size(), ref_ms.size());
    add_note(res, "job_ms_p99 is p%.0f of %zu jobs (%zu beyond%s)", tail.percentile,
             latency.size(), tail.beyond,
             tail.supported ? "" : "; fewer than 10, reported as the median");
  } else {
    SpanRecorder rec;
    // Job spans (send to reply) with the reply's loop time as a child.
    for (const JobRecord& j : jobs) {
      if (!j.done) continue;
      const std::uint64_t call = rec.next_call();
      const std::uint64_t id = rec.add("svc.job", 0, call, j.send_ms * 1e3,
                                       j.recv_ms * 1e3, j.spec);
      rec.add("svc.loop", id, call, j.recv_ms * 1e3 - j.loop_ms * 1e3,
              j.recv_ms * 1e3, j.spec);
    }
    // Client-side probes of the mix's specs on one shard's ring geometry.
    std::vector<Group> groups;
    for (std::uint32_t s = 0; s < rig->subjects.size(); ++s) {
      Group g;
      g.tag = s;
      g.weight = ratio(static_cast<double>(per_spec[s]), static_cast<double>(completed));
      g.subject = rig->subjects[s].get();
      g.build = g.subject->build_times();
      groups.push_back(std::move(g));
    }
    for (Group& g : groups) {
      trace_group(rec, g, rig->want[g.tag], 5, tally);
      probe_group(rec, g, *rig->probe_executor, 3, 10);
      record_build(rec, g);
    }
    common_layer_metrics(rec, groups, m);
    // Loop times as the service reports them, per helper.
    m["exec.restructure_loop_ms"] = median(loop_by_helper[1]);
    m["exec.prefetch_loop_ms"] = median(loop_by_helper[0]);
    m["exec.pool_hit_ratio"] = ratio(static_cast<double>(reused),
                                     static_cast<double>(completed));
    m["rt.degraded_calls"] = static_cast<double>(tally.degraded + degraded);
    std::uint32_t widest = 0;
    for (std::uint32_t s = 1; s < rig->subjects.size(); ++s) {
      if (rig->subjects[s]->gather_loop().staged_refs_total() >
          rig->subjects[widest]->gather_loop().staged_refs_total()) {
        widest = s;
      }
    }
    m["simd.gather_gbps"] =
        gather_gbps(rec, rig->subjects[widest]->gather_loop(), widest, 20);
    m["svc.loop_ms_p50"] = median(loop_ms);
    m["svc.overhead_ms_p50"] = median(overhead_ms);
    std::map<std::string, std::uint64_t> counters(stats.begin(), stats.end());
    std::uint64_t min_jobs = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_jobs = 0;
    std::uint64_t shard_jobs = 0;
    std::uint64_t shard_batches = 0;
    for (unsigned s = 0; s < kShards; ++s) {
      const std::string prefix = "shard." + std::to_string(s) + ".";
      const std::uint64_t n = counters[prefix + "jobs"];
      min_jobs = std::min(min_jobs, n);
      max_jobs = std::max(max_jobs, n);
      shard_jobs += n;
      shard_batches += counters[prefix + "batches"];
    }
    m["svc.shard_balance"] = ratio(static_cast<double>(min_jobs), static_cast<double>(max_jobs));
    m["svc.batch_size_mean"] = ratio(static_cast<double>(shard_jobs),
                                     static_cast<double>(shard_batches));
    m["trace.gate_share"] = ratio(m["analysis.gate_ms"], restructure);
    add_note(res, "jobs %llu, restructure job median %.4f ms",
             static_cast<unsigned long long>(completed), restructure);
    self_time_notes(rec, res);
    rec.save_perfetto(trace_path(cfg));
    add_note(res, "trace written to %s", trace_path(cfg).c_str());
  }
  emit(res, m, cfg.trace);
  res.attempted = tally.attempted;
  res.failed = tally.failed;
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"gather-loop", "parmvr-chain", "svc-mix"};
  return names;
}

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> decls = {
      {"setup_s", "s", "lower"},
      {"seq_ms_p50", "ms", "lower"},
      {"restructure_ms_p50", "ms", "lower"},
      {"prefetch_ms_p50", "ms", "lower"},
      {"speedup_restructure", "x", "higher"},
      {"speedup_prefetch", "x", "higher"},
      {"jobs_per_s", "1/s", "higher"},
      {"job_ms_p50", "ms", "lower"},
      {"job_ms_p99", "ms", "lower"},
      {"speedup_vs_seq", "x", "higher"},
  };
  return decls;
}

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> decls = {
      {"loopir.parse_ms", "ms", "lower"},
      {"exec.materialize_ms", "ms", "lower"},
      {"exec.pool_hit_ratio", "ratio", "higher"},
      {"exec.reset_ms", "ms", "lower"},
      {"exec.checksum_ms", "ms", "lower"},
      {"exec.seq_loop_ms", "ms", "lower"},
      {"exec.restructure_loop_ms", "ms", "lower"},
      {"exec.prefetch_loop_ms", "ms", "lower"},
      {"exec.staged_chunk_ratio", "ratio", "higher"},
      {"exec.stages_reused", "count", "higher"},
      {"exec.reuse_shortfall", "count", "lower"},
      {"analysis.gate_ms", "ms", "lower"},
      {"analysis.analyze_ms", "ms", "lower"},
      {"analysis.certify_ms", "ms", "lower"},
      {"analysis.plan_ms", "ms", "lower"},
      {"rt.handoff_us", "us", "lower"},
      {"rt.transfers", "count", "lower"},
      {"rt.jumped_out_ratio", "ratio", "lower"},
      {"rt.degraded_calls", "count", "lower"},
      {"simd.gather_gbps", "GB/s", "higher"},
      {"svc.loop_ms_p50", "ms", "lower"},
      {"svc.overhead_ms_p50", "ms", "lower"},
      {"svc.shard_balance", "ratio", "higher"},
      {"svc.batch_size_mean", "count", "higher"},
      {"trace.overhead_ratio", "ratio", "lower"},
      {"trace.accounted_ratio", "ratio", "higher"},
      {"trace.gate_share", "ratio", "lower"},
  };
  return decls;
}

RunResult run_workload(const RunConfig& cfg) {
  if (cfg.workload == "gather-loop") return run_loop_workload(cfg, &gather_loop_text);
  if (cfg.workload == "parmvr-chain") return run_loop_workload(cfg, &parmvr_chain_text);
  if (cfg.workload == "svc-mix") return run_svc_mix(cfg);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace perfbench
