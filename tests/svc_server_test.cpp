// casc::svc end-to-end contract over a live SvcServer on a Unix socket:
//
//   * results are bit-identical to local sequential interpretation,
//   * every malformed or rejected input draws a structured svc-* error
//     reply — oversized frames, unknown type bytes, bad headers, invalid
//     specs, duplicate ids, over-cap trips — and NEVER a server abort
//     (the server keeps serving new connections afterwards),
//   * mid-frame disconnects and backpressure (bounded admission queue)
//     degrade gracefully,
//   * failing shards quarantine and the survivors absorb the work; the last
//     live shard never quarantines,
//   * a drain finishes queued jobs, acks, and stops the server.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "casc/common/diagnostic.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/svc/client.hpp"
#include "casc/svc/server.hpp"

namespace {

using namespace casc;

constexpr const char* kSpecA = R"(loop svc_a
trip 2048
compute 4 3
layout staggered
array y 8 2048 rw
array a 8 2048 ro
access a read
access y write
)";

constexpr const char* kSpecB = R"(loop svc_b
trip 1024
compute 3 2
array y 8 1024 rw
access y write
)";

std::string test_socket(const std::string& tag) {
  return "/tmp/casc-svc-test-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

std::pair<std::uint64_t, std::uint64_t> reference_for(const char* text) {
  exec::MaterializedLoop loop(loopir::LoopSpec::parse(text));
  const exec::ExecResult ref = exec::run_reference(loop);
  return {ref.digest, ref.rw_checksum};
}

svc::SubmitRequest submit_for(const std::string& tenant, std::uint64_t job,
                              const char* spec) {
  svc::SubmitRequest req;
  req.tenant = tenant;
  req.job = job;
  req.spec_text = spec;
  return req;
}

TEST(SvcServer, ResultsAreDigestIdenticalAndPooled) {
  const auto ref_a = reference_for(kSpecA);
  const auto ref_b = reference_for(kSpecB);

  svc::SvcConfig cfg;
  cfg.socket_path = test_socket("e2e");
  cfg.num_shards = 2;
  cfg.threads_per_shard = 2;
  svc::SvcServer server(std::move(cfg));
  server.start();

  svc::SvcClient client;
  ASSERT_TRUE(client.connect(server.socket_path())) << client.last_error();
  const std::uint64_t kJobs = 24;
  for (std::uint64_t i = 1; i <= kJobs; ++i) {
    ASSERT_TRUE(
        client.send_submit(submit_for("alice", i, i % 2 ? kSpecA : kSpecB)));
  }
  std::uint64_t reused = 0;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kResult) << client.last_error();
    const auto& want = reply.result.job % 2 ? ref_a : ref_b;
    EXPECT_EQ(reply.result.digest, want.first) << "job " << reply.result.job;
    EXPECT_EQ(reply.result.rw_checksum, want.second);
    EXPECT_EQ(reply.result.tenant, "alice");
    EXPECT_LT(reply.result.shard, 2u);
    if (reply.result.reused) ++reused;
  }
  // 24 jobs over 2 specs across 2 shard pools: at most one materialization
  // per (spec, shard) — everything else must come from the reuse pool.
  EXPECT_GE(reused, kJobs - 4);

  // Chaos-armed jobs degrade but still produce the sequential bits.
  svc::SubmitRequest chaos_req = submit_for("alice", 1000, kSpecA);
  chaos_req.chaos_seed = 7;
  ASSERT_TRUE(client.send_submit(chaos_req));
  const svc::Reply chaos_reply = client.read_reply();
  ASSERT_EQ(chaos_reply.kind, svc::Reply::Kind::kResult);
  EXPECT_EQ(chaos_reply.result.digest, ref_a.first);
  EXPECT_EQ(chaos_reply.result.rw_checksum, ref_a.second);

  server.stop();
}

TEST(SvcServer, StatCountersAndDrainAck) {
  svc::SvcConfig cfg;
  cfg.socket_path = test_socket("drain");
  svc::SvcServer server(std::move(cfg));
  server.start();

  svc::SvcClient client;
  ASSERT_TRUE(client.connect(server.socket_path()));
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(client.send_submit(submit_for("bob", i, kSpecB)));
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(client.read_reply().kind, svc::Reply::Kind::kResult);
  }

  ASSERT_TRUE(client.send_stat());
  const svc::Reply stat = client.read_reply();
  ASSERT_EQ(stat.kind, svc::Reply::Kind::kStatReply);
  std::uint64_t completed = 0, shards = 0;
  for (const auto& [key, value] : stat.counters) {
    if (key == "tenant.bob.completed") completed = value;
    if (key == "svc.shards") shards = value;
  }
  EXPECT_EQ(completed, 5u);
  EXPECT_EQ(shards, 1u);

  ASSERT_TRUE(client.send_drain());
  const svc::Reply ack = client.read_reply();
  ASSERT_EQ(ack.kind, svc::Reply::Kind::kDrainAck);
  EXPECT_EQ(ack.drain_completed, 5u);
  server.wait();  // drain stops the server

  // Draining unlinked the socket: a fresh connect must fail cleanly.
  svc::SvcClient late;
  EXPECT_FALSE(late.connect(cfg.socket_path));
}

TEST(SvcServer, MalformedInputsDrawErrorsNeverAborts) {
  svc::SvcConfig cfg;
  cfg.socket_path = test_socket("malformed");
  cfg.max_job_trip = 1 << 12;
  svc::SvcServer server(std::move(cfg));
  server.start();

  // Bad header: missing tenant.
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_EQ(svc::write_frame(client.fd(), svc::FrameType::kSubmit,
                               "job 1\n\n" + std::string(kSpecB)),
              svc::IoStatus::kOk);
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-missing-tenant");
  }
  // Unparsable spec text.
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_TRUE(client.send_submit(
        submit_for("mallory", 1, "loop broken\ntrip nonsense\n")));
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-spec-invalid");
    EXPECT_EQ(reply.error.job, 1u);
  }
  // Semantically invalid spec (write to a read-only array).
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_TRUE(client.send_submit(submit_for(
        "mallory", 2,
        "loop bad\ntrip 64\ncompute 1 1\narray a 8 64 ro\naccess a write\n")));
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-spec-invalid");
  }
  // Trip count over the admission cap.
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_TRUE(client.send_submit(submit_for(
        "mallory", 3,
        "loop big\ntrip 1048576\ncompute 1 1\narray y 8 64 rw\naccess y write\n")));
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-job-too-large");
  }
  // Duplicate job id within a tenant.
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_TRUE(client.send_submit(submit_for("carol", 9, kSpecB)));
    ASSERT_EQ(client.read_reply().kind, svc::Reply::Kind::kResult);
    ASSERT_TRUE(client.send_submit(submit_for("carol", 9, kSpecB)));
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-duplicate-job");
  }
  // Oversized frame declaration: error reply, then the connection closes.
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    const std::uint32_t len = svc::kMaxFramePayload + 1;
    const unsigned char header[5] = {
        static_cast<unsigned char>(len & 0xff),
        static_cast<unsigned char>((len >> 8) & 0xff),
        static_cast<unsigned char>((len >> 16) & 0xff),
        static_cast<unsigned char>((len >> 24) & 0xff), 1};
    ASSERT_EQ(::send(client.fd(), header, sizeof(header), 0), 5);
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-frame-too-big");
    EXPECT_EQ(client.read_reply().kind, svc::Reply::Kind::kClosed);
  }
  // Unknown frame type byte: svc-bad-frame, then close.
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    const unsigned char header[5] = {0, 0, 0, 0, 42};
    ASSERT_EQ(::send(client.fd(), header, sizeof(header), 0), 5);
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-bad-frame");
  }
  // Mid-frame disconnect: the server just drops the connection.
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    const unsigned char partial[3] = {200, 0, 0};
    ASSERT_EQ(::send(client.fd(), partial, sizeof(partial), 0), 3);
    client.close();
  }
  // After all of that abuse the server still serves real work.
  {
    const auto ref_b = reference_for(kSpecB);
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_TRUE(client.send_submit(submit_for("dave", 1, kSpecB)));
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kResult);
    EXPECT_EQ(reply.result.digest, ref_b.first);
  }
  server.stop();
}

// A valid reduction spec is refused with the precise capability diagnostic
// (svc-spec-unsupported naming the operand, class, and merge operator), not
// a generic invalid-spec error — and the server keeps serving afterwards.
TEST(SvcServer, ReductionSpecDrawsPreciseUnsupportedError) {
  svc::SvcConfig cfg;
  cfg.socket_path = test_socket("reduction");
  svc::SvcServer server(std::move(cfg));
  server.start();

  constexpr const char* kHistogram = R"(loop svc_hist
trip 4096
compute 2 2
array hist 8 256 rw
index bidx 4096 random 7
access hist update sum via bidx
)";
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_TRUE(client.send_submit(submit_for("alice", 1, kHistogram)));
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-spec-unsupported");
    EXPECT_EQ(reply.error.job, 1u);
    EXPECT_NE(reply.error.message.find("'hist'"), std::string::npos);
    EXPECT_NE(reply.error.message.find("'sum'"), std::string::npos);
    EXPECT_NE(reply.error.message.find("privatization"), std::string::npos);
  }
  // Plain specs still run after the refusal.
  {
    const auto ref_b = reference_for(kSpecB);
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_TRUE(client.send_submit(submit_for("alice", 2, kSpecB)));
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kResult);
    EXPECT_EQ(reply.result.digest, ref_b.first);
  }
  server.stop();
}

// A pipeline spec is refused with the precise capability diagnostic naming
// the pipeline feature — detected BEFORE single-loop parsing, so the client
// never sees a bogus "unknown directive" syntax error — and the server keeps
// serving afterwards.
TEST(SvcServer, PipelineSpecDrawsPreciseUnsupportedError) {
  svc::SvcConfig cfg;
  cfg.socket_path = test_socket("pipeline");
  svc::SvcServer server(std::move(cfg));
  server.start();

  constexpr const char* kChain = R"(pipeline svc_chain
array y 8 512 rw
array a 8 512 ro
loop fill
trip 512
compute 2 1
access a read
access y write
endloop
loop sum
trip 512
compute 2 1
access y read
access y write stride 1 offset 0
endloop
)";
  {
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_TRUE(client.send_submit(submit_for("alice", 1, kChain)));
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-spec-unsupported");
    EXPECT_EQ(reply.error.job, 1u);
    EXPECT_NE(reply.error.message.find("pipeline"), std::string::npos);
    EXPECT_NE(reply.error.message.find("chain scheduling"), std::string::npos);
    EXPECT_NE(reply.error.message.find("independent loop jobs"),
              std::string::npos);
  }
  // Plain specs still run after the refusal.
  {
    const auto ref_b = reference_for(kSpecB);
    svc::SvcClient client;
    ASSERT_TRUE(client.connect(server.socket_path()));
    ASSERT_TRUE(client.send_submit(submit_for("alice", 2, kSpecB)));
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kResult);
    EXPECT_EQ(reply.result.digest, ref_b.first);
  }
  server.stop();
}

TEST(SvcServer, BackpressureRepliesWhenQueueIsFull) {
  // A gate in before_execute wedges the only shard so the bounded queue
  // fills deterministically.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> held{0};

  svc::SvcConfig cfg;
  cfg.socket_path = test_socket("backpressure");
  cfg.num_shards = 1;
  cfg.threads_per_shard = 2;
  cfg.queue_cap = 2;
  cfg.batch_max = 1;
  cfg.before_execute = [&](unsigned, const svc::JobTicket&) {
    held.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  svc::SvcServer server(std::move(cfg));
  server.start();

  svc::SvcClient client;
  ASSERT_TRUE(client.connect(server.socket_path()));
  // Job 1 is popped into the wedged shard; wait until it is actually held so
  // the queue depth below is deterministic.
  ASSERT_TRUE(client.send_submit(submit_for("flood", 1, kSpecB)));
  while (held.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Jobs 2 and 3 fill the queue; everything beyond draws svc-queue-full.
  for (std::uint64_t i = 2; i <= 6; ++i) {
    ASSERT_TRUE(client.send_submit(submit_for("flood", i, kSpecB)));
  }
  std::uint64_t rejected = 0;
  for (int i = 0; i < 3; ++i) {
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
    EXPECT_EQ(reply.error.rule, "svc-queue-full");
    ++rejected;
  }
  EXPECT_EQ(rejected, 3u);

  // Open the gate: the held job and the two queued ones all complete.
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  std::uint64_t completed = 0;
  for (int i = 0; i < 3; ++i) {
    const svc::Reply reply = client.read_reply();
    ASSERT_EQ(reply.kind, svc::Reply::Kind::kResult) << client.last_error();
    ++completed;
  }
  EXPECT_EQ(completed, 3u);
  server.stop();
}

TEST(SvcServer, FailingShardQuarantinesAndSurvivorAbsorbs) {
  // Shard 0 throws on every job it touches; with max_shard_faults=1 its
  // first victim quarantines it and shard 1 absorbs the rest.
  svc::SvcConfig cfg;
  cfg.socket_path = test_socket("quarantine");
  cfg.num_shards = 2;
  cfg.threads_per_shard = 1;
  cfg.batch_max = 1;
  cfg.max_shard_faults = 1;
  cfg.before_execute = [](unsigned shard, const svc::JobTicket&) {
    if (shard == 0) throw std::runtime_error("injected shard fault");
  };
  svc::SvcServer server(std::move(cfg));
  server.start();

  svc::SvcClient client;
  ASSERT_TRUE(client.connect(server.socket_path()));
  const std::uint64_t kJobs = 40;
  std::uint64_t completed = 0, failed = 0;
  for (std::uint64_t i = 1; i <= kJobs; ++i) {
    ASSERT_TRUE(client.send_submit(submit_for("q", i, kSpecB)));
    const svc::Reply reply = client.read_reply();
    if (reply.kind == svc::Reply::Kind::kResult) {
      EXPECT_EQ(reply.result.shard, 1u);
      ++completed;
    } else {
      ASSERT_EQ(reply.kind, svc::Reply::Kind::kError);
      EXPECT_EQ(reply.error.rule, "svc-job-failed");
      ++failed;
    }
  }
  EXPECT_EQ(completed + failed, kJobs);
  // Shard 0 can fail at most max_shard_faults jobs before quarantining
  // (plus any already popped into its batch; batch_max=1 bounds that to 0).
  EXPECT_LE(failed, 1u);
  EXPECT_GE(completed, kJobs - 1);

  ASSERT_TRUE(client.send_stat());
  const svc::Reply stat = client.read_reply();
  ASSERT_EQ(stat.kind, svc::Reply::Kind::kStatReply);
  std::uint64_t live = 0, quarantined = 0;
  for (const auto& [key, value] : stat.counters) {
    if (key == "svc.live_shards") live = value;
    if (key == "shard.0.quarantined") quarantined = value;
  }
  if (failed > 0) {
    EXPECT_EQ(quarantined, 1u);
    EXPECT_EQ(live, 1u);
  }
  server.stop();
}

TEST(SvcServer, LastLiveShardNeverQuarantines) {
  // A single-shard server with a hook that fails the first three jobs: the
  // shard's fault count passes the cap but it must keep executing — like
  // worker 0 of a cascade, somebody has to run the loop.
  std::atomic<int> seen{0};
  svc::SvcConfig cfg;
  cfg.socket_path = test_socket("lastshard");
  cfg.num_shards = 1;
  cfg.threads_per_shard = 1;
  cfg.max_shard_faults = 1;
  cfg.before_execute = [&](unsigned, const svc::JobTicket&) {
    if (seen.fetch_add(1) < 3) throw std::runtime_error("transient fault");
  };
  svc::SvcServer server(std::move(cfg));
  server.start();

  svc::SvcClient client;
  ASSERT_TRUE(client.connect(server.socket_path()));
  std::uint64_t completed = 0, failed = 0;
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(client.send_submit(submit_for("solo", i, kSpecB)));
    const svc::Reply reply = client.read_reply();
    if (reply.kind == svc::Reply::Kind::kResult) {
      ++completed;
    } else {
      ++failed;
    }
  }
  EXPECT_EQ(failed, 3u);
  EXPECT_EQ(completed, 3u);

  ASSERT_TRUE(client.send_stat());
  const svc::Reply stat = client.read_reply();
  for (const auto& [key, value] : stat.counters) {
    if (key == "shard.0.quarantined") {
      EXPECT_EQ(value, 0u);
    }
    if (key == "svc.live_shards") {
      EXPECT_EQ(value, 1u);
    }
  }
  server.stop();
}

}  // namespace
