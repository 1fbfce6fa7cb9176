// Tests of the benchmark's own code: metric names, the tail-percentile
// helper, span self time, and seeded input generation.
#include <gtest/gtest.h>

#include <cmath>

#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(MetricNames, EveryDeclaredNameIsValidAndUnique) {
  std::vector<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDecl& d : *list) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(std::string(d.better) == "lower" || std::string(d.better) == "higher");
      EXPECT_EQ(std::count(seen.begin(), seen.end(), d.name), 0) << d.name;
      seen.emplace_back(d.name);
    }
  }
  EXPECT_EQ(end_to_end_metrics().front().name, std::string("setup_s"));
}

TEST(MetricNames, RejectsNamesOutsideTheAlphabet) {
  EXPECT_TRUE(valid_metric_name("exec.reset_ms"));
  EXPECT_TRUE(valid_metric_name("9-lives_x.y"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_under"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/unit"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the helper must sort
}

TEST(TailPercentile, PicksTheHighestPercentileWithTenSamplesBeyond) {
  const TailPercentile p1000 = tail_percentile(ramp(1000));
  EXPECT_EQ(p1000.percentile, 99.0);  // rank 990, 10 beyond
  EXPECT_EQ(p1000.value, 990.0);
  EXPECT_EQ(p1000.beyond, 10u);
  EXPECT_TRUE(p1000.supported);

  const TailPercentile p999 = tail_percentile(ramp(999));
  EXPECT_EQ(p999.percentile, 95.0);  // p99 would leave only 9 beyond
  EXPECT_EQ(p999.value, 950.0);
  EXPECT_GE(p999.beyond, 10u);

  const TailPercentile p20 = tail_percentile(ramp(20));
  EXPECT_EQ(p20.percentile, 50.0);
  EXPECT_EQ(p20.beyond, 10u);
  EXPECT_TRUE(p20.supported);
}

TEST(TailPercentile, TooFewSamplesFallBackToTheMedianUnsupported) {
  const TailPercentile p = tail_percentile(ramp(15));
  EXPECT_FALSE(p.supported);
  EXPECT_EQ(p.percentile, 50.0);
  EXPECT_EQ(p.value, 8.0);
  EXPECT_FALSE(tail_percentile({}).supported);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Spans, SelfTimeIsSpanMinusTheUnionOfItsChildren) {
  SpanRecorder rec;
  const std::uint64_t call = rec.next_call();
  const std::uint64_t root = rec.add("root", 0, call, 0, 100);
  rec.add("a", root, call, 10, 30);
  const std::uint64_t b = rec.add("b", root, call, 20, 50);  // overlaps a
  rec.add("c", root, call, 90, 130);                         // clipped at 100
  rec.add("grandchild", b, call, 25, 45);
  const std::vector<double> self = rec.self_us();
  EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);  // [10,50) and [90,100)
  EXPECT_DOUBLE_EQ(self[1], 20);
  EXPECT_DOUBLE_EQ(self[2], 30 - 20);
  EXPECT_DOUBLE_EQ(self[3], 40);
  EXPECT_DOUBLE_EQ(self[4], 20);
}

TEST(Spans, ScopesNestUnderTheInnermostOpenSpan) {
  SpanRecorder rec;
  const std::uint64_t call = rec.next_call();
  const int v = rec.scope("outer", call, [&] {
    rec.scope("inner", call, [] {}, 3);
    return 7;
  });
  EXPECT_EQ(v, 7);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].parent, 0u);
  EXPECT_EQ(rec.spans()[1].parent, rec.spans()[0].id);
  EXPECT_EQ(rec.spans()[1].tag, 3u);
  EXPECT_LE(rec.spans()[0].start_us, rec.spans()[1].start_us);
  EXPECT_GE(rec.spans()[0].end_us, rec.spans()[1].end_us);
  EXPECT_EQ(rec.durations_ms("inner", 3).size(), 1u);
  EXPECT_EQ(rec.durations_ms("inner", 0).size(), 0u);

  const std::uint64_t a = rec.begin("a", call);
  rec.begin("b", call);
  EXPECT_THROW(rec.end(a), std::logic_error);
}

TEST(Inputs, SameSeedRegeneratesByteIdenticalInputs) {
  EXPECT_EQ(gather_loop_text(7), gather_loop_text(7));
  EXPECT_EQ(parmvr_chain_text(7), parmvr_chain_text(7));
  EXPECT_EQ(svc_mix_texts(7), svc_mix_texts(7));
  EXPECT_EQ(svc_job_order(7, 4096), svc_job_order(7, 4096));
}

TEST(Inputs, DifferentSeedChangesInputs) {
  EXPECT_NE(gather_loop_text(7), gather_loop_text(8));
  EXPECT_NE(parmvr_chain_text(7), parmvr_chain_text(8));
  const std::vector<std::string> a = svc_mix_texts(7);
  const std::vector<std::string> b = svc_mix_texts(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NE(a[i], b[i]) << i;
  EXPECT_NE(svc_job_order(7, 4096), svc_job_order(8, 4096));
}

TEST(Inputs, JobStreamFollowsTheFixedMix) {
  const std::vector<double>& w = svc_mix_weights();
  ASSERT_EQ(w.size(), svc_mix_texts(1).size());
  const std::size_t n = 1u << 16;
  std::vector<double> seen(w.size(), 0.0);
  double restructure = 0.0;
  for (const JobPick& j : svc_job_order(3, n)) {
    ASSERT_LT(j.spec, w.size());
    seen[j.spec] += 1.0 / n;
    restructure += j.restructure ? 1.0 / n : 0.0;
  }
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_NEAR(seen[i], w[i], 0.01) << i;
  EXPECT_NEAR(restructure, 0.75, 0.01);
}

}  // namespace
}  // namespace perfbench
