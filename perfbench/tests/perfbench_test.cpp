// Unit tests of the benchmark's own machinery:
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "yardstick.hpp"

namespace perfbench {
namespace {

TEST(Workloads, SeedToConfigIsDeterministic) {
  for (const Workload w : {Workload::kPaperRow, Workload::kFig4Ensemble,
                           Workload::kLargeCollective}) {
    EXPECT_EQ(batch_job(w, 7, 1).config_text, batch_job(w, 7, 1).config_text);
    EXPECT_NE(batch_job(w, 7, 1).config_text, batch_job(w, 8, 1).config_text);
    EXPECT_NE(batch_job(w, 7, 0).config_text, batch_job(w, 7, 1).config_text);
  }
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    EXPECT_EQ(service_job(3, seq).config_text, service_job(3, seq).config_text);
    EXPECT_EQ(service_job(3, seq).kind, seq % 2 == 0 ? "small" : "fig4");
  }
  EXPECT_NE(service_job(3, 0).config_text, service_job(3, 2).config_text);
  EXPECT_NE(service_job(3, 0).config_text, service_job(4, 0).config_text);
}

TEST(Workloads, DerivedSeedsAreExactInConfigText) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t seed = derive_seed(12345, i);
    EXPECT_LT(seed, std::uint64_t{1} << 53);
    EXPECT_EQ(static_cast<std::uint64_t>(static_cast<double>(seed)), seed);
  }
}

TEST(Workloads, NamesRoundTrip) {
  for (const Workload w : {Workload::kPaperRow, Workload::kFig4Ensemble,
                           Workload::kLargeCollective, Workload::kServiceMix}) {
    EXPECT_EQ(parse_workload(workload_name(w)), w);
  }
  EXPECT_FALSE(parse_workload("paper_row").has_value());
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(ramp(19)).has_value());

  const auto p50 = tail_percentile(ramp(20));
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->percentile, 50.0);
  EXPECT_EQ(p50->value, 10.0);
  EXPECT_EQ(p50->beyond, 10u);

  const auto p90 = tail_percentile(ramp(100));
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->percentile, 90.0);
  EXPECT_EQ(p90->value, 90.0);
  EXPECT_EQ(p90->count, 100u);

  const auto p99 = tail_percentile(ramp(1000));
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->percentile, 99.0);
  EXPECT_EQ(p99->beyond, 10u);

  const auto p999 = tail_percentile(ramp(10000));
  ASSERT_TRUE(p999.has_value());
  EXPECT_EQ(p999->percentile, 99.9);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span span(const char* name, std::uint64_t id, std::uint64_t parent,
          double start, double end) {
  return {name, id, parent, 0, start, end};
}

TEST(Spans, SerialSelfTimesAddUpToTheParent) {
  const std::vector<Span> spans = {
      span("root", 1, 0, 0.0, 10.0), span("a", 2, 1, 1.0, 3.0),
      span("b", 3, 1, 4.0, 8.0),     span("a", 4, 3, 5.0, 6.0)};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), 4.0);
  EXPECT_DOUBLE_EQ(self.at("a"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("b"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("root") + self.at("a") + self.at("b"), 10.0);

  const WallAccount account = account_wall(spans);
  EXPECT_DOUBLE_EQ(account.wall_s, 10.0);
  EXPECT_DOUBLE_EQ(account.unaccounted_s, 4.0);
  EXPECT_DOUBLE_EQ(account.share_s.at("a"), 3.0);
  EXPECT_DOUBLE_EQ(account.share_s.at("b"), 3.0);
}

TEST(Spans, ConcurrentChildrenShareTheWall) {
  // Two children on two threads overlap in [2, 4).
  const std::vector<Span> spans = {span("root", 1, 0, 0.0, 6.0),
                                   span("x", 2, 1, 1.0, 4.0),
                                   span("y", 3, 1, 2.0, 5.0)};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), 2.0);  // [0,1) and [5,6)
  EXPECT_DOUBLE_EQ(self.at("x") + self.at("y"), 6.0);  // busy time, not wall

  const WallAccount account = account_wall(spans);
  EXPECT_DOUBLE_EQ(account.unaccounted_s, 2.0);
  EXPECT_DOUBLE_EQ(account.share_s.at("x") + account.share_s.at("y") +
                       account.unaccounted_s,
                   6.0);
  EXPECT_DOUBLE_EQ(account.share_s.at("x"), 2.0);  // 1 alone + 2 shared / 2
}

TEST(ResultJson, CarriesEveryField) {
  EXPECT_EQ(result_json(true, 3, 0, {{"pipeline_s", 1.5, "s"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"pipeline_s\": {\"value\": 1.5, \"unit\": \"s\"}}}");
}

TEST(Yardstick, TimesItsOwnWorkOnOneThread) {
  Yardstick yardstick;
  EXPECT_EQ(yardstick.wall_s(), 0.0);
  yardstick.measure(3);
  EXPECT_GT(yardstick.wall_s(), 0.0);
  EXPECT_GT(yardstick.cpu_s(), 0.0);
  // One thread cannot use more CPU than wall time, beyond clock granularity.
  EXPECT_LE(yardstick.cpu_s(), 1.05 * yardstick.wall_s() + 1e-4);
}

}  // namespace
}  // namespace perfbench
