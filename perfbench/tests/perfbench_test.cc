// Tests for the benchmark's own code: the percentile rule, span self
// time, and the counting Env decorator.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "counting_env.h"
#include "io/env.h"
#include "span_log.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({10, 20, 30, 40, 50}, 75), 40.0);
  EXPECT_DOUBLE_EQ(Percentile({10, 20}, 100), 20.0);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(PercentileRuleTest, HighestPercentileWithTenSamplesBeyond) {
  // p99 needs 1000 samples (10 beyond it); one fewer falls back to p95.
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(199), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(40), 75.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  // Fractional percentiles are not lost to rounding: 10000 samples leave
  // exactly 10 beyond p99.9.
  EXPECT_EQ(HighestSupportedPercentile(10000, {99.9, 99}), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(9999, {99.9, 99}), 99.0);
}

SpanRecord Span(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  return SpanRecord{id, parent, 1, "s", start, end};
}

TEST(SelfTimeTest, SubtractsTheUnionOfOverlappingChildren) {
  const SpanRecord parent = Span(1, 0, 0, 100);
  // [10, 40) and [30, 60) overlap: together they cover [10, 60).
  // [80, 120) is clipped to the parent's end: [80, 100).
  const std::vector<SpanRecord> children = {
      Span(2, 1, 10, 40), Span(3, 1, 30, 60), Span(4, 1, 80, 120)};
  EXPECT_EQ(SelfTimeNs(parent, children), 100 - 50 - 20);
}

TEST(SelfTimeTest, NestedAndIdenticalChildrenCountOnce) {
  const SpanRecord parent = Span(1, 0, 0, 100);
  EXPECT_EQ(SelfTimeNs(parent, {Span(2, 1, 20, 80), Span(3, 1, 30, 40),
                                Span(4, 1, 20, 80)}),
            40);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {Span(2, 1, 100, 150)}), 100);
}

TEST(SpanLogTest, NestsSpansAndInheritsTheStatement) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer", 7);
    ScopedSpan inner(&log, "inner");
  }
  const std::vector<SpanRecord> spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].stmt, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);

  const SpanIndex index(spans);
  const auto total = index.SumByStatement("outer", false);
  const auto self = index.SumByStatement("outer", true);
  EXPECT_EQ(total.at(7) - self.at(7), spans[1].duration_ns());
}

TEST(CountingEnvTest, CountsWhatIsRequestedOnMemEnv) {
  std::unique_ptr<msv::io::Env> mem = msv::io::NewMemEnv();
  CountingEnv env(mem.get());
  env.set_enabled(true);
  auto file = env.OpenFile("f", /*create=*/true);
  ASSERT_TRUE(file.ok());
  const std::string data(1000, 'x');
  ASSERT_TRUE((*file)->Append(data.data(), 600).ok());
  ASSERT_TRUE((*file)->Write(600, data.data(), 400).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE(env.SyncDir().ok());

  char buf[1000];
  ASSERT_TRUE((*file)->Read(0, 100, buf).ok());
  ASSERT_TRUE((*file)->ReadExact(100, 250, buf).ok());
  msv::io::ReadRequest reqs[3] = {{0, 10, buf, 0},
                                  {10, 20, buf + 10, 0},
                                  {500, 300, buf + 30, 0}};
  ASSERT_TRUE((*file)->ReadBatch(reqs, 3).ok());

  const CountingEnv::Counts c = env.counts();
  EXPECT_EQ(c.reads, 5u);  // two Reads and a batch of three requests
  EXPECT_EQ(c.read_bytes, 100u + 250u + 10u + 20u + 300u);
  EXPECT_EQ(c.writes, 2u);
  EXPECT_EQ(c.write_bytes, 1000u);
  EXPECT_EQ(c.syncs, 2u);
}

TEST(CountingEnvTest, DisabledCountsNothingAndCaptureCopiesBytes) {
  std::unique_ptr<msv::io::Env> mem = msv::io::NewMemEnv();
  CountingEnv env(mem.get());
  auto file = env.OpenFile("f", /*create=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abcdef", 6).ok());
  char buf[6];
  ASSERT_TRUE((*file)->Read(0, 6, buf).ok());
  EXPECT_EQ(env.counts().reads, 0u);
  EXPECT_EQ(env.counts().write_bytes, 0u);

  env.set_enabled(true);
  std::vector<std::string> raw;
  env.set_capture(&raw);
  ASSERT_TRUE((*file)->Read(2, 3, buf).ok());
  env.set_capture(nullptr);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0], "cde");
}

}  // namespace
}  // namespace perfbench
