#include <cmath>
#include <map>

#include "gtest/gtest.h"
#include "io/env.h"
#include "permuted/permuted_file.h"
#include "sampling/grouped_aggregator.h"
#include "sampling/online_aggregator.h"
#include "sampling/sample_stream.h"
#include "storage/record_view.h"
#include "test_util.h"
#include "util/random.h"

namespace msv::sampling {
namespace {

using msv::testing::MakeSale;
using msv::testing::ValueOrDie;
using storage::SaleRecord;

TEST(SampleBatchTest, AppendAndAccess) {
  SampleBatch batch;
  batch.record_size = 4;
  EXPECT_TRUE(batch.empty());
  batch.Append("abcd");
  batch.Append("wxyz");
  EXPECT_EQ(batch.count(), 2u);
  EXPECT_EQ(std::string(batch.record(1), 4), "wxyz");
}

TEST(IntervalTest, Semantics) {
  Interval a{0, 10};
  EXPECT_TRUE(a.Contains(0));
  EXPECT_TRUE(a.Contains(10));
  EXPECT_FALSE(a.Contains(10.0001));
  EXPECT_TRUE(a.Overlaps(Interval{10, 20}));
  EXPECT_FALSE(a.Overlaps(Interval{10.5, 20}));
  EXPECT_TRUE(a.Covers(Interval{2, 8}));
  EXPECT_FALSE(a.Covers(Interval{2, 11}));
  EXPECT_TRUE((Interval{5, 4}.Empty()));
}

class OnlineAggregatorTest : public ::testing::Test {
 protected:
  static double Amount(const char* rec) {
    return SaleRecord::DecodeFrom(rec).amount;
  }
  static storage::FieldAccessor AmountAccessor() {
    return storage::FieldAccessor::Double(SaleRecord::kAmountOffset);
  }
};

TEST_F(OnlineAggregatorTest, AvgConvergesToTruth) {
  auto env = io::NewMemEnv();
  const uint64_t kRecords = 20000;
  MakeSale(env.get(), "sale", kRecords, 3);
  MSV_ASSERT_OK(permuted::BuildPermutedFile(env.get(), "sale", "perm", {}));
  auto perm = ValueOrDie(storage::HeapFile::Open(env.get(), "perm"));

  // Ground truth over the full relation.
  double truth = 0;
  {
    auto scanner = perm->NewScanner();
    for (;;) {
      const char* rec = ValueOrDie(scanner.Next());
      if (rec == nullptr) break;
      truth += Amount(rec);
    }
    truth /= kRecords;
  }

  auto layout = SaleRecord::Layout1D();
  auto q = RangeQuery::OneDim(-1e18, 1e18);
  permuted::PermutedFileSampler sampler(perm.get(), layout, q);
  OnlineAggregator agg(AmountAccessor(), kRecords, 0.95);

  double last_width = 1e18;
  uint64_t checkpoints = 0;
  while (!sampler.done() && agg.samples_seen() < 10000) {
    agg.Consume(ValueOrDie(sampler.NextBatch()));
    if (agg.samples_seen() > 100) {  // one checkpoint per 128 KiB pull
      Estimate e = agg.Avg();
      EXPECT_LE(e.half_width, last_width * 1.5);  // interval shrinks
      last_width = e.half_width;
      ++checkpoints;
    }
  }
  Estimate e = agg.Avg();
  EXPECT_GT(checkpoints, 2u);
  EXPECT_NEAR(e.value, truth, 4 * e.half_width + 1e-9);
  EXPECT_LT(e.half_width / truth, 0.05);
}

TEST_F(OnlineAggregatorTest, SumScalesByPopulation) {
  OnlineAggregator agg(AmountAccessor(), 1000, 0.95);
  SampleBatch batch;
  batch.record_size = SaleRecord::kSize;
  char rec[SaleRecord::kSize];
  SaleRecord r;
  r.amount = 2.0;
  r.EncodeTo(rec);
  for (int i = 0; i < 50; ++i) batch.Append(rec);
  agg.Consume(batch);
  Estimate sum = agg.Sum();
  EXPECT_DOUBLE_EQ(sum.value, 2.0 * 1000);
  EXPECT_EQ(sum.samples, 50u);
  EXPECT_DOUBLE_EQ(sum.half_width, 0.0);  // zero variance
}

TEST_F(OnlineAggregatorTest, FinitePopulationCorrectionTightensAtEnd) {
  // When the sample approaches the whole population the interval must
  // collapse towards zero.
  Pcg64 rng(5);
  OnlineAggregator agg(AmountAccessor(), 200, 0.95);
  SampleBatch batch;
  batch.record_size = SaleRecord::kSize;
  char buf[SaleRecord::kSize];
  for (int i = 0; i < 200; ++i) {
    SaleRecord r;
    r.amount = rng.NextDouble() * 100;
    r.EncodeTo(buf);
    batch.Append(buf);
  }
  agg.Consume(batch);
  Estimate e = agg.Avg();
  EXPECT_EQ(e.samples, 200u);
  EXPECT_LT(e.half_width, 1e-9);
}

TEST_F(OnlineAggregatorTest, CoverageOfConfidenceInterval) {
  // Monte-Carlo: the 95% CI over a mean of uniforms should cover the true
  // mean in roughly 95% of trials (population >> sample so FPC ~ 1).
  Pcg64 rng(6);
  int covered = 0;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    OnlineAggregator agg(AmountAccessor(), 1'000'000'000, 0.95);
    SampleBatch batch;
    batch.record_size = SaleRecord::kSize;
    char buf[SaleRecord::kSize];
    for (int i = 0; i < 400; ++i) {
      SaleRecord r;
      r.amount = rng.NextDouble();  // true mean 0.5
      r.EncodeTo(buf);
      batch.Append(buf);
    }
    agg.Consume(batch);
    Estimate e = agg.Avg();
    if (std::abs(e.value - 0.5) <= e.half_width) ++covered;
  }
  double coverage = covered / double(kTrials);
  EXPECT_GT(coverage, 0.90);
  EXPECT_LE(coverage, 1.0);
}

// ---------------------------------------------------------------------------
// GroupedAggregator
// ---------------------------------------------------------------------------

class GroupedAggregatorTest : public ::testing::Test {
 protected:
  // Synthetic population: 3 groups (supp in {0, 1, 2}) with distinct
  // means.
  static uint64_t Group(const char* rec) {
    return SaleRecord::DecodeFrom(rec).supp;
  }
  static double Value(const char* rec) {
    return SaleRecord::DecodeFrom(rec).amount;
  }
  static GroupedAggregator MakeAggregator(uint64_t population) {
    return GroupedAggregator(
        storage::FieldAccessor::Uint64(SaleRecord::kSuppOffset),
        storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
        population, 0.95);
  }

  SampleBatch MakePopulationSample(uint64_t n, uint64_t seed) {
    SampleBatch batch;
    batch.record_size = SaleRecord::kSize;
    Pcg64 rng(seed);
    char buf[SaleRecord::kSize];
    for (uint64_t i = 0; i < n; ++i) {
      SaleRecord r;
      r.supp = rng.Below(3000) % 3;
      // Group means 100, 200, 300 with +/-10 noise.
      r.amount = 100.0 * static_cast<double>(r.supp + 1) +
                 (rng.NextDouble() - 0.5) * 20.0;
      r.EncodeTo(buf);
      batch.Append(buf);
    }
    return batch;
  }
};

TEST_F(GroupedAggregatorTest, PerGroupAvgConverges) {
  GroupedAggregator agg = MakeAggregator(3'000'000);
  agg.Consume(MakePopulationSample(6000, 3));
  auto groups = agg.Groups();
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& g : groups) {
    double expected = 100.0 * static_cast<double>(g.group + 1);
    EXPECT_NEAR(g.avg.value, expected, 1.0) << "group " << g.group;
    EXPECT_LT(g.avg.half_width, 1.0);
    EXPECT_GT(g.samples, 1500u);
  }
}

TEST_F(GroupedAggregatorTest, CountEstimatesSplitThePopulation) {
  const uint64_t kPop = 900'000;
  GroupedAggregator agg = MakeAggregator(kPop);
  agg.Consume(MakePopulationSample(9000, 4));
  auto groups = agg.Groups();
  ASSERT_EQ(groups.size(), 3u);
  double total = 0;
  for (const auto& g : groups) {
    EXPECT_NEAR(g.count.value, kPop / 3.0, 4 * g.count.half_width + 1.0);
    total += g.count.value;
  }
  EXPECT_NEAR(total, static_cast<double>(kPop), 1e-6);
}

TEST_F(GroupedAggregatorTest, SumEstimateMatchesAvgTimesCount) {
  GroupedAggregator agg = MakeAggregator(300'000);
  agg.Consume(MakePopulationSample(3000, 5));
  for (const auto& g : agg.Groups()) {
    // SUM_g ~ AVG_g * COUNT_g (they are estimated from the same sample).
    EXPECT_NEAR(g.sum.value, g.avg.value * g.count.value,
                0.01 * g.sum.value);
    EXPECT_GT(g.sum.half_width, 0.0);
  }
}

TEST_F(GroupedAggregatorTest, SumCoverageMonteCarlo) {
  // True per-group sum of a finite synthetic population vs the estimator
  // applied to uniform subsamples: the 95% CI should cover ~95%.
  SampleBatch population = MakePopulationSample(20000, 6);
  std::map<uint64_t, double> truth;
  for (size_t i = 0; i < population.count(); ++i) {
    truth[Group(population.record(i))] += Value(population.record(i));
  }
  Pcg64 rng(7);
  int covered = 0, checks = 0;
  for (int trial = 0; trial < 100; ++trial) {
    GroupedAggregator agg = MakeAggregator(population.count());
    SampleBatch sample;
    sample.record_size = SaleRecord::kSize;
    for (uint64_t idx :
         SampleWithoutReplacement(population.count(), 2000, &rng)) {
      sample.Append(population.record(static_cast<size_t>(idx)));
    }
    agg.Consume(sample);
    for (const auto& g : agg.Groups()) {
      ++checks;
      // Without-replacement sampling tightens the truth around the CI;
      // allow the plain CLT interval (no FPC) some slack.
      if (std::abs(g.sum.value - truth[g.group]) <= g.sum.half_width) {
        ++covered;
      }
    }
  }
  EXPECT_GT(static_cast<double>(covered) / checks, 0.90);
}

TEST_F(GroupedAggregatorTest, EmptyAggregatorHasNoGroups) {
  GroupedAggregator agg = MakeAggregator(100);
  EXPECT_EQ(agg.Groups().size(), 0u);
  EXPECT_EQ(agg.samples_seen(), 0u);
}

}  // namespace
}  // namespace msv::sampling
