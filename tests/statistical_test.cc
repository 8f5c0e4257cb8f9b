// Statistical guarantees of the ACE sample stream (paper Sec. 6):
//
//   * Uniformity — the first m samples of a range query are a uniform
//     random subset of the matching records; chi-square over
//     equal-population buckets across many seeded runs.
//   * Without replacement — a full drain returns every matching record
//     exactly once, nothing else.
//   * Unbiasedness — OnlineAggregator's AVG over a prefix of the stream
//     is an unbiased estimator of the true average; 200 seeded runs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "core/sample_view.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "relation/sale_generator.h"
#include "sampling/online_aggregator.h"
#include "storage/record.h"
#include "storage/record_view.h"
#include "test_util.h"
#include "util/random.h"

namespace msv::core {
namespace {

using msv::testing::AllDistinct;
using msv::testing::ValueOrDie;
using storage::SaleRecord;

constexpr double kQueryLo = 20000.0;
constexpr double kQueryHi = 70000.0;

class StatisticalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    relation::SaleGenOptions gen;
    gen.num_records = 2000;
    gen.seed = 7;
    ASSERT_TRUE(relation::GenerateSaleRelation(env_.get(), "sale", gen).ok());
    layout_ = SaleRecord::Layout1D();
    tree_ = BuildTree(/*build_seed=*/99);

    // Ground truth by full scan of the generated relation.
    auto heap = ValueOrDie(storage::HeapFile::Open(env_.get(), "sale"));
    auto scanner = heap->NewScanner();
    for (uint64_t i = 0; i < heap->record_count(); ++i) {
      const char* rec = ValueOrDie(scanner.Next());
      SaleRecord r = SaleRecord::DecodeFrom(rec);
      if (r.day >= kQueryLo && r.day <= kQueryHi) {
        matching_ids_.insert(r.row_id);
        true_sum_ += r.amount;
      }
    }
    ASSERT_GT(matching_ids_.size(), 500u);
    true_avg_ = true_sum_ / static_cast<double>(matching_ids_.size());
  }

  sampling::RangeQuery Query() const {
    return sampling::RangeQuery::OneDim(kQueryLo, kQueryHi);
  }

  /// Builds a fresh ACE tree over the fixed relation. The sampler's own
  /// seed only shuffles presentation order within combination rounds;
  /// the *statistical* randomness of the stream comes from the build-time
  /// section assignment, so the seeded-runs tests below draw a new tree
  /// per run.
  std::unique_ptr<AceTree> BuildTree(uint64_t build_seed) {
    AceBuildOptions build;
    build.page_size = 4096;
    build.key_dims = 1;
    build.seed = build_seed;
    // 2000 records sort in memory; the default 64 MB budget would be
    // allocated afresh for each of the ~200 seeded builds below.
    build.sort.memory_budget_bytes = 1 << 20;
    std::string name = "sale.ace." + std::to_string(build_seed);
    EXPECT_TRUE(BuildAceTree(env_.get(), "sale", name, layout_, build).ok());
    return ValueOrDie(AceTree::Open(env_.get(), name, layout_));
  }

  std::unique_ptr<sampling::SampleStream> MakeSampler(const AceTree* tree,
                                                      uint64_t seed) const {
    return std::make_unique<AceSampler>(tree, Query(), seed);
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  std::unique_ptr<AceTree> tree_;
  std::set<uint64_t> matching_ids_;
  double true_sum_ = 0.0;
  double true_avg_ = 0.0;
};

TEST_F(StatisticalTest, ExactWithoutReplacement) {
  auto sampler = MakeSampler(tree_.get(), /*seed=*/11);
  std::vector<uint64_t> ids = msv::testing::DrainRowIds(sampler.get());
  // No duplicates over the full drain, and the delivered set is exactly
  // the matching set — nothing missing, nothing extra.
  EXPECT_TRUE(AllDistinct(ids));
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()), matching_ids_);
  EXPECT_EQ(sampler->samples_returned(), matching_ids_.size());
}

TEST_F(StatisticalTest, PrefixIsUniformOverMatchingRecords) {
  // Bucket the matching ids into kBuckets equal-population cells, then
  // count which cells the first kPrefix samples of each seeded run land
  // in. Under uniformity every cell is equally likely, so the chi-square
  // statistic over all runs stays below the df=kBuckets-1 critical value.
  constexpr size_t kBuckets = 20;
  constexpr size_t kPrefix = 50;
  constexpr size_t kRuns = 40;

  std::vector<uint64_t> sorted(matching_ids_.begin(), matching_ids_.end());
  auto bucket_of = [&](uint64_t rid) {
    size_t rank = std::lower_bound(sorted.begin(), sorted.end(), rid) -
                  sorted.begin();
    return std::min(kBuckets - 1, rank * kBuckets / sorted.size());
  };

  std::vector<uint64_t> counts(kBuckets, 0);
  for (size_t run = 0; run < kRuns; ++run) {
    auto tree = BuildTree(/*build_seed=*/1000 + run);
    auto sampler = MakeSampler(tree.get(), /*seed=*/1000 + run);
    std::vector<uint64_t> prefix =
        msv::testing::TakeRowIds(sampler.get(), kPrefix);
    ASSERT_GE(prefix.size(), kPrefix);
    for (size_t i = 0; i < kPrefix; ++i) ++counts[bucket_of(prefix[i])];
  }

  const double total = static_cast<double>(kRuns * kPrefix);
  double chi2 = 0.0;
  for (size_t b = 0; b < kBuckets; ++b) {
    // Equal-population buckets up to rounding.
    size_t lo = b * sorted.size() / kBuckets;
    size_t hi = (b + 1) * sorted.size() / kBuckets;
    double expected =
        total * static_cast<double>(hi - lo) / static_cast<double>(sorted.size());
    double diff = static_cast<double>(counts[b]) - expected;
    chi2 += diff * diff / expected;
  }
  // Critical value for df=19 at p=0.001 is 43.8; the runs are seeded, so
  // this is a deterministic regression bound, not a flaky threshold.
  EXPECT_LT(chi2, 43.8) << "sample prefix is not uniform";
}

TEST_F(StatisticalTest, OnlineAggregatorIsUnbiased) {
  // 200 seeded runs, each feeding a prefix of the stream into the
  // aggregator. The mean of the 200 AVG estimates must land within four
  // standard errors of the true average — an unbiasedness check that
  // scales its own tolerance.
  constexpr size_t kRuns = 200;
  constexpr uint64_t kTarget = 120;

  std::vector<double> estimates;
  estimates.reserve(kRuns);
  for (size_t run = 0; run < kRuns; ++run) {
    auto tree = BuildTree(/*build_seed=*/5000 + run);
    auto sampler = MakeSampler(tree.get(), /*seed=*/5000 + run);
    sampling::OnlineAggregator agg(
        storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
        matching_ids_.size());
    while (!sampler->done() && agg.samples_seen() < kTarget) {
      auto batch = ValueOrDie(sampler->NextBatch());
      agg.Consume(batch);
    }
    ASSERT_GE(agg.samples_seen(), kTarget);
    estimates.push_back(agg.Avg().value);
  }

  double mean = 0.0;
  for (double e : estimates) mean += e;
  mean /= static_cast<double>(kRuns);
  double var = 0.0;
  for (double e : estimates) var += (e - mean) * (e - mean);
  var /= static_cast<double>(kRuns - 1);
  double stderr_of_mean = std::sqrt(var / static_cast<double>(kRuns));

  EXPECT_NEAR(mean, true_avg_, 4.0 * stderr_of_mean)
      << "mean of " << kRuns << " AVG estimates is biased";
  // Each individual run's CI should also be sane: positive half-width
  // once enough samples arrived.
  auto sampler = MakeSampler(tree_.get(), /*seed=*/77);
  sampling::OnlineAggregator agg(
      storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
      matching_ids_.size());
  while (!sampler->done() && agg.samples_seen() < kTarget) {
    agg.Consume(ValueOrDie(sampler->NextBatch()));
  }
  EXPECT_GT(agg.Avg().half_width, 0.0);
  EXPECT_NEAR(agg.Sum().value,
              agg.Avg().value * static_cast<double>(matching_ids_.size()),
              1e-6 * agg.Sum().value);
}

// ---------------------------------------------------------------------------
// Unified ingest stream — the P-partition interleave over memtable, sorted
// runs, and the ACE tree must preserve every property above: a prefix of
// the unified stream is a uniform subset of ALL matching records regardless
// of which layer currently holds them, and aggregates over it stay
// unbiased. Each run builds a fresh view and replays the same insert
// workload, so flush boundaries land mid-stream exactly as they would in
// production.
// ---------------------------------------------------------------------------

constexpr uint64_t kIngestBase = 1200;
constexpr uint64_t kIngestExtra = 800;

class IngestStatisticalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    layout_ = SaleRecord::Layout1D();

    // Ground truth from the same deterministic generators every per-run
    // view uses: a scan of the base relation plus a decode of the insert
    // payload.
    auto env = io::NewMemEnv();
    msv::testing::MakeSale(env.get(), "sale", kIngestBase, /*seed=*/7);
    auto heap = ValueOrDie(storage::HeapFile::Open(env.get(), "sale"));
    auto scanner = heap->NewScanner();
    for (uint64_t i = 0; i < heap->record_count(); ++i) {
      SaleRecord r = SaleRecord::DecodeFrom(ValueOrDie(scanner.Next()));
      if (Absorb(r)) ++base_matches_;
    }
    const std::string payload = InsertPayload();
    for (uint64_t i = 0; i < kIngestExtra; ++i) {
      Absorb(SaleRecord::DecodeFrom(payload.data() + i * SaleRecord::kSize));
    }
    ASSERT_GT(base_matches_, 400u);
    ASSERT_GT(matching_ids_.size() - base_matches_, 250u);
    true_avg_ = true_sum_ / static_cast<double>(matching_ids_.size());
  }

  bool Absorb(const SaleRecord& r) {
    if (r.day < kQueryLo || r.day > kQueryHi) return false;
    matching_ids_.insert(r.row_id);
    true_sum_ += r.amount;
    return true;
  }

  sampling::RangeQuery Query() const {
    return sampling::RangeQuery::OneDim(kQueryLo, kQueryHi);
  }

  /// The fixed post-build workload: 800 records with row ids continuing
  /// after the base, days spanning the full generator range.
  std::string InsertPayload() const {
    Pcg64 rng(17);
    std::string out;
    char buf[SaleRecord::kSize];
    for (uint64_t i = 0; i < kIngestExtra; ++i) {
      SaleRecord rec;
      rec.day = rng.DoubleInRange(0, 100000);
      rec.amount = rng.DoubleInRange(0, 10000);
      rec.row_id = kIngestBase + i;
      rec.EncodeTo(buf);
      out.append(buf, sizeof(buf));
    }
    return out;
  }

  /// Fresh view over the fixed base, then the fixed workload inserted in
  /// 50-record calls against a 150-record memtable: flushes fire after
  /// records 150/300/450/600/750, leaving five sorted runs plus 50 live
  /// memtable records. A prefix drawn here spans all three layers.
  std::unique_ptr<MaterializedSampleView> MakeView(uint64_t build_seed) {
    env_ = io::NewMemEnv();
    msv::testing::MakeSale(env_.get(), "sale", kIngestBase, /*seed=*/7);
    MaterializedSampleView::Options options;
    options.build.page_size = 4096;
    options.build.key_dims = 1;
    options.build.seed = build_seed;
    options.build.sort.memory_budget_bytes = 1 << 20;
    options.ingest.memtable_max_records = 150;
    options.ingest.background_compaction = false;
    auto view = ValueOrDie(MaterializedSampleView::Create(env_.get(), "v",
                                                          "sale", layout_,
                                                          options));
    const std::string payload = InsertPayload();
    for (uint64_t off = 0; off < kIngestExtra; off += 50) {
      MSV_EXPECT_OK(view->Insert(payload.data() + off * SaleRecord::kSize, 50));
    }
    return view;
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  std::set<uint64_t> matching_ids_;
  uint64_t base_matches_ = 0;
  double true_sum_ = 0.0;
  double true_avg_ = 0.0;
};

TEST_F(IngestStatisticalTest, UnifiedDrainIsExactWithoutReplacement) {
  auto view = MakeView(/*build_seed=*/99);
  auto sampler = ValueOrDie(view->Sample(Query(), /*seed=*/11, base_matches_));
  std::vector<uint64_t> ids = msv::testing::DrainRowIds(sampler.get());
  EXPECT_TRUE(AllDistinct(ids));
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()), matching_ids_);
}

TEST_F(IngestStatisticalTest, UnifiedPrefixIsUniformAcrossPartitions) {
  // Same chi-square design as PrefixIsUniformOverMatchingRecords, but the
  // matching population straddles the ACE tree (row ids < 1200) and the
  // write path (ids >= 1200, split across five runs and the memtable).
  // Rank buckets therefore cover every layer: any bias in the
  // hypergeometric split — e.g. over-drawing the memtable — inflates chi2.
  constexpr size_t kBuckets = 20;
  constexpr size_t kPrefix = 50;
  constexpr size_t kRuns = 40;

  std::vector<uint64_t> sorted(matching_ids_.begin(), matching_ids_.end());
  auto bucket_of = [&](uint64_t rid) {
    size_t rank = std::lower_bound(sorted.begin(), sorted.end(), rid) -
                  sorted.begin();
    return std::min(kBuckets - 1, rank * kBuckets / sorted.size());
  };

  std::vector<uint64_t> counts(kBuckets, 0);
  for (size_t run = 0; run < kRuns; ++run) {
    auto view = MakeView(/*build_seed=*/2000 + run);
    auto sampler =
        ValueOrDie(view->Sample(Query(), /*seed=*/2000 + run, base_matches_));
    std::vector<uint64_t> prefix =
        msv::testing::TakeRowIds(sampler.get(), kPrefix);
    ASSERT_GE(prefix.size(), kPrefix);
    for (size_t i = 0; i < kPrefix; ++i) ++counts[bucket_of(prefix[i])];
  }

  const double total = static_cast<double>(kRuns * kPrefix);
  double chi2 = 0.0;
  for (size_t b = 0; b < kBuckets; ++b) {
    size_t lo = b * sorted.size() / kBuckets;
    size_t hi = (b + 1) * sorted.size() / kBuckets;
    double expected = total * static_cast<double>(hi - lo) /
                      static_cast<double>(sorted.size());
    double diff = static_cast<double>(counts[b]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 43.8) << "unified sample prefix is not uniform";
}

TEST_F(IngestStatisticalTest, UnifiedAvgIsUnbiased) {
  // 200 seeded runs of AVG over a 120-sample prefix of the unified
  // stream; the mean of the estimates must land within four standard
  // errors of the true average over base + inserted records.
  constexpr size_t kRuns = 200;
  constexpr uint64_t kTarget = 120;

  std::vector<double> estimates;
  estimates.reserve(kRuns);
  for (size_t run = 0; run < kRuns; ++run) {
    auto view = MakeView(/*build_seed=*/5000 + run);
    auto sampler =
        ValueOrDie(view->Sample(Query(), /*seed=*/5000 + run, base_matches_));
    sampling::OnlineAggregator agg(
        storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
        matching_ids_.size());
    while (!sampler->done() && agg.samples_seen() < kTarget) {
      agg.Consume(ValueOrDie(sampler->NextBatch()));
    }
    ASSERT_GE(agg.samples_seen(), kTarget);
    estimates.push_back(agg.Avg().value);
  }

  double mean = 0.0;
  for (double e : estimates) mean += e;
  mean /= static_cast<double>(kRuns);
  double var = 0.0;
  for (double e : estimates) var += (e - mean) * (e - mean);
  var /= static_cast<double>(kRuns - 1);
  double stderr_of_mean = std::sqrt(var / static_cast<double>(kRuns));

  EXPECT_NEAR(mean, true_avg_, 4.0 * stderr_of_mean)
      << "mean of " << kRuns << " unified AVG estimates is biased";
}

}  // namespace
}  // namespace msv::core
