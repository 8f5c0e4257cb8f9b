#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "io/buffer_pool.h"
#include "io/env.h"
#include "relation/workload.h"
#include "rtree/rtree.h"
#include "rtree/rtree_sampler.h"
#include "test_util.h"
#include "util/stats.h"

namespace msv::rtree {
namespace {

using msv::testing::AllDistinct;
using msv::testing::DrainRowIds;
using msv::testing::MakeSale;
using msv::testing::TakeRowIds;
using msv::testing::ValueOrDie;
using storage::HeapFile;
using storage::SaleRecord;

constexpr size_t kPageSize = 4096;

class RTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    MakeSale(env_.get(), "sale", kRecords, /*seed=*/51);
    RTreeOptions options;
    options.page_size = kPageSize;
    MSV_ASSERT_OK(BuildRTree(env_.get(), "sale", "rt",
                             SaleRecord::Layout2D(), options));
    pool_ = std::make_unique<io::BufferPool>(kPageSize, 256);
    tree_ = ValueOrDie(RTree::Open(env_.get(), "rt", SaleRecord::Layout2D(),
                                   pool_.get(), /*file_id=*/1));
  }

  static constexpr uint64_t kRecords = 20000;
  std::unique_ptr<io::Env> env_;
  std::unique_ptr<io::BufferPool> pool_;
  std::unique_ptr<RTree> tree_;
};

TEST_F(RTreeTest, MetaIsConsistent) {
  const RTreeMeta& meta = tree_->meta();
  EXPECT_EQ(meta.num_records, kRecords);
  EXPECT_EQ(meta.dims, 2u);
  EXPECT_GT(meta.height, 1u);
  EXPECT_EQ(meta.num_leaves,
            (kRecords + meta.records_per_leaf - 1) / meta.records_per_leaf);
}

TEST_F(RTreeTest, AllLeavesHoldAllRecordsExactlyOnce) {
  // A query covering everything must produce candidate runs containing all
  // records exactly once.
  auto query = sampling::RangeQuery::TwoDim(-1e9, 1e9, -1e9, 1e9);
  auto runs = ValueOrDie(tree_->CollectCandidates(query));
  uint64_t total = 0;
  std::set<uint64_t> ids;
  std::vector<char> rec(SaleRecord::kSize);
  for (const auto& run : runs) {
    total += run.count;
    for (uint32_t i = 0; i < run.count; ++i) {
      MSV_ASSERT_OK(tree_->ReadRecordAt(run.page, i, rec.data()));
      ids.insert(SaleRecord::DecodeFrom(rec.data()).row_id);
    }
  }
  EXPECT_EQ(total, kRecords);
  EXPECT_EQ(ids.size(), kRecords);
}

TEST_F(RTreeTest, CandidatesAreSupersetOfMatches) {
  auto layout = SaleRecord::Layout2D();
  auto query = sampling::RangeQuery::TwoDim(20000, 60000, 2000, 6000);
  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  auto expected =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout, query));

  auto runs = ValueOrDie(tree_->CollectCandidates(query));
  std::set<uint64_t> candidates;
  std::vector<char> rec(SaleRecord::kSize);
  for (const auto& run : runs) {
    for (uint32_t i = 0; i < run.count; ++i) {
      MSV_ASSERT_OK(tree_->ReadRecordAt(run.page, i, rec.data()));
      candidates.insert(SaleRecord::DecodeFrom(rec.data()).row_id);
    }
  }
  for (uint64_t id : expected) {
    EXPECT_TRUE(candidates.count(id)) << "match " << id << " not a candidate";
  }
}

TEST_F(RTreeTest, StrPackingIsSpatiallySelective) {
  // A small query rectangle should touch far fewer leaves than the tree
  // holds (that's the point of STR packing).
  auto query = sampling::RangeQuery::TwoDim(50000, 55000, 5000, 5500);
  auto runs = ValueOrDie(tree_->CollectCandidates(query));
  EXPECT_LT(runs.size(), tree_->meta().num_leaves / 4)
      << runs.size() << " of " << tree_->meta().num_leaves;
}

TEST_F(RTreeTest, SamplerReturnsExactlyTheMatchSet) {
  auto layout = SaleRecord::Layout2D();
  auto query = sampling::RangeQuery::TwoDim(10000, 50000, 1000, 5000);
  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  auto expected =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout, query));

  RTreeSampler sampler(tree_.get(), query, /*seed=*/7);
  auto got = DrainRowIds(&sampler);
  EXPECT_TRUE(AllDistinct(got));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST_F(RTreeTest, SamplerRespectsPredicate) {
  auto layout = SaleRecord::Layout2D();
  auto query = sampling::RangeQuery::TwoDim(70000, 75000, 7000, 7500);
  RTreeSampler sampler(tree_.get(), query, 8);
  while (!sampler.done()) {
    auto batch = ValueOrDie(sampler.NextBatch());
    for (size_t i = 0; i < batch.count(); ++i) {
      EXPECT_TRUE(query.Matches(layout, batch.record(i)));
    }
  }
}

TEST_F(RTreeTest, EmptyQueryFinishes) {
  auto query = sampling::RangeQuery::TwoDim(2e6, 3e6, 2e6, 3e6);
  RTreeSampler sampler(tree_.get(), query, 8);
  EXPECT_TRUE(DrainRowIds(&sampler).empty());
}

TEST_F(RTreeTest, SamplerPrefixIsUniform) {
  auto layout = SaleRecord::Layout2D();
  auto query = sampling::RangeQuery::TwoDim(30000, 70000, 3000, 7000);
  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  auto matching =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout, query));
  ASSERT_GT(matching.size(), 200u);
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < matching.size(); ++i) index[matching[i]] = i;

  const uint64_t kPrefix = 60;
  const int kTrials = 400;
  std::vector<uint64_t> counts(matching.size(), 0);
  for (int t = 0; t < kTrials; ++t) {
    RTreeSampler sampler(tree_.get(), query, 7000 + t);
    auto prefix = TakeRowIds(&sampler, kPrefix);
    ASSERT_GE(prefix.size(), kPrefix);
    prefix.resize(kPrefix);  // batches may overshoot; keep an exact prefix
    for (uint64_t id : prefix) {
      ++counts[index.at(id)];
    }
  }
  std::vector<double> expected(
      matching.size(), double(kPrefix) * kTrials / double(matching.size()));
  double stat = ChiSquareStatistic(counts, expected);
  EXPECT_GT(ChiSquarePValue(stat, matching.size() - 1), 1e-5)
      << "stat=" << stat;
}

class RTreeSizeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RTreeSizeSweep, BuildAndDrainEverything) {
  const uint64_t n = GetParam();
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", n, 61);
  RTreeOptions options;
  options.page_size = 4096;
  MSV_ASSERT_OK(
      BuildRTree(env.get(), "sale", "rt", SaleRecord::Layout2D(), options));
  io::BufferPool pool(4096, 64);
  auto tree = ValueOrDie(
      RTree::Open(env.get(), "rt", SaleRecord::Layout2D(), &pool, 1));
  auto query = sampling::RangeQuery::TwoDim(-1e9, 1e9, -1e9, 1e9);
  RTreeSampler sampler(tree.get(), query, 1);
  auto got = DrainRowIds(&sampler);
  EXPECT_EQ(got.size(), n);
  EXPECT_TRUE(AllDistinct(got));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeSizeSweep,
                         ::testing::Values(1, 2, 39, 40, 41, 1000, 5000));

}  // namespace
}  // namespace msv::rtree
