#include <algorithm>
#include <map>
#include <vector>

#include "btree/block_sampler.h"
#include "btree/btree_sampler.h"
#include "btree/ranked_btree.h"
#include "gtest/gtest.h"
#include "io/buffer_pool.h"
#include "io/env.h"
#include "relation/workload.h"
#include "test_util.h"
#include "util/stats.h"

namespace msv::btree {
namespace {

using msv::testing::AllDistinct;
using msv::testing::DrainRowIds;
using msv::testing::MakeSale;
using msv::testing::TakeRowIds;
using msv::testing::ValueOrDie;
using storage::HeapFile;
using storage::SaleRecord;

constexpr size_t kPageSize = 4096;  // small pages exercise multiple levels

class RankedBTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    MakeSale(env_.get(), "sale", kRecords, /*seed=*/21);
    BTreeOptions options;
    options.page_size = kPageSize;
    MSV_ASSERT_OK(BuildRankedBTree(env_.get(), "sale", "bt",
                                   SaleRecord::Layout1D(), options));
    pool_ = std::make_unique<io::BufferPool>(kPageSize, 256);
    tree_ = ValueOrDie(RankedBTree::Open(env_.get(), "bt",
                                         SaleRecord::Layout1D(), pool_.get(),
                                         /*file_id=*/1));
    // Oracle: all (key, row_id) sorted by key.
    auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
    auto scanner = sale->NewScanner();
    for (;;) {
      const char* rec = ValueOrDie(scanner.Next());
      if (rec == nullptr) break;
      auto r = SaleRecord::DecodeFrom(rec);
      sorted_.emplace_back(r.day, r.row_id);
    }
    std::sort(sorted_.begin(), sorted_.end());
  }

  static constexpr uint64_t kRecords = 20000;
  std::unique_ptr<io::Env> env_;
  std::unique_ptr<io::BufferPool> pool_;
  std::unique_ptr<RankedBTree> tree_;
  std::vector<std::pair<double, uint64_t>> sorted_;
};

TEST_F(RankedBTreeTest, MetaIsConsistent) {
  const BTreeMeta& meta = tree_->meta();
  EXPECT_EQ(meta.num_records, kRecords);
  EXPECT_GT(meta.height, 2u);  // multiple levels with 4 KB pages
  EXPECT_EQ(meta.num_leaves,
            (kRecords + meta.records_per_leaf - 1) / meta.records_per_leaf);
}

TEST_F(RankedBTreeTest, ReadByRankMatchesSortedOracle) {
  std::vector<char> rec(SaleRecord::kSize);
  for (uint64_t rank :
       std::vector<uint64_t>{0, 1, 57, 9999, kRecords - 1}) {
    MSV_ASSERT_OK(tree_->ReadByRank(rank, rec.data()));
    auto r = SaleRecord::DecodeFrom(rec.data());
    EXPECT_EQ(r.day, sorted_[rank].first) << "rank " << rank;
    EXPECT_EQ(r.row_id, sorted_[rank].second) << "rank " << rank;
  }
  EXPECT_TRUE(tree_->ReadByRank(kRecords, rec.data()).IsOutOfRange());
}

TEST_F(RankedBTreeTest, CountLessMatchesOracle) {
  for (double key : {0.0, 12345.6, 50000.0, 99999.9, 200000.0}) {
    uint64_t expected =
        std::lower_bound(sorted_.begin(), sorted_.end(),
                         std::make_pair(key, uint64_t{0})) -
        sorted_.begin();
    EXPECT_EQ(ValueOrDie(tree_->CountLess(key)), expected) << key;
  }
}

TEST_F(RankedBTreeTest, CountLessOrEqualAtExactKeys) {
  // Pick real keys; CountLE(key) - CountLT(key) == multiplicity (1 here).
  for (uint64_t rank : {10ull, 500ull, 19999ull}) {
    double key = sorted_[rank].first;
    uint64_t lt = ValueOrDie(tree_->CountLess(key));
    uint64_t le = ValueOrDie(tree_->CountLessOrEqual(key));
    EXPECT_EQ(le, lt + 1) << "key " << key;
    EXPECT_EQ(lt, rank);
  }
}

TEST_F(RankedBTreeTest, KeyAtRankIsMonotone) {
  double last = -1;
  for (uint64_t rank = 0; rank < kRecords; rank += 997) {
    double key = ValueOrDie(tree_->KeyAtRank(rank));
    EXPECT_GE(key, last);
    last = key;
  }
}

TEST_F(RankedBTreeTest, SamplerReturnsExactlyTheMatchSet) {
  auto layout = SaleRecord::Layout1D();
  auto query = sampling::RangeQuery::OneDim(25000, 35000);
  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  auto expected =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout, query));

  BTreeSampler sampler(tree_.get(), query, /*seed=*/5);
  auto got = DrainRowIds(&sampler);
  EXPECT_TRUE(AllDistinct(got));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(sampler.population(), expected.size());
}

TEST_F(RankedBTreeTest, SamplerRespectsPredicate) {
  auto query = sampling::RangeQuery::OneDim(60000, 61000);
  BTreeSampler sampler(tree_.get(), query, 6);
  auto layout = SaleRecord::Layout1D();
  while (!sampler.done()) {
    auto batch = ValueOrDie(sampler.NextBatch());
    for (size_t i = 0; i < batch.count(); ++i) {
      EXPECT_TRUE(query.Matches(layout, batch.record(i)));
    }
  }
}

TEST_F(RankedBTreeTest, EmptyRangeFinishesImmediately) {
  auto query = sampling::RangeQuery::OneDim(2e6, 3e6);
  BTreeSampler sampler(tree_.get(), query, 6);
  auto got = DrainRowIds(&sampler);
  EXPECT_TRUE(got.empty());
}

TEST_F(RankedBTreeTest, SamplerPrefixIsUniform) {
  auto layout = SaleRecord::Layout1D();
  auto query = sampling::RangeQuery::OneDim(40000, 44000);
  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  auto matching =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout, query));
  ASSERT_GT(matching.size(), 100u);
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < matching.size(); ++i) index[matching[i]] = i;

  const uint64_t kPrefix = 40;
  const int kTrials = 400;
  std::vector<uint64_t> counts(matching.size(), 0);
  for (int t = 0; t < kTrials; ++t) {
    BTreeSampler sampler(tree_.get(), query, /*seed=*/9000 + t);
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

TEST_F(RankedBTreeTest, BufferPoolMakesRepeatSamplingCheap) {
  auto query = sampling::RangeQuery::OneDim(10000, 12000);
  BTreeSampler sampler(tree_.get(), query, 3);
  DrainRowIds(&sampler);
  // Sampling again: the touched range is small enough to be fully
  // buffered, so a fresh pass over the same range is nearly all hits.
  const io::BufferPoolStats before = pool_->stats();
  BTreeSampler again(tree_.get(), query, 4);
  DrainRowIds(&again);
  EXPECT_GT((pool_->stats() - before).HitRate(), 0.95);
}

TEST_F(RankedBTreeTest, ReadLeafRecordsCoversTheTree) {
  std::string all;
  uint64_t total = 0;
  for (uint64_t leaf = 0; leaf < tree_->meta().num_leaves; ++leaf) {
    total += ValueOrDie(tree_->ReadLeafRecords(leaf, &all));
  }
  EXPECT_EQ(total, kRecords);
  EXPECT_EQ(all.size(), kRecords * SaleRecord::kSize);
  EXPECT_TRUE(tree_->ReadLeafRecords(tree_->meta().num_leaves, &all)
                  .status()
                  .IsOutOfRange());
}

TEST_F(RankedBTreeTest, BlockSamplerReturnsExactlyTheMatchSet) {
  auto layout = SaleRecord::Layout1D();
  auto query = sampling::RangeQuery::OneDim(30000, 50000);
  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  auto expected =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout, query));
  BlockSampler sampler(tree_.get(), query, 5);
  auto got = DrainRowIds(&sampler);
  EXPECT_TRUE(AllDistinct(got));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  // Far fewer page reads than records returned — the block advantage.
  EXPECT_LT(sampler.pages_read(), expected.size() / 10);
}

TEST_F(RankedBTreeTest, BlockSamplerPageUniformity) {
  // Each pull is a whole page; over trials every covered page should be
  // drawn first equally often.
  auto query = sampling::RangeQuery::OneDim(10000, 90000);
  std::map<uint64_t, uint64_t> first_page_counts;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    BlockSampler sampler(tree_.get(), query, 4000 + t);
    MSV_ASSERT_OK(sampler.NextBatch().status());  // init
    auto batch = ValueOrDie(sampler.NextBatch());
    ASSERT_GT(batch.count(), 0u);
    // Identify the page by its first record's row id.
    ++first_page_counts[SaleRecord::DecodeFrom(batch.record(0)).row_id];
  }
  // No page should dominate: with ~P pages, max count ~ trials/P plus
  // noise.
  uint64_t max_count = 0;
  for (const auto& [_, count] : first_page_counts) {
    max_count = std::max(max_count, count);
  }
  EXPECT_GT(first_page_counts.size(), 50u);
  EXPECT_LT(max_count, 25u);
}

TEST_F(RankedBTreeTest, BlockSamplerEmptyRange) {
  auto query = sampling::RangeQuery::OneDim(2e6, 3e6);
  BlockSampler sampler(tree_.get(), query, 5);
  EXPECT_TRUE(DrainRowIds(&sampler).empty());
}

// Parameterized: trees built over different relation sizes all verify.
class BTreeSizeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeSizeSweep, BuildAndFullValidate) {
  const uint64_t n = GetParam();
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", n, 31);
  BTreeOptions options;
  options.page_size = 4096;
  MSV_ASSERT_OK(BuildRankedBTree(env.get(), "sale", "bt",
                                 SaleRecord::Layout1D(), options));
  io::BufferPool pool(4096, 64);
  auto tree = ValueOrDie(RankedBTree::Open(env.get(), "bt",
                                           SaleRecord::Layout1D(), &pool, 1));
  EXPECT_EQ(tree->meta().num_records, n);
  // Every rank readable, keys monotone.
  std::vector<char> rec(SaleRecord::kSize);
  double last = -1;
  for (uint64_t r = 0; r < n; ++r) {
    MSV_ASSERT_OK(tree->ReadByRank(r, rec.data()));
    double key = SaleRecord::Layout1D().Key(rec.data(), 0);
    ASSERT_GE(key, last) << "rank " << r;
    last = key;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeSizeSweep,
                         ::testing::Values(1, 2, 39, 40, 41, 1000, 5000));

}  // namespace
}  // namespace msv::btree
