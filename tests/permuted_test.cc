#include <algorithm>
#include <map>
#include <vector>

#include "gtest/gtest.h"
#include "io/env.h"
#include "permuted/permuted_file.h"
#include "relation/workload.h"
#include "test_util.h"
#include "util/stats.h"

namespace msv::permuted {
namespace {

using msv::testing::AllDistinct;
using msv::testing::DrainRowIds;
using msv::testing::MakeSale;
using msv::testing::TakeRowIds;
using msv::testing::ValueOrDie;
using storage::HeapFile;
using storage::SaleRecord;

class PermutedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    MakeSale(env_.get(), "sale", kRecords, /*seed=*/11);
  }

  static constexpr uint64_t kRecords = 4000;
  std::unique_ptr<io::Env> env_;
};

TEST_F(PermutedFileTest, PreservesMultisetOfRecords) {
  PermuteOptions options;
  options.seed = 3;
  MSV_ASSERT_OK(BuildPermutedFile(env_.get(), "sale", "perm", options));
  auto perm = ValueOrDie(HeapFile::Open(env_.get(), "perm"));
  ASSERT_EQ(perm->record_count(), kRecords);
  ASSERT_EQ(perm->record_size(), SaleRecord::kSize);

  std::vector<uint64_t> ids;
  auto scanner = perm->NewScanner();
  for (;;) {
    const char* rec = ValueOrDie(scanner.Next());
    if (rec == nullptr) break;
    ids.push_back(SaleRecord::DecodeFrom(rec).row_id);
  }
  ASSERT_EQ(ids.size(), kRecords);
  EXPECT_TRUE(AllDistinct(ids));
  auto sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted.front(), 0u);
  EXPECT_EQ(sorted.back(), kRecords - 1);
  // And the order is actually permuted, not identity.
  EXPECT_NE(ids, sorted);
}

TEST_F(PermutedFileTest, DifferentSeedsGiveDifferentOrders) {
  PermuteOptions a, b;
  a.seed = 1;
  b.seed = 2;
  MSV_ASSERT_OK(BuildPermutedFile(env_.get(), "sale", "pa", a));
  MSV_ASSERT_OK(BuildPermutedFile(env_.get(), "sale", "pb", b));
  auto fa = ValueOrDie(HeapFile::Open(env_.get(), "pa"));
  auto fb = ValueOrDie(HeapFile::Open(env_.get(), "pb"));
  char ra[SaleRecord::kSize], rb[SaleRecord::kSize];
  int diff = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    MSV_ASSERT_OK(fa->ReadRecord(i, ra));
    MSV_ASSERT_OK(fb->ReadRecord(i, rb));
    diff += SaleRecord::DecodeFrom(ra).row_id != SaleRecord::DecodeFrom(rb).row_id;
  }
  EXPECT_GT(diff, 90);
}

TEST_F(PermutedFileTest, SamplerReturnsExactlyTheMatchSet) {
  MSV_ASSERT_OK(BuildPermutedFile(env_.get(), "sale", "perm", {}));
  auto perm = ValueOrDie(HeapFile::Open(env_.get(), "perm"));
  auto layout = SaleRecord::Layout1D();
  auto query = sampling::RangeQuery::OneDim(20000, 45000);

  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  auto expected =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout, query));

  // 4000 records of 100 bytes span several 128 KiB pulls.
  PermutedFileSampler sampler(perm.get(), layout, query);
  auto got = DrainRowIds(&sampler);
  EXPECT_EQ(sampler.samples_returned(), got.size());
  EXPECT_EQ(sampler.records_scanned(), kRecords);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST_F(PermutedFileTest, SamplerNeverReturnsNonMatching) {
  MSV_ASSERT_OK(BuildPermutedFile(env_.get(), "sale", "perm", {}));
  auto perm = ValueOrDie(HeapFile::Open(env_.get(), "perm"));
  auto layout = SaleRecord::Layout1D();
  auto query = sampling::RangeQuery::OneDim(10000, 11000);
  PermutedFileSampler sampler(perm.get(), layout, query);
  while (!sampler.done()) {
    auto batch = ValueOrDie(sampler.NextBatch());
    for (size_t i = 0; i < batch.count(); ++i) {
      EXPECT_TRUE(query.Matches(layout, batch.record(i)));
    }
  }
}

TEST_F(PermutedFileTest, EmptyQueryRangeYieldsNothing) {
  MSV_ASSERT_OK(BuildPermutedFile(env_.get(), "sale", "perm", {}));
  auto perm = ValueOrDie(HeapFile::Open(env_.get(), "perm"));
  auto layout = SaleRecord::Layout1D();
  auto query = sampling::RangeQuery::OneDim(2e6, 3e6);  // outside domain
  PermutedFileSampler sampler(perm.get(), layout, query);
  auto got = DrainRowIds(&sampler);
  EXPECT_TRUE(got.empty());
}

// Statistical property: the first k samples are a uniform random subset of
// the match set. We rebuild the permuted file with many seeds and count
// per-record inclusion frequencies.
TEST_F(PermutedFileTest, PrefixIsUniformSample) {
  auto layout = storage::SaleRecord::Layout1D();
  auto query = sampling::RangeQuery::OneDim(30000, 70000);
  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  auto matching =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout, query));
  ASSERT_GT(matching.size(), 100u);
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < matching.size(); ++i) index[matching[i]] = i;

  const uint64_t kPrefix = 50;
  const int kTrials = 150;
  std::vector<uint64_t> counts(matching.size(), 0);
  for (int t = 0; t < kTrials; ++t) {
    PermuteOptions options;
    options.seed = 1000 + t;
    MSV_ASSERT_OK(BuildPermutedFile(env_.get(), "sale", "ptrial", options));
    auto perm = ValueOrDie(HeapFile::Open(env_.get(), "ptrial"));
    PermutedFileSampler sampler(perm.get(), layout, query);
    auto prefix = TakeRowIds(&sampler, kPrefix);
    ASSERT_GE(prefix.size(), kPrefix);
    prefix.resize(kPrefix);  // batches may overshoot; keep an exact prefix
    for (uint64_t id : prefix) {
      ++counts[index.at(id)];
    }
  }
  double expected_each =
      double(kPrefix) * kTrials / double(matching.size());
  std::vector<double> expected(matching.size(), expected_each);
  double stat = ChiSquareStatistic(counts, expected);
  EXPECT_GT(ChiSquarePValue(stat, matching.size() - 1), 1e-5)
      << "stat=" << stat << " dof=" << matching.size() - 1;
}

}  // namespace
}  // namespace msv::permuted
