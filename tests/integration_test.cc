// End-to-end integration: all samplers over the same relation through the
// simulated disk, verifying both agreement (identical match sets) and the
// paper's headline performance ordering at low selectivity.

#include <algorithm>
#include <memory>

#include "btree/btree_sampler.h"
#include "btree/ranked_btree.h"
#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/buffer_pool.h"
#include "io/disk_model.h"
#include "io/env.h"
#include "permuted/permuted_file.h"
#include "relation/workload.h"
#include "rtree/rtree.h"
#include "rtree/rtree_sampler.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace msv {
namespace {

using msv::testing::AllDistinct;
using msv::testing::DrainRowIds;
using msv::testing::MakeSale;
using msv::testing::ValueOrDie;
using storage::HeapFile;
using storage::SaleRecord;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    MakeSale(env_.get(), "sale", kRecords, 7);
    layout_ = SaleRecord::Layout1D();
    core::AceBuildOptions ace;
    ace.page_size = kPage;
    MSV_ASSERT_OK(core::BuildAceTree(env_.get(), "sale", "ace", layout_, ace));
    btree::BTreeOptions bt;
    bt.page_size = kPage;
    MSV_ASSERT_OK(
        btree::BuildRankedBTree(env_.get(), "sale", "bt", layout_, bt));
    MSV_ASSERT_OK(permuted::BuildPermutedFile(env_.get(), "sale", "perm"));
  }

  static constexpr uint64_t kRecords = 100'000;
  static constexpr size_t kPage = 64 << 10;  // the paper's page size
  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
};

TEST_F(IntegrationTest, AllSamplersAgreeOnTheMatchSet) {
  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  relation::WorkloadGenerator gen({{0.0, 100000.0}}, 3);
  for (double sel : {0.003, 0.08}) {
    auto q = gen.Query(sel, 1);
    auto expected =
        ValueOrDie(relation::CollectMatchingRowIds(*sale, layout_, q));

    auto tree = ValueOrDie(core::AceTree::Open(env_.get(), "ace", layout_));
    core::AceSampler ace(tree.get(), q, 1);
    auto ace_ids = DrainRowIds(&ace);
    std::sort(ace_ids.begin(), ace_ids.end());
    EXPECT_EQ(ace_ids, expected);

    io::BufferPool pool(kPage, 64);
    auto bt = ValueOrDie(
        btree::RankedBTree::Open(env_.get(), "bt", layout_, &pool, 1));
    btree::BTreeSampler btree_sampler(bt.get(), q, 2);
    auto bt_ids = DrainRowIds(&btree_sampler);
    std::sort(bt_ids.begin(), bt_ids.end());
    EXPECT_EQ(bt_ids, expected);

    auto perm = ValueOrDie(HeapFile::Open(env_.get(), "perm"));
    permuted::PermutedFileSampler perm_sampler(perm.get(), layout_, q);
    auto perm_ids = DrainRowIds(&perm_sampler);
    std::sort(perm_ids.begin(), perm_ids.end());
    EXPECT_EQ(perm_ids, expected);
  }
}

TEST_F(IntegrationTest, AceBeatsPermutedFileEarlyAtLowSelectivity) {
  // The headline claim (Fig. 11): at 0.25% selectivity the ACE tree
  // returns far more samples than a permuted-file scan in the same
  // simulated I/O time budget.
  auto q = sampling::RangeQuery::OneDim(40000, 40250);  // 0.25% of domain

  auto run = [&](auto make_sampler) -> uint64_t {
    auto device = std::make_shared<io::DiskDevice>();
    auto timed = io::NewSimEnv(env_.get(), device);
    auto sampler = make_sampler(timed.get(), device);
    double budget =
        device->SequentialScanMs(kRecords * SaleRecord::kSize) * 0.04;
    device->clock().Reset();
    while (!sampler->done() && device->clock().NowMs() < budget) {
      MSV_EXPECT_OK(sampler->NextBatch().status());
    }
    return sampler->samples_returned();
  };

  uint64_t ace_samples = run([&](io::Env* timed, auto device) {
    (void)device;
    auto tree = ValueOrDie(core::AceTree::Open(timed, "ace", layout_));
    struct Holder : sampling::SampleStream {
      std::unique_ptr<core::AceTree> tree;
      std::unique_ptr<core::AceSampler> inner;
      Result<sampling::SampleBatch> NextBatch() override {
        return inner->NextBatch();
      }
      bool done() const override { return inner->done(); }
      uint64_t samples_returned() const override {
        return inner->samples_returned();
      }
      std::string name() const override { return inner->name(); }
    };
    auto h = std::make_unique<Holder>();
    h->tree = std::move(tree);
    h->inner = std::make_unique<core::AceSampler>(h->tree.get(), q, 5);
    return h;
  });

  uint64_t perm_samples = run([&](io::Env* timed, auto device) {
    (void)device;
    auto file = ValueOrDie(HeapFile::Open(timed, "perm"));
    struct Holder : sampling::SampleStream {
      std::unique_ptr<HeapFile> file;
      std::unique_ptr<permuted::PermutedFileSampler> inner;
      Result<sampling::SampleBatch> NextBatch() override {
        return inner->NextBatch();
      }
      bool done() const override { return inner->done(); }
      uint64_t samples_returned() const override {
        return inner->samples_returned();
      }
      std::string name() const override { return inner->name(); }
    };
    auto h = std::make_unique<Holder>();
    h->file = std::move(file);
    h->inner = std::make_unique<permuted::PermutedFileSampler>(
        h->file.get(), layout_, q);
    return h;
  });

  EXPECT_GT(ace_samples, 3 * perm_samples)
      << "ace=" << ace_samples << " permuted=" << perm_samples;
}

TEST_F(IntegrationTest, SamplersAreDeterministicGivenSeeds) {
  auto q = sampling::RangeQuery::OneDim(20000, 60000);
  auto tree = ValueOrDie(core::AceTree::Open(env_.get(), "ace", layout_));
  core::AceSampler a(tree.get(), q, 42), b(tree.get(), q, 42);
  auto ids_a = DrainRowIds(&a);
  auto ids_b = DrainRowIds(&b);
  EXPECT_EQ(ids_a, ids_b);

  io::BufferPool pool(kPage, 64);
  auto bt = ValueOrDie(
      btree::RankedBTree::Open(env_.get(), "bt", layout_, &pool, 1));
  btree::BTreeSampler s1(bt.get(), q, 42, 8), s2(bt.get(), q, 42, 8);
  EXPECT_EQ(DrainRowIds(&s1), DrainRowIds(&s2));
}

TEST_F(IntegrationTest, TwoDimStackAgrees) {
  auto layout2 = SaleRecord::Layout2D();
  core::AceBuildOptions ace;
  ace.key_dims = 2;
  ace.page_size = kPage;
  MSV_ASSERT_OK(
      core::BuildAceTree(env_.get(), "sale", "ace2", layout2, ace));
  rtree::RTreeOptions rt;
  rt.page_size = kPage;
  MSV_ASSERT_OK(rtree::BuildRTree(env_.get(), "sale", "rt", layout2, rt));

  auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  auto q = sampling::RangeQuery::TwoDim(20000, 50000, 2000, 5000);
  auto expected =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout2, q));

  auto tree = ValueOrDie(core::AceTree::Open(env_.get(), "ace2", layout2));
  core::AceSampler ace_sampler(tree.get(), q, 4);
  auto ace_ids = DrainRowIds(&ace_sampler);
  std::sort(ace_ids.begin(), ace_ids.end());
  EXPECT_EQ(ace_ids, expected);

  io::BufferPool pool(kPage, 64);
  auto rtree_ptr =
      ValueOrDie(rtree::RTree::Open(env_.get(), "rt", layout2, &pool, 9));
  rtree::RTreeSampler rt_sampler(rtree_ptr.get(), q, 4);
  auto rt_ids = DrainRowIds(&rt_sampler);
  std::sort(rt_ids.begin(), rt_ids.end());
  EXPECT_EQ(rt_ids, expected);
}

}  // namespace
}  // namespace msv
