// Failure injection: corrupted, truncated and mismatched files must be
// rejected with Corruption/InvalidArgument — never a crash or a silently
// wrong sample.

#include <string>

#include "btree/ranked_btree.h"
#include "core/ace_builder.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/buffer_pool.h"
#include "io/env.h"
#include "rtree/rtree.h"
#include "test_util.h"
#include "util/coding.h"

namespace msv {
namespace {

using msv::testing::MakeSale;
using msv::testing::ValueOrDie;
using storage::SaleRecord;

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    MakeSale(env_.get(), "sale", 5000, 3);
    core::AceBuildOptions ace;
    ace.height = 4;
    MSV_ASSERT_OK(core::BuildAceTree(env_.get(), "sale", "ace",
                                     SaleRecord::Layout1D(), ace));
    btree::BTreeOptions bt;
    bt.page_size = 4096;
    MSV_ASSERT_OK(btree::BuildRankedBTree(env_.get(), "sale", "bt",
                                          SaleRecord::Layout1D(), bt));
    rtree::RTreeOptions rt;
    rt.page_size = 4096;
    MSV_ASSERT_OK(rtree::BuildRTree(env_.get(), "sale", "rt",
                                    SaleRecord::Layout2D(), rt));
  }

  void Clobber(const std::string& name, uint64_t offset,
               const std::string& bytes) {
    auto file = ValueOrDie(env_->OpenFile(name, false));
    MSV_ASSERT_OK(file->Write(offset, bytes.data(), bytes.size()));
  }

  void TruncateTo(const std::string& name, uint64_t size) {
    // MemEnv supports shrink.
    auto file = ValueOrDie(env_->OpenFile(name, false));
    MSV_ASSERT_OK(file->Truncate(size));
  }

  std::unique_ptr<io::Env> env_;
};

// ---------------------------------------------------------------------------
// ACE tree
// ---------------------------------------------------------------------------

TEST_F(FailureInjectionTest, AceBadMagic) {
  Clobber("ace", 0, "NOTATREE");
  auto r = core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(FailureInjectionTest, AceTruncatedDirectory) {
  TruncateTo("ace", 600);  // superblock survives, directory does not
  auto r = core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError() || r.status().IsCorruption());
}

TEST_F(FailureInjectionTest, AceTruncatedLeafRegion) {
  auto tree = ValueOrDie(
      core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D()));
  uint64_t cut = tree->meta().data_offset + 100;
  tree.reset();
  TruncateTo("ace", cut);
  auto reopened = ValueOrDie(
      core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D()));
  // Early leaves may still read; the last leaf must fail cleanly.
  auto r = reopened->ReadLeaf(reopened->meta().num_leaves - 1,
                              reopened->meta().height);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError() || r.status().IsCorruption());
}

TEST_F(FailureInjectionTest, AceCorruptLeafHeader) {
  auto tree = ValueOrDie(
      core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D()));
  uint64_t off = tree->meta().data_offset;
  tree.reset();
  char bad[4];
  EncodeFixed32(bad, 999999);  // leaf id that cannot match
  Clobber("ace", off, std::string(bad, 4));
  auto reopened = ValueOrDie(
      core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D()));
  auto r = reopened->ReadLeaf(0, reopened->meta().height);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(FailureInjectionTest, AceBitFlipInLeafPayloadDetected) {
  // A single flipped byte anywhere in a leaf must trip the leaf checksum.
  auto tree = ValueOrDie(
      core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D()));
  uint64_t off = tree->meta().data_offset + 200;  // inside leaf 0's records
  tree.reset();
  Clobber("ace", off, "\x01");
  auto reopened = ValueOrDie(
      core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D()));
  auto r = reopened->ReadLeaf(0, reopened->meta().height);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
  EXPECT_NE(std::string(r.status().message()).find("checksum"),
            std::string::npos);
}

TEST_F(FailureInjectionTest, AceSuperblockBitFlipDetected) {
  Clobber("ace", 40, "\x01");  // inside num_records
  auto r = core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(FailureInjectionTest, AceWrongLayoutRejected) {
  storage::RecordLayout wrong{64, {0}};
  auto r = core::AceTree::Open(env_.get(), "ace", wrong);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(FailureInjectionTest, AceHeightLeafCountMismatch) {
  // Flip the stored height; leaf count check must fire.
  char enc[4];
  EncodeFixed32(enc, 7);
  Clobber("ace", 24, std::string(enc, 4));
  auto r = core::AceTree::Open(env_.get(), "ace", SaleRecord::Layout1D());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(FailureInjectionTest, AceMissingFile) {
  auto r = core::AceTree::Open(env_.get(), "nope", SaleRecord::Layout1D());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Ranked B+-tree
// ---------------------------------------------------------------------------

TEST_F(FailureInjectionTest, BTreeBadMagic) {
  Clobber("bt", 0, "XXXXXXXX");
  io::BufferPool pool(4096, 16);
  auto r = btree::RankedBTree::Open(env_.get(), "bt",
                                    SaleRecord::Layout1D(), &pool, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(FailureInjectionTest, BTreePoolPageSizeMismatch) {
  io::BufferPool pool(8192, 16);  // tree was built with 4096
  auto r = btree::RankedBTree::Open(env_.get(), "bt",
                                    SaleRecord::Layout1D(), &pool, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(FailureInjectionTest, BTreeCorruptInternalPageType) {
  io::BufferPool pool(4096, 16);
  auto tree = ValueOrDie(btree::RankedBTree::Open(
      env_.get(), "bt", SaleRecord::Layout1D(), &pool, 1));
  uint64_t root_off = tree->meta().root_page * tree->meta().page_size;
  tree.reset();
  Clobber("bt", root_off, std::string(1, '\x7f'));
  io::BufferPool pool2(4096, 16);
  auto reopened = ValueOrDie(btree::RankedBTree::Open(
      env_.get(), "bt", SaleRecord::Layout1D(), &pool2, 2));
  std::vector<char> rec(SaleRecord::kSize);
  auto st = reopened->ReadByRank(0, rec.data());
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption());
}

// ---------------------------------------------------------------------------
// R-tree
// ---------------------------------------------------------------------------

TEST_F(FailureInjectionTest, RTreeBadMagic) {
  Clobber("rt", 0, "YYYYYYYY");
  io::BufferPool pool(4096, 16);
  auto r = rtree::RTree::Open(env_.get(), "rt", SaleRecord::Layout2D(),
                              &pool, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(FailureInjectionTest, RTreeReadBeyondLeafCount) {
  io::BufferPool pool(4096, 16);
  auto tree = ValueOrDie(rtree::RTree::Open(
      env_.get(), "rt", SaleRecord::Layout2D(), &pool, 1));
  auto q = sampling::RangeQuery::TwoDim(-1e9, 1e9, -1e9, 1e9);
  auto runs = ValueOrDie(tree->CollectCandidates(q));
  ASSERT_FALSE(runs.empty());
  std::vector<char> rec(SaleRecord::kSize);
  auto st = tree->ReadRecordAt(runs[0].page, runs[0].count, rec.data());
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfRange());
}

}  // namespace
}  // namespace msv
