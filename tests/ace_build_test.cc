#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "relation/workload.h"
#include "test_util.h"

namespace msv::core {
namespace {

using msv::testing::MakeSale;
using msv::testing::ValueOrDie;
using storage::HeapFile;
using storage::SaleRecord;

TEST(ChooseHeightTest, ExpectedLeafFitsOnePage) {
  // 1000 records x 100 B = 100 KB; with 64 KB pages we need F = 2 -> h = 2.
  EXPECT_EQ(ChooseHeight(1000, 100, 64 << 10), 2u);
  // Tiny relation: single leaf.
  EXPECT_EQ(ChooseHeight(10, 100, 64 << 10), 1u);
  // 1M records x 100 B = 100 MB; F = 2048 -> h = 12.
  EXPECT_EQ(ChooseHeight(1'000'000, 100, 64 << 10), 12u);
  // Boundary: exactly F * page.
  EXPECT_EQ(ChooseHeight(1310720, 100, 64 << 10), 12u);  // 2^11 * 64KB
}

TEST(AceBuildOptionsTest, Validation) {
  auto layout = SaleRecord::Layout1D();
  AceBuildOptions options;
  MSV_EXPECT_OK(options.Validate(layout));
  options.key_dims = 2;  // layout only has one key dim
  EXPECT_TRUE(options.Validate(layout).IsInvalidArgument());
  options = AceBuildOptions();
  options.page_size = 64;
  EXPECT_TRUE(options.Validate(layout).IsInvalidArgument());
  options = AceBuildOptions();
  options.height = 50;
  EXPECT_TRUE(options.Validate(layout).IsInvalidArgument());
}

TEST(AceBuildTest, RejectsEmptyInput) {
  auto env = io::NewMemEnv();
  auto writer = ValueOrDie(
      storage::HeapFileWriter::Create(env.get(), "empty", SaleRecord::kSize));
  MSV_ASSERT_OK(writer->Finish());
  EXPECT_TRUE(BuildAceTree(env.get(), "empty", "ace", SaleRecord::Layout1D())
                  .IsInvalidArgument());
}

// Shared fixture: a tree built over a known relation plus an oracle map
// row_id -> keys.
class AceBuildFixture : public ::testing::Test {
 protected:
  void Build(uint64_t n, uint32_t height, uint32_t dims, uint64_t seed) {
    env_ = io::NewMemEnv();
    MakeSale(env_.get(), "sale", n, seed);
    layout_ =
        dims == 1 ? SaleRecord::Layout1D() : SaleRecord::Layout2D();
    AceBuildOptions options;
    options.height = height;
    options.key_dims = dims;
    options.seed = seed + 1;
    MSV_ASSERT_OK(
        BuildAceTree(env_.get(), "sale", "ace", layout_, options, &metrics_));
    tree_ = ValueOrDie(AceTree::Open(env_.get(), "ace", layout_));

    auto sale = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
    auto scanner = sale->NewScanner();
    for (;;) {
      const char* rec = ValueOrDie(scanner.Next());
      if (rec == nullptr) break;
      auto r = SaleRecord::DecodeFrom(rec);
      oracle_[r.row_id] = {r.day, r.amount};
    }
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  AceBuildMetrics metrics_;
  std::unique_ptr<AceTree> tree_;
  std::map<uint64_t, std::pair<double, double>> oracle_;
};

class AceBuildInvariants
    : public AceBuildFixture,
      public ::testing::WithParamInterface<
          std::tuple<uint64_t /*n*/, uint32_t /*height*/, uint32_t /*dims*/>> {
 protected:
  void SetUp() override {
    auto [n, height, dims] = GetParam();
    Build(n, height, dims, /*seed=*/n + height * 10 + dims);
  }
};

TEST_P(AceBuildInvariants, MetaMatchesRequest) {
  auto [n, height, dims] = GetParam();
  EXPECT_EQ(tree_->meta().num_records, n);
  EXPECT_EQ(tree_->meta().height, height);
  EXPECT_EQ(tree_->meta().num_leaves, 1ull << (height - 1));
  EXPECT_EQ(tree_->meta().key_dims, dims);
  EXPECT_EQ(metrics_.records, n);
}

TEST_P(AceBuildInvariants, EveryRecordStoredExactlyOnce) {
  auto [n, height, dims] = GetParam();
  (void)height;
  (void)dims;
  std::set<uint64_t> seen;
  uint64_t total = 0;
  for (uint64_t leaf = 0; leaf < tree_->meta().num_leaves; ++leaf) {
    LeafData data =
        ValueOrDie(tree_->ReadLeaf(leaf, tree_->meta().height));
    EXPECT_EQ(data.leaf_index, leaf);
    for (uint32_t s = 1; s <= tree_->meta().height; ++s) {
      for (size_t i = 0; i < data.SectionCount(s); ++i) {
        auto rec = SaleRecord::DecodeFrom(data.SectionRecord(s, i));
        EXPECT_TRUE(seen.insert(rec.row_id).second)
            << "duplicate row " << rec.row_id;
        ++total;
      }
    }
  }
  EXPECT_EQ(total, n);
  EXPECT_EQ(seen.size(), n);
}

TEST_P(AceBuildInvariants, SectionsRespectAncestorBoxes) {
  // Paper property: L.S_i holds only records whose keys fall inside the
  // box of L's level-i ancestor (and the boxes are nested by construction).
  const SplitTree& splits = tree_->splits();
  for (uint64_t leaf = 0; leaf < tree_->meta().num_leaves; ++leaf) {
    LeafData data =
        ValueOrDie(tree_->ReadLeaf(leaf, tree_->meta().height));
    uint64_t heap_id = splits.LeafHeapId(leaf);
    for (uint32_t s = 1; s <= tree_->meta().height; ++s) {
      Box box = splits.BoxOf(SplitTree::AncestorAtLevel(heap_id, s));
      for (size_t i = 0; i < data.SectionCount(s); ++i) {
        const char* rec = data.SectionRecord(s, i);
        for (uint32_t d = 0; d < tree_->meta().key_dims; ++d) {
          double key = layout_.Key(rec, d);
          ASSERT_GE(key, box.lo[d]) << "leaf " << leaf << " section " << s;
          ASSERT_LT(key, box.hi[d]) << "leaf " << leaf << " section " << s;
        }
      }
    }
  }
}

TEST_P(AceBuildInvariants, NodeCountsAreExact) {
  // cnt_l / cnt_r must equal the true number of records in each child box.
  auto [n, height, dims] = GetParam();
  (void)n;
  (void)dims;
  const SplitTree& splits = tree_->splits();
  // Count records per finest cell from the oracle.
  std::vector<uint64_t> cells(tree_->meta().num_leaves, 0);
  for (const auto& [row, keys] : oracle_) {
    double kv[2] = {keys.first, keys.second};
    ++cells[splits.CellOf(kv)];
  }
  for (uint64_t id = 1; id < 2 * tree_->meta().num_leaves; ++id) {
    auto [lo, hi] = splits.LeavesUnder(id);
    uint64_t expected = 0;
    for (uint64_t c = lo; c < hi; ++c) expected += cells[c];
    EXPECT_EQ(tree_->NodeCount(id), expected) << "node " << id;
  }
  (void)height;
}

TEST_P(AceBuildInvariants, ExponentialityOfCounts) {
  // Each split is a (sample) median: children counts are near-equal, so
  // counts decay by ~2x per level (paper Sec. 4.3).
  auto [n, height, dims] = GetParam();
  (void)height;
  for (uint64_t id = 1; id < tree_->meta().num_leaves; ++id) {
    uint64_t total = tree_->NodeCount(id);
    if (total < 32) continue;  // ratios are noisy at tiny counts
    uint64_t left = tree_->NodeCount(2 * id);
    uint64_t right = tree_->NodeCount(2 * id + 1);
    EXPECT_EQ(left + right, total);
    double balance =
        static_cast<double>(std::max(left, right)) / static_cast<double>(total);
    // 1-d splits are exact medians; k-d splits come from a sample (exact
    // here because the sample covers the input, but boundary effects and
    // duplicates leave slack).
    EXPECT_LE(balance, dims == 1 ? 0.51 : 0.60)
        << "node " << id << " of " << n;
  }
}

TEST_P(AceBuildInvariants, SectionSizesMatchLemma2) {
  // E[mu] = N / (h * 2^(h-1)); the grand mean across all (leaf, section)
  // pairs should be close for non-trivial N.
  auto [n, height, dims] = GetParam();
  (void)dims;
  if (n < 1000) return;
  double expected =
      static_cast<double>(n) /
      (static_cast<double>(height) * static_cast<double>(1ull << (height - 1)));
  uint64_t total = 0;
  uint64_t sections = 0;
  for (uint64_t leaf = 0; leaf < tree_->meta().num_leaves; ++leaf) {
    LeafData data =
        ValueOrDie(tree_->ReadLeaf(leaf, tree_->meta().height));
    for (uint32_t s = 1; s <= height; ++s) {
      total += data.SectionCount(s);
      ++sections;
    }
  }
  double mean = static_cast<double>(total) / static_cast<double>(sections);
  EXPECT_NEAR(mean, expected, expected * 0.02);  // exact: totals are fixed
  // Per-section totals across leaves: each section level holds ~N/h.
  std::vector<uint64_t> per_level(height, 0);
  for (uint64_t leaf = 0; leaf < tree_->meta().num_leaves; ++leaf) {
    LeafData data =
        ValueOrDie(tree_->ReadLeaf(leaf, tree_->meta().height));
    for (uint32_t s = 1; s <= height; ++s) {
      per_level[s - 1] += data.SectionCount(s);
    }
  }
  for (uint32_t s = 0; s < height; ++s) {
    double frac = static_cast<double>(per_level[s]) / static_cast<double>(n);
    EXPECT_NEAR(frac, 1.0 / height, 0.35 / height) << "level " << s + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AceBuildInvariants,
    ::testing::Values(std::make_tuple(uint64_t{100}, 1u, 1u),
                      std::make_tuple(uint64_t{500}, 3u, 1u),
                      std::make_tuple(uint64_t{5000}, 4u, 1u),
                      std::make_tuple(uint64_t{20000}, 6u, 1u),
                      std::make_tuple(uint64_t{5000}, 4u, 2u),
                      std::make_tuple(uint64_t{20000}, 5u, 2u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_h" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param));
    });

TEST(AceBuildTest, AutoHeightProducesPageSizedLeaves) {
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", 50000, 5);
  AceBuildOptions options;
  options.page_size = 16 << 10;
  MSV_ASSERT_OK(
      BuildAceTree(env.get(), "sale", "ace", SaleRecord::Layout1D(), options));
  auto tree = ValueOrDie(
      AceTree::Open(env.get(), "ace", SaleRecord::Layout1D()));
  // Expected leaf bytes = N * 100 / F <= 16 KB, and > 8 KB (tightest F).
  double expected_leaf_bytes =
      50000.0 * 100.0 / static_cast<double>(tree->meta().num_leaves);
  EXPECT_LE(expected_leaf_bytes, 16 << 10);
  EXPECT_GT(expected_leaf_bytes, 8 << 10);
}

TEST(AceBuildTest, ConstructionUsesTwoExternalSorts) {
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", 10000, 9);
  AceBuildOptions options;
  options.height = 5;
  AceBuildMetrics metrics;
  MSV_ASSERT_OK(BuildAceTree(env.get(), "sale", "ace",
                             SaleRecord::Layout1D(), options, &metrics));
  EXPECT_EQ(metrics.phase1_sort.records, 10000u);
  EXPECT_EQ(metrics.phase2_sort.records, 10000u);
  // Both sorts fit the default budget: one run each, written straight to
  // its output with no merge.
  EXPECT_EQ(metrics.phase1_sort.merge_passes, 0u);
  EXPECT_EQ(metrics.phase2_sort.merge_passes, 0u);
  // Temp files cleaned up: only "sale" and "ace" remain.
  auto files = ValueOrDie(env->ListFiles());
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"ace", "sale"}));

  // A budget of a tenth of the input makes both sorts external: several
  // runs and a merge, phase 2b's in place. Scratch still goes.
  auto small_env = io::NewMemEnv();
  MakeSale(small_env.get(), "sale", 10000, 9);
  options.sort.memory_budget_bytes = 1000 * SaleRecord::kSize;
  MSV_ASSERT_OK(BuildAceTree(small_env.get(), "sale", "ace",
                             SaleRecord::Layout1D(), options, &metrics));
  EXPECT_GE(metrics.phase1_sort.initial_runs, 3u);
  EXPECT_GE(metrics.phase2_sort.initial_runs, 3u);
  EXPECT_GE(metrics.phase2_sort.merge_passes, 1u);
  files = ValueOrDie(small_env->ListFiles());
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"ace", "sale"}));
  auto tree =
      ValueOrDie(AceTree::Open(small_env.get(), "ace", SaleRecord::Layout1D()));
  MSV_EXPECT_OK(tree->CheckInvariants().ToStatus());
}

TEST(AceBuildTest, SpaceOverheadIsSmall) {
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", 50000, 13);
  AceBuildMetrics metrics;
  AceBuildOptions options;
  MSV_ASSERT_OK(BuildAceTree(env.get(), "sale", "ace",
                             SaleRecord::Layout1D(), options, &metrics));
  // Paper: "only a very small space overhead beyond the data records".
  EXPECT_LT(static_cast<double>(metrics.overhead_bytes),
            0.05 * 50000 * SaleRecord::kSize);
}

TEST(AceBuildTest, DeterministicForSeed) {
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", 2000, 17);
  AceBuildOptions options;
  options.height = 4;
  options.seed = 5;
  MSV_ASSERT_OK(
      BuildAceTree(env.get(), "sale", "a1", SaleRecord::Layout1D(), options));
  MSV_ASSERT_OK(
      BuildAceTree(env.get(), "sale", "a2", SaleRecord::Layout1D(), options));
  auto f1 = ValueOrDie(env->OpenFile("a1", false));
  auto f2 = ValueOrDie(env->OpenFile("a2", false));
  uint64_t s1 = ValueOrDie(f1->Size());
  uint64_t s2 = ValueOrDie(f2->Size());
  ASSERT_EQ(s1, s2);
  std::string b1(s1, 0), b2(s2, 0);
  MSV_ASSERT_OK(f1->ReadExact(0, s1, b1.data()));
  MSV_ASSERT_OK(f2->ReadExact(0, s2, b2.data()));
  EXPECT_EQ(b1, b2);
}

TEST(AceBuildTest, LeafDirectoryIsContiguousAndComplete) {
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", 8000, 19);
  AceBuildOptions options;
  options.height = 5;
  MSV_ASSERT_OK(
      BuildAceTree(env.get(), "sale", "ace", SaleRecord::Layout1D(), options));
  auto tree = ValueOrDie(
      AceTree::Open(env.get(), "ace", SaleRecord::Layout1D()));
  // Leaves tile [data_offset, file size) without gaps (the variable-size
  // leaf scheme of Sec. 5.6).
  uint64_t expect_offset = tree->meta().data_offset;
  uint64_t total_records = 0;
  for (uint64_t leaf = 0; leaf < tree->meta().num_leaves; ++leaf) {
    LeafData data = ValueOrDie(tree->ReadLeaf(leaf, tree->meta().height));
    total_records += data.TotalRecords();
    uint64_t blob = LeafHeaderSize(tree->meta().height) +
                    data.TotalRecords() * SaleRecord::kSize +
                    4;  // trailing leaf checksum
    expect_offset += blob;
  }
  EXPECT_EQ(expect_offset, tree->file_bytes());
  EXPECT_EQ(total_records, 8000u);
}

TEST(AceBuildTest, EstimateMatchCountTracksOracle) {
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", 30000, 23);
  AceBuildOptions options;
  options.height = 7;
  MSV_ASSERT_OK(
      BuildAceTree(env.get(), "sale", "ace", SaleRecord::Layout1D(), options));
  auto tree = ValueOrDie(
      AceTree::Open(env.get(), "ace", SaleRecord::Layout1D()));
  auto sale = ValueOrDie(HeapFile::Open(env.get(), "sale"));
  relation::WorkloadGenerator gen({{0.0, 100000.0}}, 3);
  for (double sel : {0.01, 0.1, 0.4}) {
    for (int i = 0; i < 3; ++i) {
      auto q = gen.Query(sel, 1);
      uint64_t truth = ValueOrDie(
          relation::CountMatches(*sale, SaleRecord::Layout1D(), q));
      uint64_t est = ValueOrDie(tree->EstimateMatchCount(q));
      EXPECT_NEAR(static_cast<double>(est), static_cast<double>(truth),
                  std::max(100.0, 0.15 * static_cast<double>(truth)))
          << q.ToString();
    }
  }
}

}  // namespace
}  // namespace msv::core
