#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_format.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "core/combine_engine.h"
#include "gtest/gtest.h"
#include "io/disk_model.h"
#include "io/env.h"
#include "relation/workload.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/stats.h"

namespace msv::core {
namespace {

using msv::testing::AllDistinct;
using msv::testing::DrainRowIds;
using msv::testing::MakeSale;
using msv::testing::TakeRowIds;
using msv::testing::ValueOrDie;
using storage::HeapFile;
using storage::SaleRecord;

// ---------------------------------------------------------------------------
// CombineEngine unit tests (synthetic sections; 16-byte records:
// key double at offset 0, id u64 at offset 8)
// ---------------------------------------------------------------------------

constexpr size_t kRec = 16;

std::string MakeRecords(std::vector<std::pair<double, uint64_t>> rows) {
  std::string out(rows.size() * kRec, '\0');
  for (size_t i = 0; i < rows.size(); ++i) {
    EncodeDouble(out.data() + i * kRec, rows[i].first);
    EncodeFixed64(out.data() + i * kRec + 8, rows[i].second);
  }
  return out;
}

std::vector<uint64_t> Ids(const sampling::SampleBatch& batch) {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < batch.count(); ++i) {
    ids.push_back(DecodeFixed64(batch.record(i) + 8));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// A leaf page as the builder writes it: header (leaf index, height,
// per-section counts), the sections back to back, then the masked CRC32C.
std::vector<char> EncodeLeafPage(uint64_t leaf_index,
                                 const std::vector<std::string>& sections) {
  const uint32_t height = static_cast<uint32_t>(sections.size());
  std::string page(LeafHeaderSize(height), '\0');
  EncodeFixed32(page.data(), static_cast<uint32_t>(leaf_index));
  EncodeFixed32(page.data() + 4, height);
  for (uint32_t s = 0; s < height; ++s) {
    EncodeFixed32(page.data() + 8 + 4 * s,
                  static_cast<uint32_t>(sections[s].size() / kRec));
    page += sections[s];
  }
  char crc[4];
  EncodeFixed32(crc, MaskCrc(Crc32c(page.data(), page.size())));
  page.append(crc, sizeof(crc));
  return std::vector<char>(page.begin(), page.end());
}

// LeafData::Parse over a copy of `page`, as a read would hand it over.
Result<LeafData> ParsePage(const std::vector<char>& page, uint64_t leaf_index,
                           uint32_t height) {
  auto bytes = std::make_unique_for_overwrite<char[]>(page.size());
  std::copy(page.begin(), page.end(), bytes.get());
  return LeafData::Parse(std::move(bytes), page.size(), leaf_index, height,
                         kRec);
}

static_assert(!std::is_copy_constructible_v<LeafData> &&
                  !std::is_copy_assignable_v<LeafData>,
              "a copied LeafData would view into another leaf's page");
static_assert(std::is_nothrow_move_constructible_v<LeafData>);

TEST(LeafDataTest, SectionViewsSurviveMoves) {
  // An h=1 leaf with no records has a 12-byte body: short enough that a
  // small-string-optimized owner would move its bytes and strand the
  // views. Both leaves are moved twice (assignment, then construction)
  // with the source destroyed in between, and read only through the
  // final owner.
  const std::vector<std::vector<std::string>> leaves = {
      {""},
      {MakeRecords({{10, 1}, {20, 2}}), "", MakeRecords({{30, 3}})}};
  for (const std::vector<std::string>& sections : leaves) {
    const uint32_t height = static_cast<uint32_t>(sections.size());
    LeafData moved;
    {
      LeafData leaf =
          ValueOrDie(ParsePage(EncodeLeafPage(5, sections), 5, height));
      const char* first = leaf.sections[0].data();
      moved = std::move(leaf);
      EXPECT_EQ(moved.sections[0].data(), first);  // the bytes stayed put
    }
    const LeafData owner(std::move(moved));
    EXPECT_EQ(owner.leaf_index, 5u);
    ASSERT_EQ(owner.sections.size(), sections.size());
    for (size_t i = 0; i < sections.size(); ++i) {
      EXPECT_EQ(std::string(owner.sections[i]), sections[i]) << "section " << i;
      EXPECT_EQ(owner.SectionCount(i + 1), sections[i].size() / kRec);
    }
  }
}

TEST(LeafDataTest, ParseRejectsDamagedPages) {
  std::vector<char> page = EncodeLeafPage(2, {MakeRecords({{1, 1}}), ""});
  EXPECT_TRUE(ParsePage(page, 2, 2).ok());
  EXPECT_TRUE(ParsePage(page, 3, 2).status().IsCorruption());
  EXPECT_TRUE(ParsePage(page, 2, 3).status().IsCorruption());
  page[page.size() / 2] ^= 1;
  EXPECT_TRUE(ParsePage(page, 2, 2).status().IsCorruption());
  EXPECT_TRUE(ParsePage({'x'}, 2, 2).status().IsCorruption());
}

class CombineEngineTest : public ::testing::Test {
 protected:
  CombineEngineTest() : layout_{kRec, {0}} {}

  LeafData MakeLeaf(uint64_t leaf_index, std::string s1, std::string s2) {
    return ValueOrDie(
        ParsePage(EncodeLeafPage(leaf_index, {s1, s2}), leaf_index, 2));
  }

  storage::RecordLayout layout_;
  Pcg64 rng_{99};
};

TEST_F(CombineEngineTest, RootSectionEmitsImmediately) {
  // Height 2; query overlaps both leaves, so covering = {1} / {2, 3}.
  auto q = sampling::RangeQuery::OneDim(0, 100);
  CombineEngine engine(&layout_, q, {{1}, {2, 3}}, kRec, 2);
  sampling::SampleBatch out;
  out.record_size = kRec;
  engine.AddLeaf(2, MakeLeaf(0, MakeRecords({{10, 1}, {60, 2}}), ""), &out,
                 &rng_);
  // Section 1 (root level) has a single covering node: emitted at once.
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2}));
}

TEST_F(CombineEngineTest, SiblingSectionsWaitForPartner) {
  auto q = sampling::RangeQuery::OneDim(0, 100);
  CombineEngine engine(&layout_, q, {{1}, {2, 3}}, kRec, 2);
  sampling::SampleBatch out;
  out.record_size = kRec;
  // Leaf 0 (heap 2): section 2 covers [0, 50): must be buffered.
  engine.AddLeaf(2, MakeLeaf(0, "", MakeRecords({{10, 1}, {20, 2}})), &out,
                 &rng_);
  EXPECT_EQ(out.count(), 0u);
  EXPECT_EQ(engine.buffered_records(), 2u);
  // Leaf 1 (heap 3): partner arrives; both are appended and emitted.
  engine.AddLeaf(3, MakeLeaf(1, "", MakeRecords({{70, 3}})), &out, &rng_);
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(engine.buffered_records(), 0u);
  EXPECT_EQ(engine.rounds(2), 1u);
}

TEST_F(CombineEngineTest, FilteringHappensAtBufferTime) {
  auto q = sampling::RangeQuery::OneDim(0, 15);  // only keys <= 15 match
  CombineEngine engine(&layout_, q, {{1}, {2}}, kRec, 2);
  sampling::SampleBatch out;
  out.record_size = kRec;
  engine.AddLeaf(2, MakeLeaf(0, MakeRecords({{10, 1}, {60, 2}}),
                             MakeRecords({{12, 3}, {40, 4}})),
                 &out, &rng_);
  // Root section filtered to {1}; level-2 covering is {2} alone, so its
  // filtered section {3} emits immediately too.
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(engine.buffered_records(), 0u);
}

TEST_F(CombineEngineTest, EmptyFilteredContributionCompletesRound) {
  auto q = sampling::RangeQuery::OneDim(0, 100);
  CombineEngine engine(&layout_, q, {{1}, {2, 3}}, kRec, 2);
  sampling::SampleBatch out;
  out.record_size = kRec;
  engine.AddLeaf(2, MakeLeaf(0, "", MakeRecords({{10, 1}})), &out, &rng_);
  EXPECT_EQ(out.count(), 0u);
  // Partner's section 2 is empty; the round must still complete and emit
  // leaf 0's buffered records.
  engine.AddLeaf(3, MakeLeaf(1, "", ""), &out, &rng_);
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1}));
}

TEST_F(CombineEngineTest, MultipleRoundsFifo) {
  auto q = sampling::RangeQuery::OneDim(0, 100);
  CombineEngine engine(&layout_, q, {{1}, {2, 3}}, kRec, 2);
  sampling::SampleBatch out;
  out.record_size = kRec;
  // Two contributions from leaf-side 2 stack up.
  engine.AddLeaf(2, MakeLeaf(0, "", MakeRecords({{10, 1}})), &out, &rng_);
  engine.AddLeaf(2, MakeLeaf(0, "", MakeRecords({{11, 2}})), &out, &rng_);
  EXPECT_EQ(out.count(), 0u);
  EXPECT_EQ(engine.buffered_records(), 2u);
  engine.AddLeaf(3, MakeLeaf(1, "", MakeRecords({{70, 3}})), &out, &rng_);
  EXPECT_EQ(engine.rounds(2), 1u);
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(engine.buffered_records(), 1u);  // {11,2} awaits next partner
  engine.AddLeaf(3, MakeLeaf(1, "", MakeRecords({{71, 4}})), &out, &rng_);
  EXPECT_EQ(engine.rounds(2), 2u);
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3, 4}));
}

TEST_F(CombineEngineTest, FlushEmitsLeftovers) {
  auto q = sampling::RangeQuery::OneDim(0, 100);
  CombineEngine engine(&layout_, q, {{1}, {2, 3}}, kRec, 2);
  sampling::SampleBatch out;
  out.record_size = kRec;
  engine.AddLeaf(2, MakeLeaf(0, "", MakeRecords({{10, 1}, {20, 2}})), &out,
                 &rng_);
  EXPECT_EQ(engine.buffered_records(), 2u);
  engine.Flush(&out, &rng_);
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(engine.buffered_records(), 0u);
}

// ---------------------------------------------------------------------------
// AceSampler end-to-end
// ---------------------------------------------------------------------------

class AceSamplerFixture : public ::testing::Test {
 protected:
  void Build(uint64_t n, uint32_t height, uint32_t dims, uint64_t seed) {
    env_ = io::NewMemEnv();
    MakeSale(env_.get(), "sale", n, seed);
    layout_ = dims == 1 ? SaleRecord::Layout1D() : SaleRecord::Layout2D();
    AceBuildOptions options;
    options.height = height;
    options.key_dims = dims;
    options.seed = seed * 3 + 1;
    MSV_ASSERT_OK(BuildAceTree(env_.get(), "sale", "ace", layout_, options));
    tree_ = ValueOrDie(AceTree::Open(env_.get(), "ace", layout_));
    sale_ = ValueOrDie(HeapFile::Open(env_.get(), "sale"));
  }

  std::vector<uint64_t> Oracle(const sampling::RangeQuery& q) {
    return ValueOrDie(relation::CollectMatchingRowIds(*sale_, layout_, q));
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  std::unique_ptr<AceTree> tree_;
  std::unique_ptr<HeapFile> sale_;
};

class AceSamplerSelectivity
    : public AceSamplerFixture,
      public ::testing::WithParamInterface<double> {
 protected:
  void SetUp() override { Build(20000, 6, 1, /*seed=*/71); }
};

TEST_P(AceSamplerSelectivity, ReturnsExactlyTheMatchSet) {
  double sel = GetParam();
  relation::WorkloadGenerator gen({{0.0, 100000.0}}, 17);
  for (int i = 0; i < 3; ++i) {
    auto q = gen.Query(sel, 1);
    auto expected = Oracle(q);
    AceSampler sampler(tree_.get(), q, /*seed=*/100 + i);
    auto got = DrainRowIds(&sampler);
    EXPECT_TRUE(AllDistinct(got));
    EXPECT_EQ(sampler.samples_returned(), got.size());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << q.ToString();
    EXPECT_EQ(sampler.buffered_records(), 0u);
    EXPECT_LE(sampler.leaves_read(), tree_->meta().num_leaves);
  }
}

TEST_P(AceSamplerSelectivity, PredicateHoldsForEveryEmittedRecord) {
  double sel = GetParam();
  relation::WorkloadGenerator gen({{0.0, 100000.0}}, 18);
  auto q = gen.Query(sel, 1);
  AceSampler sampler(tree_.get(), q, 1);
  while (!sampler.done()) {
    auto batch = ValueOrDie(sampler.NextBatch());
    for (size_t i = 0; i < batch.count(); ++i) {
      ASSERT_TRUE(q.Matches(layout_, batch.record(i)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Selectivities, AceSamplerSelectivity,
                         ::testing::Values(0.0025, 0.025, 0.25, 0.9),
                         [](const auto& info) {
                           return "sel" + std::to_string(static_cast<int>(
                                              info.param * 10000));
                         });

class AceSamplerTest : public AceSamplerFixture {
 protected:
  void SetUp() override { Build(20000, 6, 1, /*seed=*/73); }
};

TEST_F(AceSamplerTest, FastFirstSamplesArriveImmediately) {
  // After just two stabs the sampler must already have produced samples
  // (the paper's headline behaviour; Sec. 3.3's example yields 11 from 2
  // leaves).
  auto q = sampling::RangeQuery::OneDim(30000, 65000);
  AceSampler sampler(tree_.get(), q, 2);
  uint64_t after2 = 0;
  for (int i = 0; i < 2; ++i) {
    auto batch = ValueOrDie(sampler.NextBatch());
    after2 += batch.count();
  }
  EXPECT_GT(after2, 0u);
  EXPECT_EQ(sampler.leaves_read(), 2u);
}

TEST_F(AceSamplerTest, FirstStabEmitsRootSection) {
  // The very first leaf's section 1 always spans the whole domain, so the
  // first stab emits at least its filtered records (usually > 0 for a
  // non-tiny query).
  auto q = sampling::RangeQuery::OneDim(10000, 90000);  // 80% selectivity
  AceSampler sampler(tree_.get(), q, 3);
  auto batch = ValueOrDie(sampler.NextBatch());
  EXPECT_GT(batch.count(), 0u);
}

TEST_F(AceSamplerTest, StabOrderAlternatesSubtrees) {
  // With a whole-domain query, consecutive stabs must alternate between
  // the root's two subtrees (paper Fig. 10).
  auto q = sampling::RangeQuery::OneDim(-1e9, 1e9);
  AceSampler sampler(tree_.get(), q, 4);
  std::vector<uint64_t> leaves;
  uint64_t f = tree_->meta().num_leaves;
  while (!sampler.done()) {
    uint64_t before = sampler.leaves_read();
    ValueOrDie(sampler.NextBatch());
    if (sampler.leaves_read() == before) continue;
    leaves.push_back(sampler.leaves_read());
  }
  EXPECT_EQ(sampler.leaves_read(), f);
}

TEST_F(AceSamplerTest, PaperStabOrderReproduced) {
  // The paper's running example (Sec. 3.3 / Fig. 10): an 8-leaf tree with
  // near-even splits over [0, 100k] and Q = [30%, 65%] of the domain
  // retrieves leaves in the order L3, L5, L4, L6, L1, L7, L2, L8
  // (1-indexed), i.e. 2, 4, 3, 5, 0, 6, 1, 7.
  Build(4000, 4, 1, /*seed=*/91);
  auto q = sampling::RangeQuery::OneDim(30000, 65000);
  AceSampler sampler(tree_.get(), q, 1);
  DrainRowIds(&sampler);
  EXPECT_EQ(sampler.leaf_read_order(),
            (std::vector<uint64_t>{2, 4, 3, 5, 0, 6, 1, 7}));
}

TEST_F(AceSamplerTest, WholeDomainStabOrderAlternates) {
  // With a whole-domain query every choice is free: the first two stabs
  // must land in opposite halves, the first four in all four quarters.
  Build(4000, 4, 1, /*seed=*/92);
  auto q = sampling::RangeQuery::OneDim(-1e18, 1e18);
  AceSampler sampler(tree_.get(), q, 1);
  DrainRowIds(&sampler);
  const auto& order = sampler.leaf_read_order();
  ASSERT_EQ(order.size(), 8u);
  EXPECT_NE(order[0] / 4, order[1] / 4);  // opposite root halves
  std::set<uint64_t> quarters{order[0] / 2, order[1] / 2, order[2] / 2,
                              order[3] / 2};
  EXPECT_EQ(quarters.size(), 4u);
}

TEST_F(AceSamplerTest, DoneQueryOutsideDomain) {
  auto q = sampling::RangeQuery::OneDim(2e6, 3e6);
  AceSampler sampler(tree_.get(), q, 5);
  EXPECT_TRUE(sampler.done());
  auto batch = ValueOrDie(sampler.NextBatch());
  EXPECT_EQ(batch.count(), 0u);
}

TEST_F(AceSamplerTest, NextBatchAfterDoneStaysEmpty) {
  auto q = sampling::RangeQuery::OneDim(40000, 41000);
  AceSampler sampler(tree_.get(), q, 5);
  DrainRowIds(&sampler);
  uint64_t total = sampler.samples_returned();
  for (int i = 0; i < 3; ++i) {
    auto batch = ValueOrDie(sampler.NextBatch());
    EXPECT_EQ(batch.count(), 0u);
  }
  EXPECT_EQ(sampler.samples_returned(), total);
}

TEST_F(AceSamplerTest, ConcurrentSamplersAreIndependent) {
  // Two samplers over the same open tree, different queries, interleaved
  // pulls: each must still produce its exact match set.
  auto q1 = sampling::RangeQuery::OneDim(10000, 30000);
  auto q2 = sampling::RangeQuery::OneDim(60000, 90000);
  AceSampler s1(tree_.get(), q1, 1);
  AceSampler s2(tree_.get(), q2, 2);
  std::vector<uint64_t> ids1, ids2;
  while (!s1.done() || !s2.done()) {
    if (!s1.done()) {
      auto b = ValueOrDie(s1.NextBatch());
      for (size_t i = 0; i < b.count(); ++i) {
        ids1.push_back(SaleRecord::DecodeFrom(b.record(i)).row_id);
      }
    }
    if (!s2.done()) {
      auto b = ValueOrDie(s2.NextBatch());
      for (size_t i = 0; i < b.count(); ++i) {
        ids2.push_back(SaleRecord::DecodeFrom(b.record(i)).row_id);
      }
    }
  }
  std::sort(ids1.begin(), ids1.end());
  std::sort(ids2.begin(), ids2.end());
  EXPECT_EQ(ids1, Oracle(q1));
  EXPECT_EQ(ids2, Oracle(q2));
}

TEST_F(AceSamplerTest, SmallQueryPrioritizesOverlappingLeaves) {
  // Every leaf holds query-relevant coarse sections, so completion needs
  // all of them; but the shuttle must walk the overlapping subtree FIRST
  // (that is the fast-first property).
  auto q = sampling::RangeQuery::OneDim(50000, 52000);
  auto covering = tree_->splits().CoveringSets(q);
  const auto& leaf_level = covering[tree_->meta().height - 1];
  AceSampler sampler(tree_.get(), q, 6);
  // The first |overlapping| stabs all land on overlapping leaves: the
  // sampler's early sample mass comes from the query region.
  uint64_t expected_first = leaf_level.size();
  uint64_t matched_early = 0;
  for (uint64_t i = 0; i < expected_first; ++i) {
    ValueOrDie(sampler.NextBatch());
    ++matched_early;
  }
  EXPECT_EQ(sampler.leaves_read(), matched_early);
  EXPECT_GT(sampler.samples_returned(), 0u);
  // Completion reads every leaf.
  DrainRowIds(&sampler);
  EXPECT_EQ(sampler.leaves_read(), tree_->meta().num_leaves);
}

TEST_F(AceSamplerTest, CumulativeSamplesNeverDecrease) {
  auto q = sampling::RangeQuery::OneDim(20000, 70000);
  AceSampler sampler(tree_.get(), q, 7);
  uint64_t last = 0;
  while (!sampler.done()) {
    ValueOrDie(sampler.NextBatch());
    EXPECT_GE(sampler.samples_returned(), last);
    last = sampler.samples_returned();
  }
}

TEST_F(AceSamplerTest, BufferedRecordsStayBounded) {
  // Fig. 15: at the paper's selectivities the buffered fraction is a tiny
  // share of the relation (matching records awaiting combine partners).
  auto q25 = sampling::RangeQuery::OneDim(40000, 42500);  // ~2.5% sel
  AceSampler s25(tree_.get(), q25, 8);
  uint64_t peak25 = 0;
  while (!s25.done()) {
    ValueOrDie(s25.NextBatch());
    peak25 = std::max(peak25, s25.buffered_records());
  }
  EXPECT_LT(peak25, 20000u / 50);  // < 2% of the relation
  EXPECT_EQ(s25.buffered_records(), 0u);

  // Even at 50% selectivity the peak stays well below the match count
  // (records are emitted continuously, not held to the end).
  auto q50 = sampling::RangeQuery::OneDim(25000, 75000);
  AceSampler s50(tree_.get(), q50, 8);
  uint64_t peak50 = 0;
  while (!s50.done()) {
    ValueOrDie(s50.NextBatch());
    peak50 = std::max(peak50, s50.buffered_records());
  }
  EXPECT_LT(peak50, 10000u / 2);  // < half of the ~10k matches
  EXPECT_EQ(s50.buffered_records(), 0u);
}

TEST_F(AceSamplerTest, TwoDimensionalCompleteness) {
  Build(20000, 5, 2, /*seed=*/79);
  relation::WorkloadGenerator gen({{0.0, 100000.0}, {0.0, 10000.0}}, 23);
  for (double sel : {0.01, 0.25}) {
    auto q = gen.Query(sel, 2);
    auto expected = Oracle(q);
    AceSampler sampler(tree_.get(), q, 9);
    EXPECT_EQ(sampler.name(), "kd-ace");
    auto got = DrainRowIds(&sampler);
    EXPECT_TRUE(AllDistinct(got));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << q.ToString();
  }
}

TEST_F(AceSamplerTest, SingleLeafTree) {
  Build(200, 1, 1, /*seed=*/83);
  auto q = sampling::RangeQuery::OneDim(0, 100000);
  AceSampler sampler(tree_.get(), q, 10);
  auto got = DrainRowIds(&sampler);
  EXPECT_EQ(got.size(), 200u);
  EXPECT_EQ(sampler.leaves_read(), 1u);
}

TEST_F(AceSamplerTest, EachStabChargesExactlyOneDeviceRead) {
  // One leaf read per stab, so the first samples arrive after one modeled
  // read and no call prefetches ahead of its stab. The tree is reopened
  // through a simulated disk so every device access is counted.
  auto device = std::make_shared<io::DiskDevice>();
  auto sim = io::NewSimEnv(env_.get(), device);
  auto tree = ValueOrDie(AceTree::Open(sim.get(), "ace", layout_));
  auto q = sampling::RangeQuery::OneDim(30000, 65000);
  AceSampler sampler(tree.get(), q, 11);
  uint64_t stabs = 0;
  while (!sampler.done()) {
    const io::DiskStats before = device->stats();
    auto batch = ValueOrDie(sampler.NextBatch());
    const io::DiskStats delta = device->stats() - before;
    ++stabs;
    ASSERT_EQ(delta.reads, 1u) << "stab " << stabs;
    if (stabs == 1) {
      EXPECT_GT(batch.count(), 0u);
    }
  }
  EXPECT_EQ(stabs, tree->meta().num_leaves);
  EXPECT_EQ(sampler.leaves_read(), stabs);
}

TEST_F(AceSamplerTest, UsefulLevelsFormAPrefix) {
  // Section i of a leaf is useful when the leaf's level-i ancestor is in
  // the covering set C_i. For every leaf a query visits, those levels must
  // be exactly 1..k, with k what the stab cursor reports, in 1-d and 2-d.
  for (uint32_t dims : {1u, 2u}) {
    Build(20000, 7, dims, /*seed=*/89);
    relation::WorkloadGenerator gen({{0.0, 100000.0}, {0.0, 10000.0}},
                                    31 + dims);
    for (double sel : {0.001, 0.02, 0.25, 0.7}) {
      for (int trial = 0; trial < 5; ++trial) {
        const sampling::RangeQuery q = gen.Query(sel, dims);
        const SplitTree& splits = tree_->splits();
        const auto covering = splits.CoveringSets(q);
        const StabCursor cursor(&splits, covering);
        for (uint64_t leaf : ComputeStabLeafOrder(splits, q)) {
          const uint64_t heap_id = splits.LeafHeapId(leaf);
          uint32_t k = 0;
          for (uint32_t level = 1; level <= splits.height(); ++level) {
            const bool useful = std::binary_search(
                covering[level - 1].begin(), covering[level - 1].end(),
                SplitTree::AncestorAtLevel(heap_id, level));
            if (useful) {
              ASSERT_EQ(k, level - 1)
                  << "level " << level << " of leaf " << leaf
                  << " is useful after a useless one, " << q.ToString();
              k = level;
            }
          }
          EXPECT_GE(k, 1u) << q.ToString();
          EXPECT_EQ(cursor.UsefulLevels(heap_id), k) << q.ToString();
        }
      }
    }
  }
}

TEST_F(AceSamplerTest, CombineAbortsOnANeededSectionThatWasNotRead) {
  // A whole-domain query needs every section of every leaf; a leaf read
  // only to level 2 must stop the engine rather than look empty past it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto q = sampling::RangeQuery::OneDim(0, 100000);
  const auto covering = tree_->splits().CoveringSets(q);
  LeafData prefix = ValueOrDie(tree_->ReadLeaf(0, 2));
  EXPECT_DEATH(
      {
        CombineEngine engine(&layout_, q, covering,
                             tree_->meta().record_size, tree_->meta().height);
        sampling::SampleBatch out;
        out.record_size = tree_->meta().record_size;
        Pcg64 rng(1);
        engine.AddLeaf(tree_->splits().LeafHeapId(0), prefix, &out, &rng);
      },
      "skipped");
}

TEST_F(AceSamplerTest, DrainReadsOnlyTheUsefulPrefixes) {
  // Through a byte-counting simulated disk, a full drain reads, per stab,
  // exactly the leaf header plus the sections whose ancestor intersects
  // the query: less than the file at 25% selectivity, and far less at 2%.
  const uint32_t h = tree_->meta().height;
  const size_t rs = tree_->meta().record_size;
  for (double width : {25000.0, 2000.0}) {
    auto q = sampling::RangeQuery::OneDim(40000, 40000 + width);
    const SplitTree& splits = tree_->splits();
    const auto covering = splits.CoveringSets(q);
    uint64_t expected = 0;
    for (uint64_t leaf : ComputeStabLeafOrder(splits, q)) {
      // Section sizes from the leaf itself, not from the directory.
      LeafData whole = ValueOrDie(tree_->ReadLeaf(leaf, h));
      expected += LeafHeaderSize(h);
      uint32_t level = 1;
      for (; level <= h; ++level) {
        if (!std::binary_search(
                covering[level - 1].begin(), covering[level - 1].end(),
                SplitTree::AncestorAtLevel(splits.LeafHeapId(leaf), level))) {
          break;
        }
        expected += whole.SectionCount(level) * rs;
      }
      if (level > h) expected += 4;  // a whole leaf ends in its checksum
    }

    auto device = std::make_shared<io::DiskDevice>();
    auto sim = io::NewSimEnv(env_.get(), device);
    auto tree = ValueOrDie(AceTree::Open(sim.get(), "ace", layout_));
    const io::DiskStats before = device->stats();
    AceSampler sampler(tree.get(), q, 12);
    auto got = DrainRowIds(&sampler);
    const io::DiskStats delta = device->stats() - before;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, Oracle(q));
    EXPECT_EQ(delta.reads, tree->meta().num_leaves);
    EXPECT_EQ(delta.read_bytes, expected) << "width " << width;
    EXPECT_LT(delta.read_bytes, tree->file_bytes()) << "width " << width;
    if (width < 10000) {
      EXPECT_LT(delta.read_bytes, tree->file_bytes() / 2);
    }
  }
}

// ---------------------------------------------------------------------------
// Statistical guarantee: every prefix of the stream is a uniform random
// sample of the match set. The tree's randomness lives in construction, so
// we rebuild with many seeds and count per-record inclusion frequencies of
// a fixed-size prefix.
// ---------------------------------------------------------------------------

TEST(AceSamplerStatTest, PrefixIsUniformSampleOverRebuilds) {
  auto env = io::NewMemEnv();
  const uint64_t kRecords = 3000;
  MakeSale(env.get(), "sale", kRecords, /*seed=*/311);
  auto layout = SaleRecord::Layout1D();
  auto sale = ValueOrDie(HeapFile::Open(env.get(), "sale"));
  auto q = sampling::RangeQuery::OneDim(35000, 65000);
  auto matching =
      ValueOrDie(relation::CollectMatchingRowIds(*sale, layout, q));
  ASSERT_GT(matching.size(), 400u);
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < matching.size(); ++i) index[matching[i]] = i;

  const uint64_t kPrefix = 60;
  const int kTrials = 200;
  std::vector<uint64_t> counts(matching.size(), 0);
  for (int t = 0; t < kTrials; ++t) {
    AceBuildOptions options;
    options.height = 4;
    options.seed = 40000 + t;
    MSV_ASSERT_OK(BuildAceTree(env.get(), "sale", "acetrial", layout, options));
    auto tree = ValueOrDie(AceTree::Open(env.get(), "acetrial", layout));
    AceSampler sampler(tree.get(), q, /*seed=*/t);
    auto prefix = TakeRowIds(&sampler, kPrefix);
    ASSERT_GE(prefix.size(), kPrefix);
    prefix.resize(kPrefix);
    for (uint64_t id : prefix) ++counts[index.at(id)];
  }
  std::vector<double> expected(
      matching.size(),
      double(kPrefix) * kTrials / double(matching.size()));
  double stat = ChiSquareStatistic(counts, expected);
  double p = ChiSquarePValue(stat, matching.size() - 1);
  EXPECT_GT(p, 1e-5) << "stat=" << stat << " dof=" << matching.size() - 1;
}

}  // namespace
}  // namespace msv::core
