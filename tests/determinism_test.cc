// Determinism goldens: the exact byte sequences this PR must not change.
//
// Three layers are pinned:
//   1. SplitMix64 / DeriveRngStream — the per-query stream derivation.
//      Concurrent queries draw from independent Pcg64 streams derived
//      from one root seed; these values are the contract.
//   2. The AceSampler's full sample sequence for a fixed tree, query and
//      seed, reading one leaf per stab — same root seed + one thread must
//      stay byte-identical across refactors of the stab path.
//   3. The ViewSampler's unified sequence over base tree + sorted runs +
//      memtable, with an estimated and with an exact base count.
//   4. The Executor's rendered answer text for a fixed MSVQL script: the
//      bytes a client receives, numbers formatted exactly as printed.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "core/sample_view.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "query/executor.h"
#include "relation/sale_generator.h"
#include "storage/record.h"
#include "test_util.h"
#include "util/random.h"

namespace msv::core {
namespace {

using msv::testing::ValueOrDie;
using storage::SaleRecord;

// ---------------------------------------------------------------------------
// RNG stream derivation goldens
// ---------------------------------------------------------------------------

TEST(RngStreamTest, SplitMix64Golden) {
  uint64_t state = 1234;
  EXPECT_EQ(SplitMix64(&state), 13478418381427711195ULL);
  EXPECT_EQ(SplitMix64(&state), 10936887474700444964ULL);
  EXPECT_EQ(SplitMix64(&state), 3728693401281897946ULL);
}

TEST(RngStreamTest, DeriveRngStreamGolden) {
  struct Golden {
    uint64_t root_seed;
    uint64_t stream_id;
    uint64_t draws[4];
  };
  const Golden goldens[] = {
      {42, 0,
       {4933420552154059502ULL, 12011461925333370732ULL,
        14601072767271143407ULL, 12208670375848632323ULL}},
      {42, 1,
       {18164284030097939994ULL, 17484709183608418398ULL,
        9006915037742988350ULL, 17243094114724237355ULL}},
      {42, 2,
       {2630123446235948873ULL, 7901409897271332485ULL,
        17132753080837715186ULL, 5049221081009815177ULL}},
      {42, 3,
       {6223531505735042008ULL, 10080962388587157162ULL,
        3289446081051063222ULL, 2876132082466931957ULL}},
      {0, 7,
       {16559407115350555720ULL, 11310728182396579871ULL,
        16628964593460800163ULL, 6414758383543976400ULL}},
  };
  for (const Golden& g : goldens) {
    Pcg64 rng = DeriveRngStream(g.root_seed, g.stream_id);
    for (uint64_t want : g.draws) {
      EXPECT_EQ(rng.Next(), want)
          << "root=" << g.root_seed << " stream=" << g.stream_id;
    }
  }
}

TEST(RngStreamTest, StreamsAreIndependent) {
  // Streams from one root must not collide, and the same (root, stream)
  // pair must reproduce.
  Pcg64 a0 = DeriveRngStream(42, 0);
  Pcg64 a1 = DeriveRngStream(42, 1);
  Pcg64 b0 = DeriveRngStream(42, 0);
  for (int i = 0; i < 64; ++i) {
    uint64_t x = a0.Next();
    EXPECT_NE(x, a1.Next());
    EXPECT_EQ(x, b0.Next());
  }
}

// ---------------------------------------------------------------------------
// Sampler sequence goldens
// ---------------------------------------------------------------------------

// Fixed tree recipe; any change to these constants invalidates the
// goldens below, so they are deliberately local to this file.
constexpr uint64_t kRecords = 2000;
constexpr uint64_t kGenSeed = 7;
constexpr uint64_t kBuildSeed = 99;
constexpr uint64_t kSamplerSeed = 123;
constexpr double kQueryLo = 20000.0;
constexpr double kQueryHi = 70000.0;

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    relation::SaleGenOptions gen;
    gen.num_records = kRecords;
    gen.seed = kGenSeed;
    ASSERT_TRUE(relation::GenerateSaleRelation(env_.get(), "sale", gen).ok());
    AceBuildOptions build;
    build.page_size = 4096;
    build.key_dims = 1;
    build.seed = kBuildSeed;
    // In-memory sort; the default 64 MB budget only slows sanitizer runs.
    // (Budget does not affect the built tree, so goldens are unchanged.)
    build.sort.memory_budget_bytes = 1 << 20;
    layout_ = SaleRecord::Layout1D();
    ASSERT_TRUE(
        BuildAceTree(env_.get(), "sale", "sale.ace", layout_, build).ok());
    tree_ = ValueOrDie(AceTree::Open(env_.get(), "sale.ace", layout_));
  }

  sampling::RangeQuery Query() const {
    return sampling::RangeQuery::OneDim(kQueryLo, kQueryHi);
  }

  /// Drains `stream`, returning the concatenated record bytes.
  static std::string DrainBytes(sampling::SampleStream* stream) {
    std::string bytes;
    while (!stream->done()) {
      auto batch = ValueOrDie(stream->NextBatch());
      bytes += batch.data;
    }
    return bytes;
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  std::unique_ptr<AceTree> tree_;
};

TEST_F(DeterminismTest, SerialSampleSequenceMatchesGolden) {
  AceSampler sampler(tree_.get(), Query(), kSamplerSeed);
  std::vector<uint64_t> ids;
  uint64_t fnv = 14695981039346656037ULL;
  while (!sampler.done()) {
    auto batch = ValueOrDie(sampler.NextBatch());
    for (size_t i = 0; i < batch.count(); ++i) {
      uint64_t rid = SaleRecord::DecodeFrom(batch.record(i)).row_id;
      ids.push_back(rid);
      fnv = (fnv ^ rid) * 1099511628211ULL;
    }
  }
  EXPECT_EQ(ids.size(), 1017u);
  // FNV-1a over the row_ids in emission order: pins the entire sequence.
  EXPECT_EQ(fnv, 532171317302528852ULL);
  const std::vector<uint64_t> first16 = {536, 788, 1339, 1566, 583, 1843,
                                         552, 1202, 164,  280,  314, 537,
                                         982, 931,  1347, 1984};
  ASSERT_GE(ids.size(), first16.size());
  EXPECT_EQ(std::vector<uint64_t>(ids.begin(), ids.begin() + 16), first16);
  // The paper's Fig. 10 back-and-forth stab order over the leaves.
  const std::vector<uint64_t> leaf12 = {12, 32, 16, 40, 14, 36,
                                        24, 44, 13, 34, 20, 42};
  ASSERT_GE(sampler.leaf_read_order().size(), leaf12.size());
  EXPECT_EQ(std::vector<uint64_t>(sampler.leaf_read_order().begin(),
                                  sampler.leaf_read_order().begin() + 12),
            leaf12);
  EXPECT_EQ(sampler.leaves_read(), 64u);
}

TEST_F(DeterminismTest, StabLeafOrderMatchesSamplerReads) {
  std::vector<uint64_t> precomputed =
      ComputeStabLeafOrder(tree_->splits(), Query());
  AceSampler sampler(tree_.get(), Query(), kSamplerSeed);
  DrainBytes(&sampler);
  EXPECT_EQ(precomputed, sampler.leaf_read_order());
}

TEST_F(DeterminismTest, RepeatRunsAreIdentical) {
  AceSampler a(tree_.get(), Query(), kSamplerSeed);
  AceSampler b(tree_.get(), Query(), kSamplerSeed);
  EXPECT_EQ(DrainBytes(&a), DrainBytes(&b));
  // A different presentation seed changes emission order but not the
  // delivered multiset size.
  AceSampler c(tree_.get(), Query(), kSamplerSeed + 1);
  DrainBytes(&c);
  EXPECT_EQ(c.samples_returned(), a.samples_returned());
}

// ---------------------------------------------------------------------------
// View sampler sequence goldens
// ---------------------------------------------------------------------------

/// The fixture's relation and build recipe as an updatable view with two
/// flushed runs and a non-empty memtable; inserts land both inside and
/// outside the query range.
std::unique_ptr<MaterializedSampleView> MakeGoldenView(io::Env* env) {
  MaterializedSampleView::Options options;
  options.build.page_size = 4096;
  options.build.key_dims = 1;
  options.build.seed = kBuildSeed;
  options.build.sort.memory_budget_bytes = 1 << 20;
  options.ingest.background_compaction = false;
  auto view = ValueOrDie(MaterializedSampleView::Create(
      env, "v", "sale", SaleRecord::Layout1D(), options));
  Pcg64 rng(kGenSeed);
  uint64_t next_row = kRecords;
  auto insert = [&](uint64_t n) {
    std::string buf(n * SaleRecord::kSize, '\0');
    for (uint64_t i = 0; i < n; ++i) {
      SaleRecord rec;
      rec.day = rng.DoubleInRange(0.0, 100000.0);
      rec.amount = rng.DoubleInRange(0.0, 10000.0);
      rec.row_id = next_row++;
      rec.EncodeTo(buf.data() + i * SaleRecord::kSize);
    }
    EXPECT_TRUE(view->Insert(buf.data(), n).ok());
  };
  insert(150);
  EXPECT_TRUE(view->Flush().ok());
  insert(90);
  EXPECT_TRUE(view->Flush().ok());
  insert(60);
  EXPECT_EQ(view->run_count(), 2u);
  EXPECT_EQ(view->memtable_records(), 60u);
  return view;
}

TEST_F(DeterminismTest, ViewSamplerSequenceMatchesGolden) {
  auto view = MakeGoldenView(env_.get());
  struct Golden {
    std::optional<uint64_t> base_count;  // nullopt: internal-node estimate
    uint64_t fnv;
  };
  // 1017 base matches (the AceSampler golden) + 145 delta matches. The
  // two runs share a prefix and then diverge, because the estimated and
  // the exact base count weight the interleave differently.
  const Golden goldens[] = {{std::nullopt, 5812228476570766344ULL},
                            {1017, 16873420819907862876ULL}};
  const std::vector<uint64_t> first16 = {536,  1843, 583,  1566, 1339, 788,
                                         2239, 2297, 51,   1984, 1347, 931,
                                         982,  537,  314,  280};
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.base_count ? "exact base count" : "estimated base count");
    auto sampler =
        ValueOrDie(view->Sample(Query(), kSamplerSeed, g.base_count));
    EXPECT_EQ(sampler->partitions(), 4u);
    std::vector<uint64_t> ids;
    uint64_t fnv = 14695981039346656037ULL;
    while (!sampler->done()) {
      auto batch = ValueOrDie(sampler->NextBatch());
      for (size_t i = 0; i < batch.count(); ++i) {
        uint64_t rid = SaleRecord::DecodeFrom(batch.record(i)).row_id;
        ids.push_back(rid);
        fnv = (fnv ^ rid) * 1099511628211ULL;
      }
    }
    EXPECT_EQ(ids.size(), 1162u);
    EXPECT_EQ(fnv, g.fnv);
    ASSERT_GE(ids.size(), first16.size());
    EXPECT_EQ(std::vector<uint64_t>(ids.begin(), ids.begin() + 16), first16);
  }
}

TEST_F(DeterminismTest, CompactedViewMatchesGolden) {
  // Pins the compaction input order (base leaves, then runs oldest first)
  // and the id/seed sequence that names and seeds the compacted tree.
  auto view = MakeGoldenView(env_.get());
  ASSERT_TRUE(view->Compact().ok());
  EXPECT_EQ(view->run_count(), 0u);
  auto sampler = ValueOrDie(view->Sample(Query(), kSamplerSeed));
  std::vector<uint64_t> ids;
  uint64_t fnv = 14695981039346656037ULL;
  while (!sampler->done()) {
    auto batch = ValueOrDie(sampler->NextBatch());
    for (size_t i = 0; i < batch.count(); ++i) {
      uint64_t rid = SaleRecord::DecodeFrom(batch.record(i)).row_id;
      ids.push_back(rid);
      fnv = (fnv ^ rid) * 1099511628211ULL;
    }
  }
  EXPECT_EQ(ids.size(), 1162u);
  EXPECT_EQ(fnv, 9419708275385457132ULL);
  const std::vector<uint64_t> first16 = {433,  483,  124, 1253, 1812, 888,
                                         992,  1221, 640, 1360, 1806, 99,
                                         1120, 657,  2046, 2154};
  ASSERT_GE(ids.size(), first16.size());
  EXPECT_EQ(std::vector<uint64_t>(ids.begin(), ids.begin() + 16), first16);
}

// ---------------------------------------------------------------------------
// Rendered answer golden
// ---------------------------------------------------------------------------

TEST(RenderedAnswerTest, ExecutorOutputMatchesGolden) {
  // Every statement kind that renders numbers: SAMPLE rows at LIMIT 1,
  // 100 and a full drain, before and after an INSERT (the 300 rows stay
  // in the memtable, so the later SAMPLEs interleave delta rows);
  // ESTIMATE AVG/SUM/COUNT with WITHIN % and WITHIN ... MS; a GROUP BY;
  // and EXPLAIN. No statement's text depends on timing: the deadline is
  // far beyond the capped sample count.
  const std::string sample_lines =
      "SAMPLE FROM sv WHERE day BETWEEN 20000 AND 60000 LIMIT 1;\n"
      "SAMPLE FROM sv WHERE day BETWEEN 20000 AND 60000 LIMIT 100;\n"
      "SAMPLE FROM sv WHERE day BETWEEN 41000 AND 47000 LIMIT 100000;\n";
  const std::string script =
      "GENERATE TABLE sale ROWS 20000 SEED 11;\n"
      "CREATE MATERIALIZED SAMPLE VIEW sv AS SELECT * FROM sale "
      "INDEX ON day;\n" +
      sample_lines +
      "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 10000 AND 90000 "
      "SAMPLES 300;\n"
      "ESTIMATE SUM(amount) FROM sv WHERE day BETWEEN 10000 AND 90000 "
      "WITHIN 5%;\n"
      "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 5000 AND 95000 "
      "SAMPLES 400 WITHIN 600000 MS;\n"
      "ESTIMATE COUNT(*) FROM sv WHERE day BETWEEN 30000 AND 35000 "
      "WITHIN 2%;\n"
      "ESTIMATE SUM(amount) FROM sv WHERE day BETWEEN 0 AND 50000 "
      "GROUP BY supp SAMPLES 500;\n"
      "EXPLAIN SAMPLE FROM sv WHERE day BETWEEN 20000 AND 60000 LIMIT 5;\n"
      "INSERT INTO sv ROWS 300 SEED 5;\n" +
      sample_lines +
      "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 10000 AND 90000 "
      "SAMPLES 300;\n"
      "EXPLAIN ESTIMATE COUNT(*) FROM sv;\n";
  std::unique_ptr<io::Env> env = io::NewMemEnv();
  auto executor = ValueOrDie(query::Executor::Open(env.get()));
  const std::string out = ValueOrDie(executor->Run(script));
  // FNV-1a over the answer bytes pins every character of the text.
  uint64_t fnv = 14695981039346656037ULL;
  for (char c : out) {
    fnv = (fnv ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  EXPECT_EQ(out.size(), 146265u);
  EXPECT_EQ(fnv, 16313159559502952820ULL);
}

}  // namespace
}  // namespace msv::core
