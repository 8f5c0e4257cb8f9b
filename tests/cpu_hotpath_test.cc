// Dispatch-equivalence suite for the CPU hot path (DESIGN.md §15).
//
// Pins the contracts the batched kernels must keep:
//   1. CpuLevel parsing/clamping never yields a level the host cannot
//      execute (MSV_CPU_FEATURES must not turn into SIGILL).
//   2. RangeQuery::MatchBatchAt agrees with the scalar Matches reference
//      record for record at EVERY dispatch level — including NaN keys,
//      ±inf bounds, empty intervals and chunk-boundary tails.
//   3. The sampler's emitted byte stream is identical at every forced
//      dispatch level (the kernels are a throughput decision, nothing
//      else).
//   4. Arena, FieldAccessor and SampleBatch bulk paths behave as the
//      combine engine and aggregators assume.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "query/catalog.h"
#include "relation/sale_generator.h"
#include "sampling/grouped_aggregator.h"
#include "sampling/online_aggregator.h"
#include "sampling/range_query.h"
#include "sampling/sample_stream.h"
#include "storage/record.h"
#include "storage/record_view.h"
#include "test_util.h"
#include "util/arena.h"
#include "util/coding.h"
#include "util/cpu.h"
#include "util/random.h"
#include "util/stats.h"

namespace msv {
namespace {

using msv::testing::ValueOrDie;
using sampling::RangeQuery;
using sampling::SampleBatch;
using storage::FieldAccessor;
using storage::SaleRecord;
using util::CpuLevel;

/// Restores the process-wide dispatch level on scope exit, so forced
/// levels never leak into other tests in this binary.
class ScopedCpuLevel {
 public:
  explicit ScopedCpuLevel(CpuLevel level)
      : saved_(util::ActiveCpuLevel()) {
    util::SetActiveCpuLevelForTesting(level);
  }
  ~ScopedCpuLevel() { util::SetActiveCpuLevelForTesting(saved_); }

 private:
  CpuLevel saved_;
};

// ---------------------------------------------------------------------------
// CpuLevel
// ---------------------------------------------------------------------------

TEST(CpuLevelTest, ParseAcceptsKnownNamesOnly) {
  CpuLevel level = CpuLevel::kAvx2;
  EXPECT_TRUE(util::ParseCpuLevel("scalar", &level));
  EXPECT_EQ(level, CpuLevel::kScalar);
  EXPECT_TRUE(util::ParseCpuLevel("sse2", &level));
  EXPECT_EQ(level, CpuLevel::kSse2);
  EXPECT_TRUE(util::ParseCpuLevel("avx2", &level));
  EXPECT_EQ(level, CpuLevel::kAvx2);

  level = CpuLevel::kSse2;
  EXPECT_FALSE(util::ParseCpuLevel("", &level));
  EXPECT_FALSE(util::ParseCpuLevel("avx512", &level));
  EXPECT_FALSE(util::ParseCpuLevel("SCALAR", &level));
  EXPECT_EQ(level, CpuLevel::kSse2) << "failed parse must not write *out";
}

TEST(CpuLevelTest, NamesRoundTrip) {
  for (CpuLevel level :
       {CpuLevel::kScalar, CpuLevel::kSse2, CpuLevel::kAvx2}) {
    CpuLevel parsed = CpuLevel::kScalar;
    EXPECT_TRUE(util::ParseCpuLevel(util::CpuLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

TEST(CpuLevelTest, ClampNeverExceedsDetected) {
  const CpuLevel detected = util::DetectCpuLevel();
  for (CpuLevel level :
       {CpuLevel::kScalar, CpuLevel::kSse2, CpuLevel::kAvx2}) {
    EXPECT_LE(static_cast<int>(util::ClampCpuLevel(level)),
              static_cast<int>(detected));
  }
  EXPECT_EQ(util::ClampCpuLevel(CpuLevel::kScalar), CpuLevel::kScalar);
}

TEST(CpuLevelTest, TestOverrideInstallsClampedLevel) {
  const CpuLevel saved = util::ActiveCpuLevel();
  const CpuLevel installed =
      util::SetActiveCpuLevelForTesting(CpuLevel::kAvx2);
  EXPECT_EQ(installed, util::ClampCpuLevel(CpuLevel::kAvx2));
  EXPECT_EQ(util::ActiveCpuLevel(), installed);
  util::SetActiveCpuLevelForTesting(CpuLevel::kScalar);
  EXPECT_EQ(util::ActiveCpuLevel(), CpuLevel::kScalar);
  util::SetActiveCpuLevelForTesting(saved);
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

TEST(ArenaTest, AlignmentAndAccounting) {
  util::Arena arena;
  char* a = arena.Allocate(13, 8);
  char* b = arena.Allocate(100, 32);
  char* c = arena.Allocate(1, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 32, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  EXPECT_EQ(arena.bytes_allocated(), 13u + 100u + 1u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
  // Writable across the whole extent.
  std::memset(a, 0xab, 13);
  std::memset(b, 0xcd, 100);
}

TEST(ArenaTest, ResetReusesBlocks) {
  util::Arena arena;
  char* first = arena.Allocate(1000, 8);
  // Spill past the first block so more than one is held.
  for (int i = 0; i < 200; ++i) arena.Allocate(1024, 8);
  const size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, util::Arena::kMinBlockBytes);

  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved) << "Reset must keep blocks";
  char* again = arena.Allocate(1000, 8);
  EXPECT_EQ(again, first) << "Reset must rewind to the first block";
  // The same workload must not grow the reservation.
  for (int i = 0; i < 200; ++i) arena.Allocate(1024, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, OversizedRequestGetsOwnBlock) {
  util::Arena arena;
  const size_t big = (1 << 20) + 17;
  char* p = arena.Allocate(big, 32);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 32, 0u);
  std::memset(p, 0x5a, big);
  EXPECT_EQ(arena.bytes_allocated(), big);
}

// ---------------------------------------------------------------------------
// FieldAccessor / SampleBatch
// ---------------------------------------------------------------------------

TEST(FieldAccessorTest, AgreesWithSchemaValue) {
  const query::TableSchema& schema = query::TableSchema::Sale();
  Pcg64 rng(11);
  char rec[SaleRecord::kSize];
  for (int i = 0; i < 256; ++i) {
    SaleRecord r;
    r.day = rng.DoubleInRange(-1e6, 1e6);
    r.amount = rng.DoubleInRange(-1e6, 1e6);
    r.cust = rng.Next();
    r.supp = rng.Below(1 << 20);
    r.row_id = rng.Next();
    r.EncodeTo(rec);
    for (const char* name : {"day", "amount", "cust", "supp", "row_id"}) {
      const query::Column* col = schema.Find(name);
      ASSERT_NE(col, nullptr) << name;
      FieldAccessor acc = col->type == query::ColumnType::kDouble
                              ? FieldAccessor::Double(col->offset)
                              : FieldAccessor::Uint64(col->offset);
      EXPECT_EQ(acc.Load(rec), schema.Value(rec, *col)) << name;
    }
  }
  EXPECT_EQ(FieldAccessor::ConstOne().Load(rec), 1.0);
  EXPECT_EQ(FieldAccessor::ConstOne().LoadU64(rec), 1u);
  EXPECT_EQ(FieldAccessor::Uint64(SaleRecord::kCustOffset).LoadU64(rec),
            DecodeFixed64(rec + SaleRecord::kCustOffset));
}

TEST(SampleBatchTest, ReserveAndBulkAppend) {
  const size_t record_size = 24;
  std::string recs(5 * record_size, '\0');
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i] = static_cast<char>(i * 7);
  }

  SampleBatch one;
  one.record_size = record_size;
  for (size_t i = 0; i < 5; ++i) one.Append(recs.data() + i * record_size);

  SampleBatch bulk;
  bulk.record_size = record_size;
  bulk.Reserve(5);
  const size_t cap = bulk.data.capacity();
  EXPECT_GE(cap, 5 * record_size);
  EXPECT_TRUE(bulk.empty()) << "Reserve must not change contents";
  bulk.AppendN(recs.data(), 5);
  EXPECT_EQ(bulk.data.capacity(), cap) << "reserved append must not grow";
  EXPECT_EQ(bulk.count(), 5u);
  EXPECT_EQ(bulk.data, one.data);
}

// ---------------------------------------------------------------------------
// MatchBatch vs the scalar reference
// ---------------------------------------------------------------------------

/// Densely packed 2-key records covering the predicate edge cases: NaN
/// keys, ±inf keys, exact bound hits.
std::string MakeAdversarialRecords(const storage::RecordLayout& layout,
                                   size_t n, uint64_t seed) {
  const double special[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      20.0,   // exact lo of the test query
      80.0,   // exact hi of the test query
      std::nextafter(20.0, 0.0),
      std::nextafter(80.0, 1e9),
  };
  Pcg64 rng(seed);
  std::string data(n * layout.record_size, '\0');
  for (size_t i = 0; i < n; ++i) {
    char* rec = data.data() + i * layout.record_size;
    for (size_t d = 0; d < layout.key_dims(); ++d) {
      double v = rng.Below(4) == 0
                     ? special[rng.Below(sizeof(special) / sizeof(double))]
                     : rng.DoubleInRange(0.0, 100.0);
      layout.SetKey(rec, d, v);
    }
  }
  return data;
}

void ExpectBatchMatchesScalar(const RangeQuery& query,
                              const storage::RecordLayout& layout,
                              const std::string& data, size_t n) {
  // Scalar reference, record by record.
  std::vector<uint32_t> want;
  for (size_t i = 0; i < n; ++i) {
    if (query.Matches(layout, data.data() + i * layout.record_size)) {
      want.push_back(static_cast<uint32_t>(i));
    }
  }
  const CpuLevel detected = util::DetectCpuLevel();
  for (int l = 0; l <= static_cast<int>(detected); ++l) {
    std::vector<uint32_t> got(n + 1, 0xdeadbeef);
    size_t matches = query.MatchBatchAt(static_cast<CpuLevel>(l), layout,
                                        data.data(), n, got.data());
    ASSERT_EQ(matches, want.size())
        << "level=" << util::CpuLevelName(static_cast<CpuLevel>(l))
        << " n=" << n;
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
        << "level=" << util::CpuLevelName(static_cast<CpuLevel>(l))
        << " n=" << n;
  }
}

TEST(MatchBatchTest, AgreesWithScalarOnAdversarialRecords) {
  // Sizes straddle the kernel's 1024-record chunk and its 4/2-lane SIMD
  // groups, including odd tails and the empty batch.
  const size_t sizes[] = {0, 1, 3, 7, 63, 1023, 1024, 1025, 4097};
  for (size_t dims : {size_t{1}, size_t{2}}) {
    storage::RecordLayout layout =
        dims == 1 ? SaleRecord::Layout1D() : SaleRecord::Layout2D();
    RangeQuery query;
    query.dims = dims;
    query.bounds[0] = {20.0, 80.0};
    if (dims == 2) query.bounds[1] = {10.0, 90.0};
    for (size_t n : sizes) {
      std::string data = MakeAdversarialRecords(layout, n, 17 * n + dims);
      ExpectBatchMatchesScalar(query, layout, data, n);
    }
  }
}

TEST(MatchBatchTest, HandlesInfiniteAndEmptyBounds) {
  storage::RecordLayout layout = SaleRecord::Layout1D();
  std::string data = MakeAdversarialRecords(layout, 2048, 5);
  const double inf = std::numeric_limits<double>::infinity();

  RangeQuery all = RangeQuery::OneDim(-inf, inf);
  RangeQuery below = RangeQuery::OneDim(-inf, 50.0);
  RangeQuery above = RangeQuery::OneDim(50.0, inf);
  RangeQuery point = RangeQuery::OneDim(20.0, 20.0);
  RangeQuery empty = RangeQuery::OneDim(80.0, 20.0);  // lo > hi: matches none
  for (const RangeQuery& q : {all, below, above, point, empty}) {
    ExpectBatchMatchesScalar(q, layout, data, 2048);
  }

  // NaN keys fail even the (-inf, inf) predicate — ordered compares.
  std::string nan_rec(layout.record_size, '\0');
  layout.SetKey(nan_rec.data(), 0,
                std::numeric_limits<double>::quiet_NaN());
  uint32_t idx = 0;
  EXPECT_FALSE(all.Matches(layout, nan_rec.data()));
  EXPECT_EQ(all.MatchBatch(layout, nan_rec.data(), 1, &idx), 0u);
}

TEST(MatchBatchTest, GatherKeyColumnMatchesLayoutKey) {
  storage::RecordLayout layout = SaleRecord::Layout2D();
  const size_t n = 1537;
  std::string data = MakeAdversarialRecords(layout, n, 23);
  std::vector<double> col(n);
  for (size_t d = 0; d < 2; ++d) {
    sampling::GatherKeyColumn(layout, data.data(), n, d, col.data());
    for (size_t i = 0; i < n; ++i) {
      double want = layout.Key(data.data() + i * layout.record_size, d);
      // Bit comparison: NaNs must gather as-is.
      uint64_t wbits, gbits;
      std::memcpy(&wbits, &want, 8);
      std::memcpy(&gbits, &col[i], 8);
      EXPECT_EQ(gbits, wbits) << "dim=" << d << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Sampler byte streams across forced dispatch levels
// ---------------------------------------------------------------------------

class DispatchStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    relation::SaleGenOptions gen;
    gen.num_records = 1500;
    gen.seed = 29;
    ASSERT_TRUE(relation::GenerateSaleRelation(env_.get(), "sale", gen).ok());
    core::AceBuildOptions build;
    build.page_size = 4096;
    build.key_dims = 1;
    build.seed = 31;
    build.sort.memory_budget_bytes = 1 << 20;
    layout_ = SaleRecord::Layout1D();
    ASSERT_TRUE(core::BuildAceTree(env_.get(), "sale", "sale.ace", layout_,
                                   build)
                    .ok());
    tree_ = ValueOrDie(core::AceTree::Open(env_.get(), "sale.ace", layout_));
  }

  std::string DrainAt(CpuLevel level) {
    ScopedCpuLevel scoped(level);
    core::AceSampler sampler(tree_.get(),
                             RangeQuery::OneDim(15000.0, 85000.0),
                             /*seed=*/77);
    std::string bytes;
    while (!sampler.done()) {
      SampleBatch batch = ValueOrDie(sampler.NextBatch());
      bytes += batch.data;
    }
    return bytes;
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  std::unique_ptr<core::AceTree> tree_;
};

TEST_F(DispatchStreamTest, SampleStreamIsByteIdenticalAtEveryLevel) {
  const std::string scalar_bytes = DrainAt(CpuLevel::kScalar);
  ASSERT_FALSE(scalar_bytes.empty());
  const CpuLevel detected = util::DetectCpuLevel();
  for (int l = 1; l <= static_cast<int>(detected); ++l) {
    EXPECT_EQ(DrainAt(static_cast<CpuLevel>(l)), scalar_bytes)
        << "level=" << util::CpuLevelName(static_cast<CpuLevel>(l));
  }
}

// ---------------------------------------------------------------------------
// Aggregator: the batch fold vs per-record reference folds
// ---------------------------------------------------------------------------

SampleBatch MakeAmountBatch(size_t n, uint64_t seed) {
  SampleBatch batch;
  batch.record_size = SaleRecord::kSize;
  batch.Reserve(n);
  Pcg64 rng(seed);
  char rec[SaleRecord::kSize];
  for (size_t i = 0; i < n; ++i) {
    SaleRecord r;
    r.amount = rng.DoubleInRange(0.0, 10000.0);
    r.cust = rng.Below(8);  // GROUP BY key
    r.row_id = i;
    r.EncodeTo(rec);
    batch.Append(rec);
  }
  return batch;
}

double AmountOf(const char* rec) {
  return DecodeDouble(rec + SaleRecord::kAmountOffset);
}

/// The aggregator's AVG half-width, recomputed from reference moments.
double ReferenceHalfWidth(const RunningStats& ref, uint64_t population) {
  const double fpc =
      std::sqrt(static_cast<double>(population - ref.count()) /
                static_cast<double>(population - 1));
  return NormalCriticalValue(0.95) * ref.stderr_mean() * fpc;
}

TEST(AggregatorEquivalenceTest, AccessorMatchesFunctionWithinRounding) {
  // The aggregator folds batch moments and merges (one divide per batch);
  // the reference is a per-record Welford fold. Same moments, different
  // association: equal to relative rounding error.
  constexpr uint64_t kPopulation = 100000;
  RunningStats ref;
  sampling::OnlineAggregator agg(
      FieldAccessor::Double(SaleRecord::kAmountOffset), kPopulation);
  for (uint64_t seed : {1u, 2u, 3u}) {
    SampleBatch batch = MakeAmountBatch(997, seed);  // odd: exercises tails
    for (size_t i = 0; i < batch.count(); ++i) {
      ref.Add(AmountOf(batch.record(i)));
    }
    agg.Consume(batch);
  }
  ASSERT_EQ(agg.samples_seen(), ref.count());
  EXPECT_NEAR(agg.Avg().value, ref.mean(), 1e-9 * std::abs(ref.mean()));
  const double half_width = ReferenceHalfWidth(ref, kPopulation);
  EXPECT_NEAR(agg.Avg().half_width, half_width, 1e-9 * half_width);
  const double sum = ref.mean() * static_cast<double>(kPopulation);
  EXPECT_NEAR(agg.Sum().value, sum, 1e-9 * std::abs(sum));
}

TEST(AggregatorEquivalenceTest, CountStyleConstOneIsExact) {
  // COUNT folds the constant 1.0: the batch fold and the per-record
  // reference both give mean exactly 1 and variance exactly 0.
  constexpr uint64_t kPopulation = 5000;
  RunningStats ref;
  sampling::OnlineAggregator agg(FieldAccessor::ConstOne(), kPopulation);
  SampleBatch batch = MakeAmountBatch(513, 9);
  for (size_t i = 0; i < batch.count(); ++i) ref.Add(1.0);
  agg.Consume(batch);
  EXPECT_EQ(agg.Avg().value, ref.mean());
  EXPECT_EQ(agg.Avg().value, 1.0);
  EXPECT_EQ(agg.Avg().half_width, 0.0);
  EXPECT_EQ(agg.Sum().value, static_cast<double>(kPopulation));
}

TEST(AggregatorEquivalenceTest, GroupedAccessorIsBitIdentical) {
  // The grouped aggregator folds record by record in batch order, so a
  // per-group fold written out here must match it bit for bit.
  constexpr uint64_t kPopulation = 20000;
  sampling::GroupedAggregator agg(
      FieldAccessor::Uint64(SaleRecord::kCustOffset),
      FieldAccessor::Double(SaleRecord::kAmountOffset), kPopulation);
  SampleBatch batch = MakeAmountBatch(1201, 13);
  agg.Consume(batch);

  struct Fold {
    uint64_t n = 0;
    double sum = 0.0;
    double sumsq = 0.0;
  };
  std::map<uint64_t, Fold> folds;
  for (size_t i = 0; i < batch.count(); ++i) {
    const char* rec = batch.record(i);
    const double x = AmountOf(rec);
    Fold& f = folds[DecodeFixed64(rec + SaleRecord::kCustOffset)];
    ++f.n;
    f.sum += x;
    f.sumsq += x * x;
  }
  const double z = NormalCriticalValue(0.95);
  const double n = static_cast<double>(batch.count());
  const double pop = static_cast<double>(kPopulation);

  auto groups = agg.Groups();
  ASSERT_EQ(groups.size(), folds.size());
  size_t i = 0;
  for (const auto& [key, f] : folds) {
    const double group_n = static_cast<double>(f.n);
    const double var = (f.sumsq - f.sum * f.sum / group_n) / (group_n - 1);
    EXPECT_EQ(groups[i].group, key);
    EXPECT_EQ(groups[i].samples, f.n);
    EXPECT_EQ(groups[i].avg.value, f.sum / group_n);
    EXPECT_EQ(groups[i].avg.half_width,
              z * std::sqrt(std::max(0.0, var) / group_n));
    EXPECT_EQ(groups[i].sum.value, pop * (f.sum / n));
    EXPECT_EQ(groups[i].count.value, pop * (group_n / n));
    ++i;
  }
}

}  // namespace
}  // namespace msv
