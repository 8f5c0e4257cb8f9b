#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/coding.h"
#include "util/cpu.h"
#include "util/crc32c.h"
#include "util/numeric.h"
#include "util/random.h"
#include "util/reservoir.h"
#include "util/result.h"
#include "util/stats.h"
#include "util/status.h"

namespace msv {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::NotFound("x");
  Status copy = s;
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_TRUE(s.IsNotFound());
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsNotFound());
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("").IsResourceExhausted());
  EXPECT_TRUE(Status::FailedPrecondition("").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("").IsInternal());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Corruption("bad"); };
  auto wrapper = [&]() -> Status {
    MSV_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsCorruption());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(3), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(3), 3);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 5;
  };
  auto chain = [&](bool fail) -> Result<int> {
    MSV_ASSIGN_OR_RETURN(int v, produce(fail));
    return v + 1;
  };
  EXPECT_EQ(*chain(false), 6);
  EXPECT_TRUE(chain(true).status().IsInternal());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(4);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 4);
}

// ---------------------------------------------------------------------------
// Coding
// ---------------------------------------------------------------------------

TEST(CodingTest, RoundTrips) {
  char buf[8];
  EncodeFixed32(buf, 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed32(buf), 0xdeadbeefu);
  EncodeFixed64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(DecodeFixed64(buf), 0x0123456789abcdefULL);
  EncodeDouble(buf, -1234.5678);
  EXPECT_EQ(DecodeDouble(buf), -1234.5678);
}

TEST(ExactUintTest, AcceptsOnlyIntegersInZeroToTwoToThe53) {
  EXPECT_EQ(ExactUint(0.0), std::optional<uint64_t>(0));
  EXPECT_EQ(ExactUint(42.0), std::optional<uint64_t>(42));
  EXPECT_EQ(ExactUint(9007199254740992.0),
            std::optional<uint64_t>(kMaxExactUint));
  for (double bad : {-1.0, 1.5, 9007199254740994.0, 1e23,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_FALSE(ExactUint(bad).has_value()) << bad;
  }
}

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

// Every dispatch level, including the ones the host clamps or cannot
// accelerate, must give the same answer.
constexpr util::CpuLevel kAllCpuLevels[] = {
    util::CpuLevel::kScalar, util::CpuLevel::kSse2, util::CpuLevel::kAvx2};

// Bit-at-a-time reference, independent of both kernels' tables.
uint32_t BitwiseCrc32c(const char* data, size_t n, uint32_t init) {
  uint32_t crc = ~init;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
  }
  return ~crc;
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 section B.4, at every dispatch level and through Crc32c.
  std::vector<char> zeros(32, 0);
  std::vector<char> ones(32, static_cast<char>(0xff));
  std::vector<char> up(32), down(32);
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  for (util::CpuLevel level : kAllCpuLevels) {
    SCOPED_TRACE(util::CpuLevelName(level));
    EXPECT_EQ(Crc32cAt(level, zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(Crc32cAt(level, ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(Crc32cAt(level, up.data(), up.size()), 0x46DD794Eu);
    EXPECT_EQ(Crc32cAt(level, down.data(), down.size()), 0x113FDB5Cu);
    EXPECT_EQ(Crc32cAt(level, "123456789", 9), 0xE3069283u);
  }
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, KernelsAgreeWithBitwiseReference) {
  // Lengths cross the 3 x 8192 and 3 x 256 block edges of the hardware
  // loop; offsets cover every alignment of its 8-byte words.
  Pcg64 rng(0xc5c32c);
  std::vector<char> buf(70'000 + 64);
  for (char& c : buf) c = static_cast<char>(rng.Below(256));
  std::vector<size_t> lengths = {0,         1,         7,         8,
                                 9,         255,       767,       768,
                                 769,       1023,      24'575,    24'576,
                                 24'577,    25'343,    25'344,    25'345,
                                 49'152,    70'000};
  for (int i = 0; i < 60; ++i) lengths.push_back(rng.Below(70'001));
  for (size_t i = 0; i < lengths.size(); ++i) {
    const size_t n = lengths[i];
    const size_t offset = i % 64;
    const char* p = buf.data() + offset;
    const uint32_t init = i % 2 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    const uint32_t want = BitwiseCrc32c(p, n, init);
    const size_t split = n == 0 ? 0 : rng.Below(n + 1);
    for (util::CpuLevel level : kAllCpuLevels) {
      SCOPED_TRACE(std::string(util::CpuLevelName(level)) + " n=" +
                   std::to_string(n) + " offset=" + std::to_string(offset));
      EXPECT_EQ(Crc32cAt(level, p, n, init), want);
      // A checksum chained across a split equals the whole.
      uint32_t head = Crc32cAt(level, p, split, init);
      EXPECT_EQ(Crc32cAt(level, p + split, n - split, head), want);
    }
  }
  // Every start offset 0..63 over one length that enters both passes.
  for (size_t offset = 0; offset < 64; ++offset) {
    const char* p = buf.data() + offset;
    const uint32_t want = BitwiseCrc32c(p, 25'000, 7);
    for (util::CpuLevel level : kAllCpuLevels) {
      EXPECT_EQ(Crc32cAt(level, p, 25'000, 7), want)
          << util::CpuLevelName(level) << " offset=" << offset;
    }
  }
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  size_t n = 44;
  uint32_t whole = Crc32c(data, n);
  uint32_t part = Crc32c(data, 10);
  // Extending is crc-of-concatenation only with the right chaining; our
  // API chains by passing the previous value.
  uint32_t chained = Crc32c(data + 10, n - 10, part);
  EXPECT_EQ(chained, whole);
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data(100, 'x');
  uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size(); i += 13) {
    std::string mutated = data;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x4);
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), clean) << i;
  }
}

// ---------------------------------------------------------------------------
// Pcg64
// ---------------------------------------------------------------------------

TEST(Pcg64Test, DeterministicForSeed) {
  Pcg64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg64Test, DifferentSeedsDiffer) {
  Pcg64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(Pcg64Test, BelowStaysInBounds) {
  Pcg64 rng(99);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(Pcg64Test, BelowIsRoughlyUniform) {
  Pcg64 rng(7);
  const uint64_t kBuckets = 10;
  const int kDraws = 100000;
  std::vector<uint64_t> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Below(kBuckets)];
  std::vector<double> expected(kBuckets, kDraws / double(kBuckets));
  double stat = ChiSquareStatistic(counts, expected);
  EXPECT_GT(ChiSquarePValue(stat, kBuckets - 1), 1e-4) << "stat=" << stat;
}

TEST(Pcg64Test, NextDoubleInUnitInterval) {
  Pcg64 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg64Test, ForkedStreamsAreIndependentlySeeded) {
  Pcg64 parent(11);
  Pcg64 c1 = parent.Fork();
  Pcg64 c2 = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.Next() == c2.Next());
  EXPECT_LT(same, 2);
}

TEST(ShuffleTest, PermutesAllElements) {
  Pcg64 rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  Shuffle(&v, &rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ShuffleTest, EveryPositionUniform) {
  // Element 0's final position should be uniform over n slots.
  const size_t n = 6;
  const int trials = 60000;
  std::vector<uint64_t> counts(n, 0);
  Pcg64 rng(17);
  for (int t = 0; t < trials; ++t) {
    std::vector<int> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<int>(i);
    Shuffle(&v, &rng);
    for (size_t i = 0; i < n; ++i) {
      if (v[i] == 0) ++counts[i];
    }
  }
  std::vector<double> expected(n, trials / double(n));
  double stat = ChiSquareStatistic(counts, expected);
  EXPECT_GT(ChiSquarePValue(stat, n - 1), 1e-4);
}

TEST(SampleWithoutReplacementTest, ProducesDistinctSubset) {
  Pcg64 rng(31);
  auto s = SampleWithoutReplacement(100, 30, &rng);
  EXPECT_EQ(s.size(), 30u);
  std::set<uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 30u);
  for (uint64_t v : s) EXPECT_LT(v, 100u);
}

TEST(SampleWithoutReplacementTest, FullRangeIsPermutation) {
  Pcg64 rng(32);
  auto s = SampleWithoutReplacement(50, 50, &rng);
  std::set<uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 50u);
}

TEST(SampleWithoutReplacementTest, MarginalsUniform) {
  Pcg64 rng(33);
  const uint64_t n = 20, k = 5;
  const int trials = 40000;
  std::vector<uint64_t> counts(n, 0);
  for (int t = 0; t < trials; ++t) {
    for (uint64_t v : SampleWithoutReplacement(n, k, &rng)) ++counts[v];
  }
  std::vector<double> expected(n, trials * double(k) / double(n));
  double stat = ChiSquareStatistic(counts, expected);
  EXPECT_GT(ChiSquarePValue(stat, n - 1), 1e-4);
}

// ---------------------------------------------------------------------------
// LazyShuffle
// ---------------------------------------------------------------------------

TEST(LazyShuffleTest, EmitsExactPermutation) {
  Pcg64 rng(8);
  LazyShuffle shuffle(1000);
  std::set<uint64_t> seen;
  while (!shuffle.done()) {
    uint64_t v = shuffle.Next(&rng);
    EXPECT_LT(v, 1000u);
    EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(LazyShuffleTest, FirstDrawUniform) {
  const uint64_t n = 12;
  const int trials = 60000;
  std::vector<uint64_t> counts(n, 0);
  Pcg64 rng(9);
  for (int t = 0; t < trials; ++t) {
    LazyShuffle shuffle(n);
    ++counts[shuffle.Next(&rng)];
  }
  std::vector<double> expected(n, trials / double(n));
  double stat = ChiSquareStatistic(counts, expected);
  EXPECT_GT(ChiSquarePValue(stat, n - 1), 1e-4);
}

TEST(LazyShuffleTest, RemainingCountsDown) {
  Pcg64 rng(10);
  LazyShuffle shuffle(5);
  for (uint64_t r = 5; r > 0; --r) {
    EXPECT_EQ(shuffle.remaining(), r);
    shuffle.Next(&rng);
  }
  EXPECT_TRUE(shuffle.done());
}

// ---------------------------------------------------------------------------
// ReservoirSampler
// ---------------------------------------------------------------------------

TEST(ReservoirTest, ExhaustiveWhenStreamFits) {
  Pcg64 rng(1);
  ReservoirSampler<int> res(10);
  for (int i = 0; i < 7; ++i) res.Offer(i, &rng);
  EXPECT_TRUE(res.IsExhaustive());
  EXPECT_EQ(res.sample().size(), 7u);
  EXPECT_EQ(res.seen(), 7u);
}

TEST(ReservoirTest, CapacityBoundHolds) {
  Pcg64 rng(2);
  ReservoirSampler<int> res(16);
  for (int i = 0; i < 10000; ++i) res.Offer(i, &rng);
  EXPECT_FALSE(res.IsExhaustive());
  EXPECT_EQ(res.sample().size(), 16u);
  EXPECT_EQ(res.seen(), 10000u);
}

TEST(ReservoirTest, InclusionIsUniform) {
  // Each of n elements should end up in the reservoir with probability
  // k/n.
  const int n = 40, k = 8, trials = 40000;
  std::vector<uint64_t> counts(n, 0);
  Pcg64 rng(3);
  for (int t = 0; t < trials; ++t) {
    ReservoirSampler<int> res(k);
    for (int i = 0; i < n; ++i) res.Offer(i, &rng);
    for (int v : res.sample()) ++counts[v];
  }
  std::vector<double> expected(n, trials * double(k) / double(n));
  double stat = ChiSquareStatistic(counts, expected);
  EXPECT_GT(ChiSquarePValue(stat, n - 1), 1e-4) << "stat=" << stat;
}

TEST(ReservoirTest, TakeSampleMoves) {
  Pcg64 rng(4);
  ReservoirSampler<std::unique_ptr<int>> res(2);
  res.Offer(std::make_unique<int>(1), &rng);
  res.Offer(std::make_unique<int>(2), &rng);
  auto out = std::move(res).TakeSample();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(*out[0] + *out[1], 3);
}

// ---------------------------------------------------------------------------
// RunningStats & distributions
// ---------------------------------------------------------------------------

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats a, b, all;
  Pcg64 rng(12);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble() * 10;
    (i < 400 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(StatsTest, NormalCriticalValues) {
  EXPECT_NEAR(NormalCriticalValue(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(NormalCriticalValue(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(NormalCriticalValue(0.50), 0.674490, 1e-4);
}

TEST(StatsTest, NormalCdfSymmetry) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959964) - NormalCdf(-1.959964), 0.95, 1e-4);
}

TEST(StatsTest, ChiSquarePValueSanity) {
  // For k dof, mean of the distribution is k: p-value near 0.5-ish.
  double p = ChiSquarePValue(10.0, 10);
  EXPECT_GT(p, 0.3);
  EXPECT_LT(p, 0.7);
  // Huge statistic: essentially zero.
  EXPECT_LT(ChiSquarePValue(500.0, 10), 1e-6);
  // Tiny statistic: essentially one.
  EXPECT_GT(ChiSquarePValue(0.5, 10), 0.99);
}

}  // namespace
}  // namespace msv
