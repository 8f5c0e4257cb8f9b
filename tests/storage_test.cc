#include <cstring>
#include <set>

#include "gtest/gtest.h"
#include "io/env.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "test_util.h"

namespace msv::storage {
namespace {

using msv::testing::ValueOrDie;

// ---------------------------------------------------------------------------
// RecordLayout / SaleRecord
// ---------------------------------------------------------------------------

TEST(RecordLayoutTest, Validation) {
  EXPECT_TRUE((RecordLayout{0, {0}}.Validate().IsInvalidArgument()));
  EXPECT_TRUE((RecordLayout{100, {}}.Validate().IsInvalidArgument()));
  EXPECT_TRUE((RecordLayout{100, {96}}.Validate().IsInvalidArgument()));
  EXPECT_TRUE(
      (RecordLayout{100, {0, 8, 16, 24, 32}}.Validate().IsInvalidArgument()));
  MSV_EXPECT_OK((RecordLayout{100, {0, 8}}.Validate()));
}

TEST(SaleRecordTest, EncodeDecodeRoundTrip) {
  SaleRecord rec;
  rec.day = 1234.5;
  rec.amount = 99.25;
  rec.cust = 17;
  rec.part = 23;
  rec.supp = 5;
  rec.row_id = 987654321;
  char buf[SaleRecord::kSize];
  rec.EncodeTo(buf);
  SaleRecord back = SaleRecord::DecodeFrom(buf);
  EXPECT_EQ(back.day, rec.day);
  EXPECT_EQ(back.amount, rec.amount);
  EXPECT_EQ(back.cust, rec.cust);
  EXPECT_EQ(back.part, rec.part);
  EXPECT_EQ(back.supp, rec.supp);
  EXPECT_EQ(back.row_id, rec.row_id);
}

TEST(SaleRecordTest, LayoutKeysMatchFields) {
  SaleRecord rec;
  rec.day = 42.0;
  rec.amount = 7.5;
  char buf[SaleRecord::kSize];
  rec.EncodeTo(buf);
  RecordLayout l1 = SaleRecord::Layout1D();
  RecordLayout l2 = SaleRecord::Layout2D();
  EXPECT_EQ(l1.Key(buf, 0), 42.0);
  EXPECT_EQ(l2.Key(buf, 0), 42.0);
  EXPECT_EQ(l2.Key(buf, 1), 7.5);
  l2.SetKey(buf, 1, 9.0);
  EXPECT_EQ(l2.Key(buf, 1), 9.0);
}

// ---------------------------------------------------------------------------
// HeapFile
// ---------------------------------------------------------------------------

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = io::NewMemEnv(); }

  // Writes n records whose first 8 bytes are the index.
  void WriteFile(const std::string& name, uint64_t n, size_t record_size) {
    auto writer =
        ValueOrDie(HeapFileWriter::Create(env_.get(), name, record_size));
    std::vector<char> rec(record_size, 0);
    for (uint64_t i = 0; i < n; ++i) {
      EncodeFixed64(rec.data(), i);
      MSV_ASSERT_OK(writer->Append(rec.data()));
    }
    EXPECT_EQ(writer->records_written(), n);
    MSV_ASSERT_OK(writer->Finish());
  }

  std::unique_ptr<io::Env> env_;
};

TEST_F(HeapFileTest, WriteAndRandomRead) {
  WriteFile("f", 100, 24);
  auto file = ValueOrDie(HeapFile::Open(env_.get(), "f"));
  EXPECT_EQ(file->record_count(), 100u);
  EXPECT_EQ(file->record_size(), 24u);
  char rec[24];
  MSV_ASSERT_OK(file->ReadRecord(57, rec));
  EXPECT_EQ(DecodeFixed64(rec), 57u);
  EXPECT_TRUE(file->ReadRecord(100, rec).IsOutOfRange());
}

TEST_F(HeapFileTest, ScannerSeesAllInOrder) {
  WriteFile("f", 1000, 16);
  auto file = ValueOrDie(HeapFile::Open(env_.get(), "f"));
  auto scanner = file->NewScanner(64);  // tiny chunks to exercise refill
  for (uint64_t i = 0; i < 1000; ++i) {
    const char* rec = ValueOrDie(scanner.Next());
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(DecodeFixed64(rec), i);
  }
  EXPECT_EQ(ValueOrDie(scanner.Next()), nullptr);
  EXPECT_EQ(ValueOrDie(scanner.Next()), nullptr);  // idempotent at end
}

TEST_F(HeapFileTest, EmptyFile) {
  WriteFile("f", 0, 8);
  auto file = ValueOrDie(HeapFile::Open(env_.get(), "f"));
  EXPECT_EQ(file->record_count(), 0u);
  auto scanner = file->NewScanner();
  EXPECT_EQ(ValueOrDie(scanner.Next()), nullptr);
}

TEST_F(HeapFileTest, CorruptMagicRejected) {
  WriteFile("f", 10, 8);
  auto raw = ValueOrDie(env_->OpenFile("f", false));
  MSV_ASSERT_OK(raw->Write(0, "XXXXXXXX", 8));
  auto r = HeapFile::Open(env_.get(), "f");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(HeapFileTest, TruncatedFileRejected) {
  WriteFile("f", 10, 8);
  auto raw = ValueOrDie(env_->OpenFile("f", false));
  MSV_ASSERT_OK(raw->Truncate(kHeapFileHeaderSize + 5 * 8));
  auto r = HeapFile::Open(env_.get(), "f");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(HeapFileTest, FileBytesAccountsHeaderAndRecords) {
  WriteFile("f", 10, 32);
  auto file = ValueOrDie(HeapFile::Open(env_.get(), "f"));
  EXPECT_EQ(file->file_bytes(), kHeapFileHeaderSize + 10 * 32);
}

TEST_F(HeapFileTest, WriterBufferSmallerThanRecordStillWorks) {
  auto writer = ValueOrDie(
      HeapFileWriter::Create(env_.get(), "f", 64, /*buffer_bytes=*/16));
  std::vector<char> rec(64, 'a');
  for (int i = 0; i < 10; ++i) MSV_ASSERT_OK(writer->Append(rec.data()));
  MSV_ASSERT_OK(writer->Finish());
  auto file = ValueOrDie(HeapFile::Open(env_.get(), "f"));
  EXPECT_EQ(file->record_count(), 10u);
}

// ---------------------------------------------------------------------------
// Generator + workload
// ---------------------------------------------------------------------------

TEST(SaleGeneratorTest, GeneratesRequestedCount) {
  auto env = io::NewMemEnv();
  auto sale = msv::testing::MakeSale(env.get(), "sale", 5000, 1);
  EXPECT_EQ(sale->record_count(), 5000u);
  EXPECT_EQ(sale->record_size(), SaleRecord::kSize);

  // Row ids are 0..n-1, keys inside the domain.
  auto scanner = sale->NewScanner();
  std::set<uint64_t> ids;
  for (;;) {
    const char* rec = ValueOrDie(scanner.Next());
    if (rec == nullptr) break;
    SaleRecord r = SaleRecord::DecodeFrom(rec);
    ids.insert(r.row_id);
    EXPECT_GE(r.day, 0.0);
    EXPECT_LT(r.day, 100000.0);
    EXPECT_GE(r.amount, 0.0);
    EXPECT_LT(r.amount, 10000.0);
  }
  EXPECT_EQ(ids.size(), 5000u);
  EXPECT_EQ(*ids.rbegin(), 4999u);
}

TEST(SaleGeneratorTest, DeterministicForSeed) {
  auto env = io::NewMemEnv();
  msv::testing::MakeSale(env.get(), "a", 100, 7);
  msv::testing::MakeSale(env.get(), "b", 100, 7);
  msv::testing::MakeSale(env.get(), "c", 100, 8);
  auto fa = ValueOrDie(HeapFile::Open(env.get(), "a"));
  auto fb = ValueOrDie(HeapFile::Open(env.get(), "b"));
  auto fc = ValueOrDie(HeapFile::Open(env.get(), "c"));
  char ra[SaleRecord::kSize], rb[SaleRecord::kSize], rc[SaleRecord::kSize];
  bool any_diff_c = false;
  for (uint64_t i = 0; i < 100; ++i) {
    MSV_ASSERT_OK(fa->ReadRecord(i, ra));
    MSV_ASSERT_OK(fb->ReadRecord(i, rb));
    MSV_ASSERT_OK(fc->ReadRecord(i, rc));
    EXPECT_EQ(std::memcmp(ra, rb, SaleRecord::kSize), 0);
    if (std::memcmp(ra, rc, SaleRecord::kSize) != 0) any_diff_c = true;
  }
  EXPECT_TRUE(any_diff_c);
}

TEST(SaleGeneratorTest, RejectsBadOptions) {
  auto env = io::NewMemEnv();
  relation::SaleGenOptions options;
  options.num_records = 0;
  EXPECT_TRUE(relation::GenerateSaleRelation(env.get(), "x", options)
                  .IsInvalidArgument());
  options.num_records = 10;
  options.day_max = options.day_min;
  EXPECT_TRUE(relation::GenerateSaleRelation(env.get(), "x", options)
                  .IsInvalidArgument());
}

class WorkloadSelectivityTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(WorkloadSelectivityTest, EmpiricalSelectivityNearTarget) {
  auto [selectivity, dims] = GetParam();
  auto env = io::NewMemEnv();
  auto sale = msv::testing::MakeSale(env.get(), "sale", 40000, 3);
  relation::WorkloadGenerator gen(
      {{0.0, 100000.0}, {0.0, 10000.0}}, /*seed=*/5);
  RecordLayout layout =
      dims == 1 ? SaleRecord::Layout1D() : SaleRecord::Layout2D();
  double total = 0;
  const int kQueries = 10;
  for (int i = 0; i < kQueries; ++i) {
    auto q = gen.Query(selectivity, dims);
    uint64_t matches =
        ValueOrDie(relation::CountMatches(*sale, layout, q));
    total += static_cast<double>(matches) / 40000.0;
  }
  double avg = total / kQueries;
  EXPECT_NEAR(avg, selectivity, selectivity * 0.35 + 0.001)
      << "dims=" << dims;
}

INSTANTIATE_TEST_SUITE_P(
    Selectivities, WorkloadSelectivityTest,
    ::testing::Combine(::testing::Values(0.0025, 0.025, 0.25),
                       ::testing::Values(size_t{1}, size_t{2})));

TEST(WorkloadTest, QueriesStayInsideDomain) {
  relation::WorkloadGenerator gen({{10.0, 20.0}, {-5.0, 5.0}}, 9);
  for (int i = 0; i < 100; ++i) {
    auto q = gen.Query(0.1, 2);
    EXPECT_GE(q.bounds[0].lo, 10.0);
    EXPECT_LE(q.bounds[0].hi, 20.0);
    EXPECT_GE(q.bounds[1].lo, -5.0);
    EXPECT_LE(q.bounds[1].hi, 5.0);
  }
}

TEST(RangeQueryTest, MatchesAndValidate) {
  RecordLayout layout = SaleRecord::Layout2D();
  SaleRecord rec;
  rec.day = 50;
  rec.amount = 5;
  char buf[SaleRecord::kSize];
  rec.EncodeTo(buf);

  auto q1 = sampling::RangeQuery::OneDim(40, 60);
  EXPECT_TRUE(q1.Matches(layout, buf));
  auto q2 = sampling::RangeQuery::OneDim(51, 60);
  EXPECT_FALSE(q2.Matches(layout, buf));
  auto q3 = sampling::RangeQuery::TwoDim(40, 60, 6, 10);
  EXPECT_FALSE(q3.Matches(layout, buf));
  auto q4 = sampling::RangeQuery::TwoDim(50, 50, 5, 5);  // closed bounds
  EXPECT_TRUE(q4.Matches(layout, buf));

  MSV_EXPECT_OK(q1.Validate(layout));
  auto bad = sampling::RangeQuery::OneDim(10, 5);
  EXPECT_TRUE(bad.Validate(layout).IsInvalidArgument());
  sampling::RangeQuery too_many;
  too_many.dims = 3;
  EXPECT_TRUE(too_many.Validate(layout).IsInvalidArgument());
}

}  // namespace
}  // namespace msv::storage
