// The updatable view's LSM write path: memtable/WAL/sealed-run/manifest
// mechanics, crash recovery (power loss at every fault index loses no
// acknowledged insert and always leaves an openable tree), and
// TSan-exercised concurrent insert/sample/compaction.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ingest.h"
#include "core/sample_view.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "storage/record.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/random.h"

namespace msv::core {
namespace {

using msv::testing::AllDistinct;
using msv::testing::MakeSale;
using msv::testing::ValueOrDie;
using storage::SaleRecord;

constexpr uint64_t kBase = 2000;

MaterializedSampleView::Options SmallViewOptions() {
  MaterializedSampleView::Options options;
  options.build.page_size = 4096;
  options.build.key_dims = 1;
  options.build.seed = 99;
  options.build.sort.memory_budget_bytes = 1 << 20;
  options.ingest.memtable_max_records = 100;
  // Deterministic tests drive flush/compaction explicitly.
  options.ingest.background_compaction = false;
  return options;
}

sampling::RangeQuery AllDays() {
  return sampling::RangeQuery::OneDim(-1.0, 2e9);
}

// A sealed run's CollectMatches binary-searches the slice of its first
// key; it must return exactly what the batched predicate kernel returns
// over the whole run, in the same (key) order.
TEST(MemtableTest, SealedRunSliceEqualsMatchBatch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  // 24-byte records: key 0 at 0, key 1 at 8, a row id at 16.
  const storage::RecordLayout layout{24, {0, 8}};
  auto encode = [](double k0, double k1, uint64_t id) {
    std::string rec(24, '\0');
    EncodeDouble(rec.data(), k0);
    EncodeDouble(rec.data() + 8, k1);
    EncodeFixed64(rec.data() + 16, id);
    return rec;
  };
  auto reference = [&](const Memtable& run, const sampling::RangeQuery& q) {
    std::vector<uint32_t> idx(run.count());
    const size_t n =
        q.MatchBatch(layout, run.record(0), run.count(), idx.data());
    std::string bytes;
    for (size_t i = 0; i < n; ++i) bytes.append(run.record(idx[i]), 24);
    return bytes;
  };

  Pcg64 rng(17);
  for (bool with_nan : {false, true}) {
    Memtable live(1, 24);
    for (uint64_t id = 0; id < 500; ++id) {
      // Few distinct keys, so most keys repeat and many equal a bound.
      double k0 = static_cast<double>(rng.Below(20));
      if (id % 97 == 0) k0 = -kInf;
      if (id % 89 == 0) k0 = kInf;
      if (with_nan && id % 101 == 0) k0 = kNaN;
      const std::string rec =
          encode(k0, static_cast<double>(rng.Below(10)), id);
      live.Append(rec.data(), 1);
    }
    const std::shared_ptr<const Memtable> run = live.Sealed(layout);
    const std::vector<std::pair<double, double>> bounds = {
        {5, 10},     {5, 5},     {-kInf, 3}, {15, kInf}, {-kInf, kInf},
        {100, 200},  {-50, -1},  {10.5, 10.7}, {-kInf, -kInf},
        {kInf, kInf}, {kNaN, 10}, {3, kNaN}, {0, 19}};
    for (const auto& [lo, hi] : bounds) {
      for (size_t dims : {1u, 2u}) {
        sampling::RangeQuery q = sampling::RangeQuery::OneDim(lo, hi);
        if (dims == 2) {
          q.dims = 2;
          q.bounds[1] = sampling::Interval{2, 6};
        }
        sampling::SampleBatch got;
        run->CollectMatches(layout, q, &got);
        EXPECT_EQ(got.record_size, 24u);
        EXPECT_EQ(got.data, reference(*run, q))
            << "[" << lo << ", " << hi << "] dims " << dims << " nan "
            << with_nan;
        sampling::SampleBatch live_got;
        live.CollectMatches(layout, q, &live_got);
        EXPECT_EQ(live_got.data, reference(live, q));
      }
    }
  }
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    MakeSale(env_.get(), "sale", kBase, /*seed=*/5);
    layout_ = SaleRecord::Layout1D();
    options_ = SmallViewOptions();
    view_ = ValueOrDie(MaterializedSampleView::Create(env_.get(), "v", "sale",
                                                      layout_, options_));
  }

  /// Encodes `n` fresh records with row ids continuing after the base
  /// and DAY values inside [lo, hi).
  std::string MakeInserts(uint64_t n, double lo = 0.0, double hi = 100000.0,
                          uint64_t seed = 17) {
    Pcg64 rng(seed + next_insert_id_);
    std::string out;
    char buf[SaleRecord::kSize];
    for (uint64_t i = 0; i < n; ++i) {
      SaleRecord rec;
      rec.day = rng.DoubleInRange(lo, hi);
      rec.amount = rng.DoubleInRange(0, 10000);
      rec.row_id = kBase + next_insert_id_++;
      rec.EncodeTo(buf);
      out.append(buf, sizeof(buf));
    }
    return out;
  }

  /// Inserts `total` records in `chunk`-sized Insert() calls, so the
  /// memtable threshold is crossed mid-stream like a live workload.
  void InsertChunked(uint64_t total, uint64_t chunk = 50) {
    while (total > 0) {
      uint64_t n = std::min(total, chunk);
      std::string batch = MakeInserts(n);
      MSV_ASSERT_OK(view_->Insert(batch.data(), n));
      total -= n;
    }
  }

  std::vector<uint64_t> DrainAll() {
    auto sampler = ValueOrDie(view_->Sample(AllDays(), ++seed_));
    return msv::testing::DrainRowIds(sampler.get());
  }

  /// All row ids the view should contain: the base plus every insert
  /// made through MakeInserts so far.
  std::set<uint64_t> ExpectedIds() const {
    std::set<uint64_t> ids;
    for (uint64_t i = 0; i < kBase + next_insert_id_; ++i) ids.insert(i);
    return ids;
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  MaterializedSampleView::Options options_;
  std::unique_ptr<MaterializedSampleView> view_;
  uint64_t next_insert_id_ = 0;
  uint64_t seed_ = 100;
};

// ---------------------------------------------------------------------------
// Memtable / flush / run mechanics
// ---------------------------------------------------------------------------

TEST_F(IngestTest, MemtableAbsorbsInsertsUntilThreshold) {
  std::string batch = MakeInserts(99);
  MSV_ASSERT_OK(view_->Insert(batch.data(), 99));
  EXPECT_EQ(view_->memtable_records(), 99u);
  EXPECT_EQ(view_->run_count(), 0u);
  EXPECT_EQ(view_->delta_records(), 99u);
}

TEST_F(IngestTest, FlushAtThresholdCreatesSortedRun) {
  InsertChunked(250);
  // 250 inserts with a 100-record memtable: two flushes happened inline.
  EXPECT_EQ(view_->run_count(), 2u);
  EXPECT_EQ(view_->memtable_records(), 50u);
  EXPECT_EQ(view_->delta_records(), 250u);

  // A flush writes no file: each run's WAL is its durable copy, next to
  // the live memtable's WAL.
  std::set<std::string> files;
  for (const std::string& f : ValueOrDie(env_->ListFiles())) {
    if (f.rfind("v.", 0) == 0) files.insert(f);
  }
  EXPECT_EQ(files, (std::set<std::string>{"v.manifest", "v.base.g1",
                                          "v.wal.2", "v.wal.3", "v.wal.4"}));

  // A sealed run holds the memtable's records stably sorted by key 0,
  // under the memtable's id.
  Memtable memtable(7, layout_.record_size);
  std::string batch = MakeInserts(100);
  memtable.Append(batch.data(), 100);
  std::shared_ptr<const Memtable> run = memtable.Sealed(layout_);
  EXPECT_EQ(run->id(), 7u);
  ASSERT_EQ(run->count(), 100u);
  for (uint64_t i = 1; i < run->count(); ++i) {
    EXPECT_LE(layout_.Key(run->record(i - 1), 0),
              layout_.Key(run->record(i), 0));
  }
}

TEST_F(IngestTest, UnifiedDrainCoversMemtableRunsAndTree) {
  InsertChunked(250);
  std::vector<uint64_t> ids = DrainAll();
  EXPECT_TRUE(AllDistinct(ids));
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()), ExpectedIds());
}

TEST_F(IngestTest, CompactFoldsRunsIntoTheTree) {
  InsertChunked(250);
  MSV_ASSERT_OK(view_->Compact());
  // The two full runs are folded; the memtable tail is untouched.
  EXPECT_EQ(view_->base_records(), kBase + 200);
  EXPECT_EQ(view_->run_count(), 0u);
  EXPECT_EQ(view_->memtable_records(), 50u);
  std::vector<uint64_t> ids = DrainAll();
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()), ExpectedIds());
}

TEST_F(IngestTest, RebuildFoldsEverythingAndCleansFiles) {
  InsertChunked(230);
  MSV_ASSERT_OK(view_->Rebuild());
  EXPECT_EQ(view_->base_records(), kBase + 230);
  EXPECT_EQ(view_->delta_records(), 0u);
  EXPECT_EQ(view_->run_count(), 0u);
  // The folded runs' WALs are deleted; exactly one base generation and
  // one (empty) live WAL remain.
  size_t bases = 0, wals = 0;
  for (const std::string& f : ValueOrDie(env_->ListFiles())) {
    if (f.rfind("v.base.g", 0) == 0) ++bases;
    if (f.rfind("v.wal.", 0) == 0) ++wals;
  }
  EXPECT_EQ(bases, 1u);
  EXPECT_EQ(wals, 1u);
  std::vector<uint64_t> ids = DrainAll();
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()), ExpectedIds());
}

TEST_F(IngestTest, InsertsDuringSealedCompactionAreNotLost) {
  // The lost-update window of the old Rebuild(): records arriving after
  // the fold began were silently dropped. Under the LSM design the run
  // set is sealed at compaction start; later inserts land in the live
  // memtable and survive.
  std::string first = MakeInserts(150);
  MSV_ASSERT_OK(view_->Insert(first.data(), 150));
  MSV_ASSERT_OK(view_->Flush());  // seals everything so far into runs
  std::string late = MakeInserts(60);
  MSV_ASSERT_OK(view_->Insert(late.data(), 60));  // arrives "mid-fold"
  MSV_ASSERT_OK(view_->Compact());
  EXPECT_EQ(view_->base_records(), kBase + 150);
  EXPECT_EQ(view_->memtable_records(), 60u);
  std::vector<uint64_t> ids = DrainAll();
  EXPECT_TRUE(AllDistinct(ids));
  EXPECT_EQ(ids.size(), kBase + 210);
}

TEST_F(IngestTest, SamplerSnapshotSurvivesCompaction) {
  std::string batch = MakeInserts(150);
  MSV_ASSERT_OK(view_->Insert(batch.data(), 150));
  auto sampler = ValueOrDie(view_->Sample(AllDays(), 7));
  std::vector<uint64_t> head = msv::testing::TakeRowIds(sampler.get(), 100);
  // Swap the base generation under the live sampler; the old tree file
  // is deleted, but the sampler's shared snapshot keeps streaming.
  MSV_ASSERT_OK(view_->Rebuild());
  std::vector<uint64_t> tail = msv::testing::DrainRowIds(sampler.get());
  std::vector<uint64_t> all = head;
  all.insert(all.end(), tail.begin(), tail.end());
  EXPECT_TRUE(AllDistinct(all));
  EXPECT_EQ(all.size(), kBase + 150);
}

// ---------------------------------------------------------------------------
// Sampler exact-count override
// ---------------------------------------------------------------------------

TEST_F(IngestTest, ExactBaseCountZeroSkipsBaseIo) {
  // A caller who *knows* the base matches nothing can finally say so:
  // exact 0 (distinct from "no override") suppresses all base I/O.
  std::string batch = MakeInserts(50, 200000.0, 300000.0);
  MSV_ASSERT_OK(view_->Insert(batch.data(), 50));
  auto q = sampling::RangeQuery::OneDim(200000.0, 300000.0);  // delta-only
  auto sampler = ValueOrDie(view_->Sample(q, 7, /*exact_base_count=*/0));
  std::vector<uint64_t> ids = msv::testing::DrainRowIds(sampler.get());
  EXPECT_EQ(ids.size(), 50u);
  EXPECT_EQ(sampler->base_leaves_read(), 0u);

  // Without the override the estimator path still probes the tree.
  auto probing = ValueOrDie(view_->Sample(q, 8));
  std::vector<uint64_t> ids2 = msv::testing::DrainRowIds(probing.get());
  EXPECT_EQ(ids2.size(), 50u);
}

TEST_F(IngestTest, ExactBaseCountMakesFullDrainExact) {
  std::string batch = MakeInserts(120);
  MSV_ASSERT_OK(view_->Insert(batch.data(), 120));
  auto sampler =
      ValueOrDie(view_->Sample(AllDays(), 9, /*exact_base_count=*/kBase));
  std::vector<uint64_t> ids = msv::testing::DrainRowIds(sampler.get());
  EXPECT_TRUE(AllDistinct(ids));
  EXPECT_EQ(ids.size(), kBase + 120);
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

TEST_F(IngestTest, ManifestRoundTrips) {
  ViewManifest m;
  m.base_file = "v.base.g7";
  m.next_id = 12;
  m.folded = 9;
  MSV_ASSERT_OK(SaveManifest(env_.get(), "probe.manifest", m));
  ViewManifest loaded =
      ValueOrDie(LoadManifest(env_.get(), "probe.manifest"));
  EXPECT_EQ(loaded.base_file, m.base_file);
  EXPECT_EQ(loaded.next_id, m.next_id);
  EXPECT_EQ(loaded.folded, m.folded);
}

TEST_F(IngestTest, CorruptManifestIsRejected) {
  // Flip one payload byte; the masked CRC must catch it.
  auto file = ValueOrDie(env_->OpenFile("v.manifest", /*create=*/false));
  uint64_t size = ValueOrDie(file->Size());
  std::string contents(size, '\0');
  MSV_ASSERT_OK(file->ReadExact(0, size, contents.data()));
  contents[size - 2] ^= 0x40;
  MSV_ASSERT_OK(file->Write(0, contents.data(), contents.size()));
  auto loaded = LoadManifest(env_.get(), "v.manifest");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  view_.reset();
  auto reopened =
      MaterializedSampleView::Open(env_.get(), "v", layout_, options_);
  EXPECT_FALSE(reopened.ok());
}

// ---------------------------------------------------------------------------
// Reopen / recovery / migration
// ---------------------------------------------------------------------------

TEST_F(IngestTest, ReopenReplaysWalIntoMemtable) {
  std::string batch = MakeInserts(70);
  MSV_ASSERT_OK(view_->Insert(batch.data(), 70));
  view_.reset();
  view_ = ValueOrDie(
      MaterializedSampleView::Open(env_.get(), "v", layout_, options_));
  EXPECT_EQ(view_->memtable_records(), 70u);
  std::vector<uint64_t> ids = DrainAll();
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()), ExpectedIds());

  // The replayed memtable keeps accepting inserts without id collisions.
  std::string more = MakeInserts(40);
  MSV_ASSERT_OK(view_->Insert(more.data(), 40));
  ids = DrainAll();
  EXPECT_TRUE(AllDistinct(ids));
  EXPECT_EQ(ids.size(), kBase + 110);
}

TEST_F(IngestTest, ReopenSeesRunsAndMemtable) {
  InsertChunked(250);
  view_.reset();
  view_ = ValueOrDie(
      MaterializedSampleView::Open(env_.get(), "v", layout_, options_));
  EXPECT_EQ(view_->run_count(), 2u);
  EXPECT_EQ(view_->memtable_records(), 50u);
  std::vector<uint64_t> ids = DrainAll();
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()), ExpectedIds());
}

TEST_F(IngestTest, TornWalTailIsDropped) {
  std::string batch = MakeInserts(30);
  MSV_ASSERT_OK(view_->Insert(batch.data(), 30));
  view_.reset();
  // Simulate a torn append: a partial record at the WAL tail.
  std::string wal_name;
  for (const std::string& f : ValueOrDie(env_->ListFiles())) {
    if (f.rfind("v.wal.", 0) == 0) wal_name = f;
  }
  ASSERT_FALSE(wal_name.empty());
  auto wal = ValueOrDie(env_->OpenFile(wal_name, /*create=*/false));
  uint64_t size = ValueOrDie(wal->Size());
  const char torn[] = "torn-partial-record";
  MSV_ASSERT_OK(wal->Write(size, torn, sizeof(torn)));
  view_ = ValueOrDie(
      MaterializedSampleView::Open(env_.get(), "v", layout_, options_));
  EXPECT_EQ(view_->memtable_records(), 30u);  // whole records only
}

TEST_F(IngestTest, InsertAfterTornTailRecoveryStaysAligned) {
  // A torn tail must be physically truncated at recovery, not just
  // skipped by replay: otherwise post-recovery inserts append after the
  // garbage bytes and a *second* replay reads every later record at a
  // misaligned offset, corrupting acknowledged inserts.
  std::string batch = MakeInserts(30);
  MSV_ASSERT_OK(view_->Insert(batch.data(), 30));
  view_.reset();
  std::string wal_name;
  for (const std::string& f : ValueOrDie(env_->ListFiles())) {
    if (f.rfind("v.wal.", 0) == 0) wal_name = f;
  }
  ASSERT_FALSE(wal_name.empty());
  {
    auto wal = ValueOrDie(env_->OpenFile(wal_name, /*create=*/false));
    uint64_t size = ValueOrDie(wal->Size());
    const char torn[] = "torn-partial-record";
    MSV_ASSERT_OK(wal->Write(size, torn, sizeof(torn)));
  }

  view_ = ValueOrDie(
      MaterializedSampleView::Open(env_.get(), "v", layout_, options_));
  EXPECT_EQ(view_->memtable_records(), 30u);
  std::string more = MakeInserts(25);
  MSV_ASSERT_OK(view_->Insert(more.data(), 25));

  // Second crash/replay: all 55 records must come back whole and intact.
  view_.reset();
  view_ = ValueOrDie(
      MaterializedSampleView::Open(env_.get(), "v", layout_, options_));
  EXPECT_EQ(view_->memtable_records(), 55u);
  std::vector<uint64_t> ids = DrainAll();
  EXPECT_TRUE(AllDistinct(ids));
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()), ExpectedIds());
}

TEST_F(IngestTest, OpenWithoutManifestIsNotFound) {
  // Only a manifest names a view: a tree under the pre-manifest name
  // `<name>.base` is not adopted.
  MSV_ASSERT_OK(BuildAceTree(env_.get(), "sale", "bare.base", layout_,
                             options_.build));
  auto opened =
      MaterializedSampleView::Open(env_.get(), "bare", layout_, options_);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsNotFound()) << opened.status().ToString();
}

TEST_F(IngestTest, TotalRecordsCountsBaseAndDelta) {
  EXPECT_EQ(view_->total_records(), kBase);
  InsertChunked(250);  // two flushed runs plus a memtable tail
  EXPECT_EQ(view_->total_records(), kBase + 250);
  EXPECT_EQ(view_->total_records(),
            view_->base_records() + view_->delta_records());
  MSV_ASSERT_OK(view_->Rebuild());
  EXPECT_EQ(view_->total_records(), kBase + 250);
  EXPECT_EQ(view_->delta_records(), 0u);
}

TEST_F(IngestTest, NonCanonicalIdsAreNotOurs) {
  // Files that only look like a WAL or a base generation: a leading zero,
  // or an id past 2^64 - 1 (2^64 + 5 would wrap to WAL 5). The view never
  // writes such names, so recovery must neither replay nor delete them.
  const std::string payload = MakeInserts(20);
  const std::vector<std::string> foreign = {
      "v.wal.007", "v.wal.18446744073709551621", "v.base.g007"};
  view_.reset();
  for (const std::string& name : foreign) {
    auto file = ValueOrDie(env_->OpenFile(name, /*create=*/true));
    MSV_ASSERT_OK(file->Append(payload.data(), payload.size()));
  }

  auto expect_untouched = [&] {
    for (const std::string& name : foreign) {
      ASSERT_TRUE(ValueOrDie(env_->FileExists(name))) << name;
      auto file = ValueOrDie(env_->OpenFile(name, /*create=*/false));
      EXPECT_EQ(ValueOrDie(file->Size()), payload.size()) << name;
    }
  };

  view_ = ValueOrDie(
      MaterializedSampleView::Open(env_.get(), "v", layout_, options_));
  EXPECT_EQ(view_->memtable_records(), 0u);
  EXPECT_EQ(view_->run_count(), 0u);
  std::vector<uint64_t> ids = DrainAll();
  EXPECT_EQ(ids.size(), kBase);
  EXPECT_TRUE(AllDistinct(ids));
  expect_untouched();

  // DropFiles leaves them alone too.
  view_.reset();
  MSV_ASSERT_OK(MaterializedSampleView::DropFiles(env_.get(), "v"));
  expect_untouched();
}

TEST_F(IngestTest, DropFilesRemovesEveryViewFile) {
  InsertChunked(250);
  view_.reset();
  MSV_ASSERT_OK(MaterializedSampleView::DropFiles(env_.get(), "v"));
  for (const std::string& f : ValueOrDie(env_->ListFiles())) {
    EXPECT_EQ(f.rfind("v.", 0), std::string::npos) << f;
  }
}

// ---------------------------------------------------------------------------
// Failed-flush isolation (fault injection)
// ---------------------------------------------------------------------------

TEST(IngestFaultTest, InlineFlushFailureDoesNotFailAcknowledgedInsert) {
  auto inner = io::NewMemEnv();
  MakeSale(inner.get(), "sale", 400, /*seed=*/7);
  const storage::RecordLayout layout = SaleRecord::Layout1D();
  MaterializedSampleView::Options options = SmallViewOptions();
  options.ingest.memtable_max_records = 64;
  {
    // Create durably, then reopen behind the fault env.
    auto created = ValueOrDie(MaterializedSampleView::Create(
        inner.get(), "v", "sale", layout, options));
  }
  auto fenv = io::NewFaultInjectionEnv(inner.get());
  auto view = ValueOrDie(
      MaterializedSampleView::Open(fenv.get(), "v", layout, options));

  auto make_batch = [&](uint64_t n, uint64_t first) {
    Pcg64 rng(19 + first);
    std::string out;
    char buf[SaleRecord::kSize];
    for (uint64_t i = 0; i < n; ++i) {
      SaleRecord rec;
      rec.day = rng.DoubleInRange(0, 100000.0);
      rec.amount = rng.DoubleInRange(0, 10000.0);
      rec.row_id = 400 + first + i;
      rec.EncodeTo(buf);
      out.append(buf, sizeof(buf));
    }
    return out;
  };

  // Fill to one record short of the flush threshold.
  std::string head = make_batch(63, 0);
  MSV_ASSERT_OK(view->Insert(head.data(), 63));
  EXPECT_EQ(view->run_count(), 0u);

  // The threshold-crossing insert's WAL append is ops N (write) and N+1
  // (sync); the one-shot fault lands on the first operation of the
  // inline flush. The records are WAL-durable by then, so the insert is
  // acknowledged even though the flush dies.
  auto* flush_errors =
      obs::MetricRegistry::Global().GetCounter("ingest.flush_errors");
  const uint64_t errors_before = flush_errors->Value();
  fenv->ArmFault(fenv->op_count() + 2, io::FaultMode::kError,
                 /*sticky=*/false);
  std::string tail = make_batch(1, 63);
  MSV_ASSERT_OK(view->Insert(tail.data(), 1));
  EXPECT_TRUE(fenv->fault_fired());
  EXPECT_EQ(flush_errors->Value(), errors_before + 1);
  EXPECT_EQ(view->memtable_records(), 64u);  // flush backed out whole
  EXPECT_EQ(view->run_count(), 0u);

  // The view stays fully usable — the live WAL still accepts inserts,
  // and the flush retries at the next threshold crossing and succeeds.
  std::string more = make_batch(5, 64);
  MSV_ASSERT_OK(view->Insert(more.data(), 5));
  EXPECT_EQ(view->memtable_records(), 0u);
  EXPECT_EQ(view->run_count(), 1u);

  auto sampler = ValueOrDie(view->Sample(AllDays(), 77));
  std::vector<uint64_t> ids = msv::testing::DrainRowIds(sampler.get());
  EXPECT_TRUE(AllDistinct(ids));
  EXPECT_EQ(ids.size(), 400u + 69u);
}

TEST(IngestFaultTest, FlushedRunSurvivesPowerLoss) {
  // A flushed run lives only in its sealed WAL until compaction folds it
  // in, so power loss after the flush must leave both the run and the
  // acknowledged memtable tail recoverable.
  auto inner = io::NewMemEnv();
  MakeSale(inner.get(), "sale", 400, /*seed=*/7);
  const storage::RecordLayout layout = SaleRecord::Layout1D();
  MaterializedSampleView::Options options = SmallViewOptions();
  options.ingest.memtable_max_records = 64;
  {
    auto created = ValueOrDie(MaterializedSampleView::Create(
        inner.get(), "v", "sale", layout, options));
  }
  auto fenv = io::NewFaultInjectionEnv(inner.get());
  {
    auto view = ValueOrDie(
        MaterializedSampleView::Open(fenv.get(), "v", layout, options));
    Pcg64 rng(23);
    char buf[SaleRecord::kSize];
    for (uint64_t i = 0; i < 100; ++i) {
      SaleRecord rec;
      rec.day = rng.DoubleInRange(0, 100000.0);
      rec.amount = rng.DoubleInRange(0, 10000.0);
      rec.row_id = 400 + i;
      rec.EncodeTo(buf);
      MSV_ASSERT_OK(view->Insert(buf, 1));
    }
    EXPECT_EQ(view->run_count(), 1u);
    EXPECT_EQ(view->memtable_records(), 36u);
  }
  MSV_ASSERT_OK(fenv->DropUnsyncedData());  // power loss

  auto view = ValueOrDie(
      MaterializedSampleView::Open(fenv.get(), "v", layout, options));
  auto sampler = ValueOrDie(view->Sample(AllDays(), 41));
  std::vector<uint64_t> ids = msv::testing::DrainRowIds(sampler.get());
  EXPECT_TRUE(AllDistinct(ids));
  std::set<uint64_t> recovered(ids.begin(), ids.end());
  for (uint64_t rid = 0; rid < 500; ++rid) {
    EXPECT_EQ(recovered.count(rid), 1u) << "lost row " << rid;
  }
  for (uint64_t rid : recovered) EXPECT_LT(rid, 500u) << "phantom " << rid;
}

// ---------------------------------------------------------------------------
// Concurrency (runs under TSan via the `IngestConcurrency` CI regex)
// ---------------------------------------------------------------------------

TEST(IngestConcurrencyTest, ConcurrentInsertSampleCompact) {
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", kBase, /*seed=*/5);
  const storage::RecordLayout layout = SaleRecord::Layout1D();
  MaterializedSampleView::Options options = SmallViewOptions();
  options.ingest.memtable_max_records = 200;  // 2000 inserts seal 10 runs
  options.ingest.background_compaction = true;
  auto view = ValueOrDie(MaterializedSampleView::Create(env.get(), "v",
                                                        "sale", layout,
                                                        options));

  constexpr uint64_t kBatches = 40;
  constexpr uint64_t kPerBatch = 50;
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    Pcg64 rng(23);
    char buf[SaleRecord::kSize];
    uint64_t next = 0;
    for (uint64_t b = 0; b < kBatches; ++b) {
      std::string batch;
      for (uint64_t i = 0; i < kPerBatch; ++i) {
        SaleRecord rec;
        rec.day = rng.DoubleInRange(0, 100000.0);
        rec.amount = rng.DoubleInRange(0, 10000.0);
        rec.row_id = kBase + next++;
        rec.EncodeTo(buf);
        batch.append(buf, sizeof(buf));
      }
      MSV_EXPECT_OK(view->Insert(batch.data(), kPerBatch));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      uint64_t seed = 1000 + static_cast<uint64_t>(t);
      while (!writer_done.load()) {
        auto sampler = ValueOrDie(view->Sample(AllDays(), ++seed));
        std::vector<uint64_t> ids =
            msv::testing::TakeRowIds(sampler.get(), 200);
        EXPECT_TRUE(AllDistinct(ids));
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();

  // Quiesce and recount: every acknowledged insert is present once.
  MSV_ASSERT_OK(view->Rebuild());
  EXPECT_EQ(view->base_records(), kBase + kBatches * kPerBatch);
  auto sampler = ValueOrDie(view->Sample(AllDays(), 424242));
  std::vector<uint64_t> ids = msv::testing::DrainRowIds(sampler.get());
  EXPECT_TRUE(AllDistinct(ids));
  EXPECT_EQ(ids.size(), kBase + kBatches * kPerBatch);
}

TEST(IngestConcurrencyTest, TotalRecordsNeverDipsDuringCompaction) {
  // Inserts only ever add records, so the record count a reader sees
  // must never go down — also not at the instant a compaction commit
  // moves run records into the base.
  auto env = io::NewMemEnv();
  MakeSale(env.get(), "sale", kBase, /*seed=*/5);
  MaterializedSampleView::Options options = SmallViewOptions();
  options.ingest.background_compaction = true;
  auto view = ValueOrDie(MaterializedSampleView::Create(
      env.get(), "v", "sale", SaleRecord::Layout1D(), options));

  obs::Counter* compactions =
      obs::MetricRegistry::Global().GetCounter("ingest.compactions");
  const uint64_t compactions_before = compactions->Value();
  // The writer keeps going until several compactions have committed
  // (each 100-record flush is a run of its own, and three runs exceed
  // the delta fraction of the 2000-record base and trigger a compaction),
  // so the poll loop below spans those commits. The time
  // cap bounds slow (sanitizer) builds, where the busy poll loop lets
  // fewer compactions through.
  constexpr uint64_t kCompactions = 5;
  constexpr uint64_t kPerBatch = 50;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  std::atomic<uint64_t> inserted{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    Pcg64 rng(29);
    char buf[SaleRecord::kSize];
    while (compactions->Value() < compactions_before + kCompactions &&
           std::chrono::steady_clock::now() < give_up) {
      std::string batch;
      for (uint64_t i = 0; i < kPerBatch; ++i) {
        SaleRecord rec;
        rec.day = rng.DoubleInRange(0, 100000.0);
        rec.row_id = kBase + inserted.load() + i;
        rec.EncodeTo(buf);
        batch.append(buf, sizeof(buf));
      }
      MSV_EXPECT_OK(view->Insert(batch.data(), kPerBatch));
      inserted += kPerBatch;
      // A pause between batches, as a client's think time: back-to-back
      // inserts can hold the view mutex long enough to starve the
      // compactor.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer_done.store(true);
  });
  // Poll back to back. With a pause between polls the compactor would
  // take the view mutex only there, between two calls, and a count read
  // under two separate lock holds would never be caught torn.
  uint64_t last = 0;
  uint64_t dips = 0;
  while (!writer_done.load()) {
    const uint64_t now = view->total_records();
    if (now < last) ++dips;
    last = now;
  }
  writer.join();
  EXPECT_EQ(dips, 0u);
  EXPECT_GT(compactions->Value(), compactions_before);
  MSV_ASSERT_OK(view->Rebuild());
  EXPECT_EQ(view->total_records(), kBase + inserted.load());
}

TEST(IngestConcurrencyTest, ExecutorInsertRowIdsStayUniqueUnderCompaction) {
  // INSERT numbers its rows after the view's current record count. A
  // background compaction moves run records into the base while inserts
  // keep coming; the count must see that move all at once or new rows
  // reuse existing ids. The base is small, so every flushed run exceeds
  // the view's delta fraction and triggers a compaction of its own.
  auto env = io::NewMemEnv();
  auto exec = ValueOrDie(query::Executor::Open(env.get()));
  constexpr uint64_t kTableRows = 2000;
  auto setup = exec->Run(
      "GENERATE TABLE sale ROWS " + std::to_string(kTableRows) +
      " SEED 7; CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();

  obs::Counter* compactions =
      obs::MetricRegistry::Global().GetCounter("ingest.compactions");
  const uint64_t compactions_before = compactions->Value();
  constexpr uint64_t kCompactions = 2;
  constexpr uint64_t kMaxInserts = 5000;
  constexpr uint64_t kRowsPerInsert = 16;
  uint64_t inserts = 0;
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (; inserts < kMaxInserts &&
           compactions->Value() < compactions_before + kCompactions;
         ++inserts) {
      auto out = exec->Run("INSERT INTO v ROWS " +
                           std::to_string(kRowsPerInsert) + " SEED " +
                           std::to_string(100 + inserts) + ";");
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      // Think time, so the compactor gets the view mutex between inserts.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer_done.store(true);
  });
  std::thread reader([&] {
    while (!writer_done.load()) {
      auto out = exec->Run(
          "SAMPLE FROM v WHERE day BETWEEN 0 AND 50000 LIMIT 50;");
      EXPECT_TRUE(out.ok()) << out.status().ToString();
    }
  });
  writer.join();
  reader.join();
  EXPECT_GE(compactions->Value(), compactions_before + kCompactions);

  const uint64_t total = kTableRows + inserts * kRowsPerInsert;
  auto rebuilt = exec->Run("REBUILD v;");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  auto drained = exec->Run("SAMPLE FROM v LIMIT " + std::to_string(total + 1) +
                           ";");
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();

  // One output line per row after the header; row_id is the last column.
  std::istringstream lines(*drained);
  std::string line;
  std::getline(lines, line);  // header
  std::vector<uint64_t> ids;
  while (std::getline(lines, line) && !line.empty() && line[0] != '(') {
    ids.push_back(std::stoull(line.substr(line.rfind('|') + 1)));
  }
  EXPECT_EQ(ids.size(), total);
  EXPECT_TRUE(AllDistinct(ids)) << "an INSERT reused existing row ids";
}

// ---------------------------------------------------------------------------
// Crash-point sweep (the `IngestCrash` fault-injection CI regex)
// ---------------------------------------------------------------------------

/// One sweep iteration: a durable store (sale relation + freshly created
/// view, both written before the crash window opens) wrapped in a fault
/// env.
struct CrashFixture {
  std::unique_ptr<io::Env> inner;
  std::unique_ptr<io::FaultInjectionEnv> env;
  storage::RecordLayout layout = SaleRecord::Layout1D();
};

CrashFixture FreshCrashFixture() {
  CrashFixture f;
  f.inner = io::NewMemEnv();
  MakeSale(f.inner.get(), "sale", 400, /*seed=*/7);
  MaterializedSampleView::Options options = SmallViewOptions();
  options.build.page_size = 512;
  options.ingest.memtable_max_records = 64;
  {
    auto view = ValueOrDie(MaterializedSampleView::Create(
        f.inner.get(), "v", "sale", f.layout, options));
    EXPECT_EQ(view->base_records(), 400u);
  }
  f.env = io::NewFaultInjectionEnv(f.inner.get());
  return f;
}

/// The faulted workload: open the view, insert batches (tracking which
/// were acknowledged), flush, insert more, rebuild, insert again. Any
/// step may die on the armed fault; `acked` reflects only OK returns.
Status RunCrashWorkload(io::Env* env, const storage::RecordLayout& layout,
                        std::vector<std::pair<uint64_t, uint64_t>>* acked) {
  MaterializedSampleView::Options options = SmallViewOptions();
  options.build.page_size = 512;
  options.ingest.memtable_max_records = 64;
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<MaterializedSampleView> view,
                       MaterializedSampleView::Open(env, "v", layout,
                                                    options));
  Pcg64 rng(31);
  uint64_t next = 400;
  auto insert_batch = [&](uint64_t n) -> Status {
    std::string batch;
    char buf[SaleRecord::kSize];
    uint64_t first = next;
    for (uint64_t i = 0; i < n; ++i) {
      SaleRecord rec;
      rec.day = rng.DoubleInRange(0, 100000.0);
      rec.amount = rng.DoubleInRange(0, 10000.0);
      rec.row_id = next++;
      rec.EncodeTo(buf);
      batch.append(buf, sizeof(buf));
    }
    MSV_RETURN_IF_ERROR(view->Insert(batch.data(), n));
    acked->emplace_back(first, next);  // only on OK: acknowledged
    return Status::OK();
  };
  for (int b = 0; b < 3; ++b) MSV_RETURN_IF_ERROR(insert_batch(30));
  MSV_RETURN_IF_ERROR(view->Flush());
  for (int b = 0; b < 2; ++b) MSV_RETURN_IF_ERROR(insert_batch(25));
  MSV_RETURN_IF_ERROR(view->Rebuild());
  return insert_batch(20);
}

TEST(IngestCrashTest, PowerLossAtEveryFaultIndexLosesNoAcknowledgedInsert) {
  // Fault-free reference: op count and final totals.
  int64_t total_ops = 0;
  {
    CrashFixture f = FreshCrashFixture();
    std::vector<std::pair<uint64_t, uint64_t>> acked;
    MSV_ASSERT_OK(RunCrashWorkload(f.env.get(), f.layout, &acked));
    total_ops = f.env->op_count();
    ASSERT_EQ(acked.size(), 6u);
  }
  ASSERT_GT(total_ops, 0);

  // Full sweep with MSV_SLOW_TESTS (the fault-injection CI job); a
  // strided ~120-point sweep plus the commit-heavy tail otherwise.
  std::vector<int64_t> points;
  if (std::getenv("MSV_SLOW_TESTS") != nullptr) {
    for (int64_t k = 0; k < total_ops; ++k) points.push_back(k);
  } else {
    const int64_t stride = std::max<int64_t>(1, total_ops / 120);
    for (int64_t k = 0; k < total_ops; k += stride) points.push_back(k);
    for (int64_t k = std::max<int64_t>(0, total_ops - 8); k < total_ops; ++k) {
      points.push_back(k);
    }
  }

  for (int64_t k : points) {
    SCOPED_TRACE("fault index " + std::to_string(k));
    CrashFixture f = FreshCrashFixture();
    f.env->ArmFault(k, io::FaultMode::kError, /*sticky=*/true);
    std::vector<std::pair<uint64_t, uint64_t>> acked;
    RunCrashWorkload(f.env.get(), f.layout, &acked)
        .IgnoreError();  // expected to die at the fault
    f.env->ClearFault();
    MSV_ASSERT_OK(f.env->DropUnsyncedData());  // power loss

    // Recovery must always succeed: either the old or the new tree
    // generation is openable, and the WALs replay.
    MaterializedSampleView::Options options = SmallViewOptions();
    options.build.page_size = 512;
    options.ingest.memtable_max_records = 64;
    auto reopened = MaterializedSampleView::Open(f.env.get(), "v",
                                                 SaleRecord::Layout1D(),
                                                 options);
    MSV_ASSERT_OK(reopened.status());
    auto view = std::move(reopened).value();
    auto report = view->tree()->CheckInvariants();
    ASSERT_TRUE(report.ok()) << report.ToString();

    auto sampler =
        ValueOrDie(view->Sample(AllDays(), 1234 + static_cast<uint64_t>(k)));
    std::vector<uint64_t> ids = msv::testing::DrainRowIds(sampler.get());
    ASSERT_TRUE(AllDistinct(ids));
    std::set<uint64_t> recovered(ids.begin(), ids.end());

    // Base relation: always fully present.
    for (uint64_t rid = 0; rid < 400; ++rid) {
      ASSERT_EQ(recovered.count(rid), 1u) << "lost base row " << rid;
    }
    // Every acknowledged insert survived the crash.
    for (const auto& [lo, hi] : acked) {
      for (uint64_t rid = lo; rid < hi; ++rid) {
        ASSERT_EQ(recovered.count(rid), 1u) << "lost acked row " << rid;
      }
    }
    // Nothing outside base ∪ attempted inserts, and nothing twice
    // (AllDistinct above): an unacknowledged tail may legitimately be
    // present (durable in the WAL before the error surfaced), but no
    // record is ever double-counted.
    for (uint64_t rid : recovered) {
      ASSERT_LT(rid, 400u + 160u) << "phantom row " << rid;
    }
  }
}

}  // namespace
}  // namespace msv::core
