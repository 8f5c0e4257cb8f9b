// Batched I/O equivalence and accounting tests.
//
// The ReadBatch contract must be indistinguishable from page-at-a-time
// Read() in the bytes it delivers — on every backend — while changing
// only the *cost*: runs of requests contiguous in array order collapse
// into one modeled device access (SimEnv), one fault-injection op index
// (FaultInjectionEnv) and one preadv(2) (PosixEnv). This file pins both
// halves: randomized byte-equivalence across backends, and the exact
// seek/op/metric accounting of the coalescing layers (SimFile,
// AceTree::ReadLeaves and the heap-file scanner's chunk size).

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/disk_model.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "test_util.h"
#include "util/random.h"

namespace msv::io {
namespace {

using msv::testing::ValueOrDie;

// ---------------------------------------------------------------------------
// Randomized ReadBatch == Read equivalence on every backend
// ---------------------------------------------------------------------------

enum class Backend { kMem, kPosix, kFault, kSim };

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kMem:
      return "Mem";
    case Backend::kPosix:
      return "Posix";
    case Backend::kFault:
      return "FaultInjection";
    case Backend::kSim:
      return "Sim";
  }
  return "?";
}

class BatchEquivalenceTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case Backend::kMem:
        env_ = NewMemEnv();
        break;
      case Backend::kPosix: {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = ::testing::TempDir() + "/msv_batch_" + info->name();
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_);
        env_ = NewPosixEnv(root_);
        break;
      }
      case Backend::kFault:
        inner_ = NewMemEnv();
        fault_env_ = NewFaultInjectionEnv(inner_.get());
        break;
      case Backend::kSim:
        inner_ = NewMemEnv();
        device_ = std::make_shared<DiskDevice>();
        env_ = NewSimEnv(inner_.get(), device_);
        break;
    }
  }
  void TearDown() override {
    env_.reset();
    fault_env_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  Env* env() {
    return fault_env_ ? static_cast<Env*>(fault_env_.get()) : env_.get();
  }

  std::unique_ptr<Env> inner_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<FaultInjectionEnv> fault_env_;
  std::shared_ptr<DiskDevice> device_;
  std::string root_;
};

TEST_P(BatchEquivalenceTest, RandomizedBatchesMatchScalarReads) {
  // A patterned file so every byte is position-identifiable.
  const size_t kFileSize = 10'000;
  std::string data(kFileSize, '\0');
  for (size_t i = 0; i < kFileSize; ++i) {
    data[i] = static_cast<char>((i * 131) ^ (i >> 8));
  }
  auto file = ValueOrDie(env()->OpenFile("f", true));
  MSV_ASSERT_OK(file->Write(0, data.data(), data.size()));

  Pcg64 rng = DeriveRngStream(2026, 805);
  for (int round = 0; round < 50; ++round) {
    const size_t count = 1 + rng.Below(12);
    std::vector<ReadRequest> reqs(count);
    std::vector<std::string> scratch(count);
    // Mix of adjacent, overlapping, out-of-order and past-EOF requests;
    // some rounds sort by offset so runs actually form.
    uint64_t cursor = rng.Below(kFileSize);
    for (size_t i = 0; i < count; ++i) {
      size_t n = 1 + rng.Below(700);
      uint64_t offset;
      switch (rng.Below(4)) {
        case 0:  // adjacent to the previous request
          offset = cursor;
          break;
        case 1:  // straddles or passes EOF
          offset = kFileSize - std::min<uint64_t>(kFileSize, rng.Below(300)) +
                   rng.Below(600);
          break;
        default:  // anywhere
          offset = rng.Below(kFileSize + 500);
          break;
      }
      scratch[i].assign(n, '\xee');
      reqs[i] = ReadRequest{offset, n, scratch[i].data()};
      cursor = offset + n;
    }
    if (rng.Bernoulli(0.5)) {
      std::sort(reqs.begin(), reqs.end(),
                [](const ReadRequest& a, const ReadRequest& b) {
                  return a.offset < b.offset;
                });
    }

    MSV_ASSERT_OK(file->ReadBatch(reqs.data(), reqs.size()));
    for (size_t i = 0; i < count; ++i) {
      std::string expect(reqs[i].n, '\xee');
      size_t want_got = ValueOrDie(file->Read(
          reqs[i].offset, reqs[i].n, expect.data()));
      ASSERT_EQ(reqs[i].got, want_got)
          << "round " << round << " req " << i << " offset "
          << reqs[i].offset << " n " << reqs[i].n;
      EXPECT_EQ(std::string(reqs[i].scratch, reqs[i].got),
                std::string(expect.data(), want_got))
          << "round " << round << " req " << i;
    }
  }
}

TEST_P(BatchEquivalenceTest, EmptyAndPastEofBatches) {
  auto file = ValueOrDie(env()->OpenFile("f", true));
  MSV_ASSERT_OK(file->Write(0, "abcdef", 6));
  MSV_ASSERT_OK(file->ReadBatch(nullptr, 0));  // empty batch is a no-op
  char buf[8];
  ReadRequest reqs[2] = {{100, 4, buf}, {200, 4, buf + 4}};
  MSV_ASSERT_OK(file->ReadBatch(reqs, 2));
  EXPECT_EQ(reqs[0].got, 0u);
  EXPECT_EQ(reqs[1].got, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BatchEquivalenceTest,
    ::testing::Values(Backend::kMem, Backend::kPosix, Backend::kFault,
                      Backend::kSim),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return BackendName(info.param);
    });

// ---------------------------------------------------------------------------
// SimFile: coalescing and the io.batch.* accounting
// ---------------------------------------------------------------------------

class SimBatchTest : public ::testing::Test {
 protected:
  static constexpr size_t kPage = 1024;
  static constexpr size_t kPages = 16;

  void SetUp() override {
    inner_ = NewMemEnv();
    device_ = std::make_shared<DiskDevice>();
    env_ = NewSimEnv(inner_.get(), device_);
    std::string data(kPage * kPages, '\0');
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<char>(i / kPage);
    }
    // Written beneath the device, so its stats count only the reads
    // under test.
    auto raw = ValueOrDie(inner_->OpenFile("f", true));
    MSV_ASSERT_OK(raw->Write(0, data.data(), data.size()));
    file_ = ValueOrDie(env_->OpenFile("f", false));
  }

  /// Builds one page-sized request per entry of `pages`.
  std::vector<ReadRequest> PageRequests(const std::vector<uint64_t>& pages) {
    scratch_.assign(pages.size() * kPage, '\xee');
    std::vector<ReadRequest> reqs(pages.size());
    for (size_t i = 0; i < pages.size(); ++i) {
      reqs[i] = ReadRequest{pages[i] * kPage, kPage,
                            scratch_.data() + i * kPage};
    }
    return reqs;
  }

  std::unique_ptr<Env> inner_;
  std::shared_ptr<DiskDevice> device_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<File> file_;
  std::string scratch_;
};

TEST_F(SimBatchTest, AdjacentRunIsOneSeekOneAccess) {
  auto reqs = PageRequests({4, 5, 6, 7});
  MSV_ASSERT_OK(file_->ReadBatch(reqs.data(), reqs.size()));
  DiskStats d = device_->stats();
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.seeks, 1u);
  EXPECT_EQ(d.sequential_ios, 0u);
  EXPECT_EQ(d.read_bytes, 4 * kPage);
  EXPECT_EQ(d.batched_accesses, 1u);
  EXPECT_EQ(d.batched_pages, 4u);
}

TEST_F(SimBatchTest, BatchBusyTimeMatchesOneBigAccess) {
  // The whole point of coalescing: a 4-page adjacent batch must cost
  // exactly what one 4-page read costs, not 4 seeks.
  auto reqs = PageRequests({4, 5, 6, 7});
  MSV_ASSERT_OK(file_->ReadBatch(reqs.data(), reqs.size()));
  uint64_t batched_us = device_->stats().busy_us;

  DiskDevice reference;
  reference.Access(0, 4 * kPage, /*is_write=*/false);
  EXPECT_EQ(batched_us, reference.stats().busy_us);

  // And strictly less than the same pages read one at a time from a cold
  // head (4 seeks): the modeled saving the benches measure.
  DiskDevice scalar;
  for (int i = 0; i < 4; ++i) {
    scalar.Access(2 * i * kPage, kPage, /*is_write=*/false);  // discontiguous
  }
  EXPECT_LT(batched_us, scalar.stats().busy_us);
}

TEST_F(SimBatchTest, GapSplitsTheRun) {
  auto reqs = PageRequests({0, 1, 8, 9});
  MSV_ASSERT_OK(file_->ReadBatch(reqs.data(), reqs.size()));
  DiskStats d = device_->stats();
  EXPECT_EQ(d.reads, 2u);
  EXPECT_EQ(d.seeks, 2u);
  EXPECT_EQ(d.batched_accesses, 2u);
  EXPECT_EQ(d.batched_pages, 4u);
}

TEST_F(SimBatchTest, ArrayOrderDefinesRuns) {
  // The same pages out of order do not coalesce: the contract is
  // contiguity in array order, and callers are expected to sort.
  auto reqs = PageRequests({7, 6, 5, 4});
  MSV_ASSERT_OK(file_->ReadBatch(reqs.data(), reqs.size()));
  DiskStats d = device_->stats();
  EXPECT_EQ(d.reads, 4u);
  EXPECT_EQ(d.batched_accesses, 4u);
  EXPECT_EQ(d.batched_pages, 4u);
}

TEST_F(SimBatchTest, EofEndsTheRunAndZeroReadsAreFree) {
  // Requests: last full page, then one page past EOF, then fully past
  // EOF. The short/empty tail must not extend the charged run.
  scratch_.assign(3 * kPage, '\xee');
  ReadRequest reqs[3] = {
      {(kPages - 1) * kPage, kPage, scratch_.data()},
      {kPages * kPage, kPage, scratch_.data() + kPage},
      {(kPages + 1) * kPage, kPage, scratch_.data() + 2 * kPage},
  };
  MSV_ASSERT_OK(file_->ReadBatch(reqs, 3));
  EXPECT_EQ(reqs[0].got, kPage);
  EXPECT_EQ(reqs[1].got, 0u);
  EXPECT_EQ(reqs[2].got, 0u);
  DiskStats d = device_->stats();
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.read_bytes, kPage);
  EXPECT_EQ(d.batched_accesses, 1u);
  EXPECT_EQ(d.batched_pages, 1u);
}

TEST_F(SimBatchTest, RegistryCountersTrackDeviceStats) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  uint64_t acc0 = reg.GetCounter("io.batch.accesses")->Value();
  uint64_t pages0 = reg.GetCounter("io.batch.pages")->Value();
  auto reqs = PageRequests({2, 3, 4, 10, 11});
  MSV_ASSERT_OK(file_->ReadBatch(reqs.data(), reqs.size()));
  EXPECT_EQ(reg.GetCounter("io.batch.accesses")->Value(), acc0 + 2);
  EXPECT_EQ(reg.GetCounter("io.batch.pages")->Value(), pages0 + 5);
}

}  // namespace
}  // namespace msv::io

// ---------------------------------------------------------------------------
// AceTree::ReadLeaves: elevator order is invisible in results, visible
// in the device schedule
// ---------------------------------------------------------------------------

namespace msv::core {
namespace {

using msv::testing::ValueOrDie;

class ReadLeavesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inner_ = io::NewMemEnv();
    device_ = std::make_shared<io::DiskDevice>();
    env_ = io::NewSimEnv(inner_.get(), device_);
    relation::SaleGenOptions gen;
    gen.num_records = 2000;
    gen.seed = 7;
    MSV_ASSERT_OK(relation::GenerateSaleRelation(env_.get(), "sale", gen));
    AceBuildOptions build;
    build.page_size = 4096;
    build.key_dims = 1;
    build.seed = 99;
    build.sort.memory_budget_bytes = 1 << 20;
    layout_ = storage::SaleRecord::Layout1D();
    MSV_ASSERT_OK(
        BuildAceTree(env_.get(), "sale", "sale.ace", layout_, build));
    tree_ = ValueOrDie(AceTree::Open(env_.get(), "sale.ace", layout_));
  }

  static void ExpectLeafEq(const LeafData& a, const LeafData& b) {
    EXPECT_EQ(a.leaf_index, b.leaf_index);
    EXPECT_EQ(a.record_size, b.record_size);
    ASSERT_EQ(a.sections.size(), b.sections.size());
    for (size_t i = 0; i < a.sections.size(); ++i) {
      EXPECT_EQ(a.sections[i], b.sections[i]) << "section " << i;
    }
  }

  std::unique_ptr<io::Env> inner_;
  std::shared_ptr<io::DiskDevice> device_;
  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  std::unique_ptr<AceTree> tree_;
};

TEST_F(ReadLeavesTest, ResultsMatchScalarReadLeafInInputOrder) {
  const uint64_t leaves = tree_->meta().num_leaves;
  ASSERT_GE(leaves, 8u);
  // A deliberately scrambled, non-adjacent request order.
  std::vector<uint64_t> want = {7, 0, 3, leaves - 1, 5, 1};
  auto batch = ValueOrDie(tree_->ReadLeaves(want));
  ASSERT_EQ(batch.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    auto scalar = ValueOrDie(tree_->ReadLeaf(want[i]));
    ExpectLeafEq(batch[i], scalar);
  }
}

TEST_F(ReadLeavesTest, AdjacentLeavesCoalesceIntoOneAccess) {
  // The builder lays leaves out contiguously in index order, so four
  // consecutive indices — in any request order — are one elevator run.
  const io::DiskStats before = device_->stats();
  auto batch = ValueOrDie(tree_->ReadLeaves({12, 10, 13, 11}));
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].leaf_index, 12u);
  EXPECT_EQ(batch[3].leaf_index, 11u);
  const io::DiskStats d = device_->stats() - before;
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.batched_accesses, 1u);
  EXPECT_EQ(d.batched_pages, 4u);
}

TEST_F(ReadLeavesTest, InvalidIndexRejectedBeforeAnyIo) {
  const io::DiskStats before = device_->stats();
  auto result = tree_->ReadLeaves({0, tree_->meta().num_leaves});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(device_->stats().reads, before.reads);
}

TEST_F(ReadLeavesTest, EmptyBatchIsEmpty) {
  auto batch = ValueOrDie(tree_->ReadLeaves({}));
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace msv::core

// ---------------------------------------------------------------------------
// Scanner chunk size
// ---------------------------------------------------------------------------

namespace msv::storage {
namespace {

using msv::testing::ValueOrDie;

TEST(ReadaheadScannerTest, SameRecordsHalfTheRefillSeeks) {
  auto inner = io::NewMemEnv();
  {
    auto gen_env = io::NewSimEnv(inner.get(), std::make_shared<io::DiskDevice>());
    msv::testing::MakeSale(gen_env.get(), "sale", 5000);
  }
  // Each chunk size scans through its own fresh device so both start
  // from the identical head state (parked at the header by HeapFile::Open).
  const size_t block = 64 * SaleRecord::kSize;  // many refills
  auto scan = [&](size_t chunk_bytes, std::vector<uint64_t>* ids) {
    auto device = std::make_shared<io::DiskDevice>();
    auto env = io::NewSimEnv(inner.get(), device);
    auto sale = ValueOrDie(HeapFile::Open(env.get(), "sale"));
    const io::DiskStats before = device->stats();
    auto scanner = sale->NewScanner(chunk_bytes);
    while (const char* rec = ValueOrDie(scanner.Next())) {
      ids->push_back(SaleRecord::DecodeFrom(rec).row_id);
    }
    return device->stats() - before;
  };

  std::vector<uint64_t> small_ids, large_ids;
  io::DiskStats small = scan(block, &small_ids);
  io::DiskStats large =
      scan(TwoBlockChunk(block, SaleRecord::kSize), &large_ids);

  EXPECT_EQ(large_ids, small_ids);  // byte-for-byte the same scan
  EXPECT_EQ(large.read_bytes, small.read_bytes);
  // Twice the chunk: half the refill reads (+1 for rounding), each one a
  // single access, so less modeled time.
  EXPECT_LE(large.reads, small.reads / 2 + 1);
  EXPECT_EQ(large.batched_accesses, 0u);
  EXPECT_LT(large.busy_us, small.busy_us);
}

}  // namespace
}  // namespace msv::storage
