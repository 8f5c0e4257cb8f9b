// Batched read tests.
//
// File::ReadBatch is one Read per request on every backend: it delivers
// the same bytes as those Reads and, on the simulated disk, charges the
// same reads, seeks and busy time. This file pins that contract with
// randomized batches on every backend, then the two users of batched or
// chunked reads above the io layer: AceTree::ReadLeaves (results in input
// order, requests in offset order) and the heap-file scanner's chunk size.

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

  // The scalar reference reads go through `scalar`. On SimEnv that is a
  // twin file on its own device, which sees the same write and then the
  // same requests one Read at a time, so both devices must end every
  // round with the same charges.
  File* scalar = file.get();
  std::shared_ptr<DiskDevice> twin_device;
  std::unique_ptr<Env> twin_env;
  std::unique_ptr<File> twin_file;
  if (device_) {
    twin_device = std::make_shared<DiskDevice>();
    twin_env = NewSimEnv(inner_.get(), twin_device);
    twin_file = ValueOrDie(twin_env->OpenFile("f", false));
    MSV_ASSERT_OK(twin_file->Write(0, data.data(), data.size()));
    scalar = twin_file.get();
  }

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
      size_t want_got = ValueOrDie(scalar->Read(
          reqs[i].offset, reqs[i].n, expect.data()));
      ASSERT_EQ(reqs[i].got, want_got)
          << "round " << round << " req " << i << " offset "
          << reqs[i].offset << " n " << reqs[i].n;
      EXPECT_EQ(std::string(reqs[i].scratch, reqs[i].got),
                std::string(expect.data(), want_got))
          << "round " << round << " req " << i;
    }
    if (device_) {
      const DiskStats batch = device_->stats();
      const DiskStats scalar_stats = twin_device->stats();
      EXPECT_EQ(batch.reads, scalar_stats.reads) << "round " << round;
      EXPECT_EQ(batch.seeks, scalar_stats.seeks) << "round " << round;
      EXPECT_EQ(batch.sequential_ios, scalar_stats.sequential_ios)
          << "round " << round;
      EXPECT_EQ(batch.read_bytes, scalar_stats.read_bytes)
          << "round " << round;
      EXPECT_EQ(batch.busy_us, scalar_stats.busy_us) << "round " << round;
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
  // The same as scalar Reads, plus a zero-byte one: nothing is read.
  EXPECT_EQ(ValueOrDie(file->Read(100, 4, buf)), 0u);
  EXPECT_EQ(ValueOrDie(file->Read(6, 4, buf)), 0u);
  EXPECT_EQ(ValueOrDie(file->Read(0, 0, buf)), 0u);
  if (device_) {
    // A zero-byte or past-EOF read charges the device nothing.
    EXPECT_EQ(device_->stats().reads, 0u);
    EXPECT_EQ(device_->stats().read_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BatchEquivalenceTest,
    ::testing::Values(Backend::kMem, Backend::kPosix, Backend::kFault,
                      Backend::kSim),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return BackendName(info.param);
    });

TEST(SimBatchTest, EofEndsTheRunAndZeroReadsAreFree) {
  constexpr size_t kPage = 1024;
  constexpr size_t kPages = 16;
  auto inner = NewMemEnv();
  auto device = std::make_shared<DiskDevice>();
  auto env = NewSimEnv(inner.get(), device);
  // Written beneath the device, so its stats count only the reads under
  // test.
  const std::string data(kPage * kPages, 'p');
  auto raw = ValueOrDie(inner->OpenFile("f", true));
  MSV_ASSERT_OK(raw->Write(0, data.data(), data.size()));
  auto file = ValueOrDie(env->OpenFile("f", false));

  // The last full page, then one page at EOF, one fully past it and a
  // zero-byte request: only the first is charged.
  std::string scratch(3 * kPage, '\xee');
  ReadRequest reqs[4] = {
      {(kPages - 1) * kPage, kPage, scratch.data()},
      {kPages * kPage, kPage, scratch.data() + kPage},
      {(kPages + 1) * kPage, kPage, scratch.data() + 2 * kPage},
      {0, 0, scratch.data()},
  };
  MSV_ASSERT_OK(file->ReadBatch(reqs, 4));
  EXPECT_EQ(reqs[0].got, kPage);
  EXPECT_EQ(reqs[1].got, 0u);
  EXPECT_EQ(reqs[2].got, 0u);
  EXPECT_EQ(reqs[3].got, 0u);
  EXPECT_EQ(scratch.substr(0, kPage), data.substr(0, kPage));
  const DiskStats d = device->stats();
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.seeks, 1u);
  EXPECT_EQ(d.read_bytes, kPage);
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
    auto scalar =
        ValueOrDie(tree_->ReadLeaf(want[i], tree_->meta().height));
    ExpectLeafEq(batch[i], scalar);
  }
}

TEST_F(ReadLeavesTest, AdjacentLeavesPayOneSeekThenTransfer) {
  // The builder lays leaves out contiguously in index order, so four
  // consecutive indices — in any request order — are read in offset
  // order: one request per leaf, and only the first one seeks.
  const io::DiskStats before = device_->stats();
  auto batch = ValueOrDie(tree_->ReadLeaves({12, 10, 13, 11}));
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].leaf_index, 12u);
  EXPECT_EQ(batch[3].leaf_index, 11u);
  const io::DiskStats d = device_->stats() - before;
  EXPECT_EQ(d.reads, 4u);
  EXPECT_EQ(d.seeks, 1u);
  EXPECT_EQ(d.sequential_ios, 3u);
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
  EXPECT_LT(large.busy_us, small.busy_us);
}

}  // namespace
}  // namespace msv::storage
