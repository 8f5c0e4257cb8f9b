#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "io/buffer_pool.h"
#include "io/disk_model.h"
#include "io/env.h"
#include "test_util.h"

namespace msv::io {
namespace {

using msv::testing::ValueOrDie;

// ---------------------------------------------------------------------------
// Env / File
// ---------------------------------------------------------------------------

class EnvTest : public ::testing::TestWithParam<bool /* posix */> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      // A fresh directory per test so files from earlier runs cannot leak.
      const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info();
      root_ = ::testing::TempDir() + "/msv_" + info->name();
      std::filesystem::remove_all(root_);
      std::filesystem::create_directories(root_);
      env_ = NewPosixEnv(root_);
    } else {
      env_ = NewMemEnv();
    }
  }
  std::unique_ptr<Env> env_;
  std::string root_;
};

TEST_P(EnvTest, CreateWriteRead) {
  auto file = ValueOrDie(env_->OpenFile("t1", true));
  MSV_ASSERT_OK(file->Append("hello", 5));
  MSV_ASSERT_OK(file->Append(" world", 6));
  char buf[11];
  MSV_ASSERT_OK(file->ReadExact(0, 11, buf));
  EXPECT_EQ(std::string(buf, 11), "hello world");
  EXPECT_EQ(ValueOrDie(file->Size()), 11u);
}

TEST_P(EnvTest, PositionalWriteExtends) {
  auto file = ValueOrDie(env_->OpenFile("t2", true));
  MSV_ASSERT_OK(file->Write(100, "x", 1));
  EXPECT_EQ(ValueOrDie(file->Size()), 101u);
  char c;
  MSV_ASSERT_OK(file->ReadExact(100, 1, &c));
  EXPECT_EQ(c, 'x');
}

TEST_P(EnvTest, ShortReadAtEof) {
  auto file = ValueOrDie(env_->OpenFile("t3", true));
  MSV_ASSERT_OK(file->Append("abc", 3));
  char buf[10];
  size_t got = ValueOrDie(file->Read(1, 10, buf));
  EXPECT_EQ(got, 2u);
  EXPECT_EQ(std::string(buf, 2), "bc");
  EXPECT_TRUE(file->ReadExact(1, 10, buf).IsIOError());
}

TEST_P(EnvTest, MissingFileIsNotFound) {
  auto r = env_->OpenFile("nope", false);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_P(EnvTest, ExistsAndDelete) {
  EXPECT_FALSE(ValueOrDie(env_->FileExists("f")));
  { auto f = ValueOrDie(env_->OpenFile("f", true)); }
  EXPECT_TRUE(ValueOrDie(env_->FileExists("f")));
  MSV_ASSERT_OK(env_->DeleteFile("f"));
  EXPECT_FALSE(ValueOrDie(env_->FileExists("f")));
}

TEST_P(EnvTest, RenameReplacesTarget) {
  {
    auto f = ValueOrDie(env_->OpenFile("src", true));
    MSV_ASSERT_OK(f->Append("new", 3));
  }
  {
    auto f = ValueOrDie(env_->OpenFile("dst", true));
    MSV_ASSERT_OK(f->Append("old-old", 7));
  }
  MSV_ASSERT_OK(env_->RenameFile("src", "dst"));
  EXPECT_FALSE(ValueOrDie(env_->FileExists("src")));
  auto f = ValueOrDie(env_->OpenFile("dst", false));
  EXPECT_EQ(ValueOrDie(f->Size()), 3u);
  char buf[3];
  MSV_ASSERT_OK(f->ReadExact(0, 3, buf));
  EXPECT_EQ(std::string(buf, 3), "new");
}

TEST_P(EnvTest, RenameMissingSourceFails) {
  EXPECT_FALSE(env_->RenameFile("ghost", "dst").ok());
}

TEST_P(EnvTest, ReopenSeesData) {
  {
    auto f = ValueOrDie(env_->OpenFile("persist", true));
    MSV_ASSERT_OK(f->Append("data", 4));
    MSV_ASSERT_OK(f->Sync());
  }
  auto f = ValueOrDie(env_->OpenFile("persist", false));
  char buf[4];
  MSV_ASSERT_OK(f->ReadExact(0, 4, buf));
  EXPECT_EQ(std::string(buf, 4), "data");
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, EnvTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Posix" : "Mem";
                         });

TEST(MemEnvTest, PrivateEnvsAreIsolated) {
  auto a = NewMemEnv();
  auto b = NewMemEnv();
  { auto f = ValueOrDie(a->OpenFile("x", true)); }
  EXPECT_FALSE(ValueOrDie(b->FileExists("x")));
}

// ---------------------------------------------------------------------------
// Disk model
// ---------------------------------------------------------------------------

TEST(DiskModelTest, OptionsValidation) {
  DiskModelOptions bad;
  bad.transfer_mb_per_s = 0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
  bad = DiskModelOptions();
  bad.seek_ms = -1;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
  EXPECT_TRUE(DiskModelOptions().Validate().ok());
}

TEST(DiskModelTest, SequentialCheaperThanRandom) {
  DiskModelOptions options;
  DiskDevice seq(options), rnd(options);
  const uint64_t kPage = 64 << 10;
  // 100 sequential page reads vs 100 scattered ones.
  for (int i = 0; i < 100; ++i) {
    seq.Access(i * kPage, kPage, false);
    rnd.Access((i * 7919 % 1000) * kPage, kPage, false);
  }
  EXPECT_LT(seq.clock().NowMs() * 4, rnd.clock().NowMs());
  EXPECT_EQ(seq.stats().seeks, 1u);  // only the initial positioning
  EXPECT_EQ(seq.stats().sequential_ios, 99u);
}

TEST(DiskModelTest, ClockMonotone) {
  DiskDevice dev;
  double last = 0;
  for (int i = 0; i < 50; ++i) {
    dev.Access(i * 100, 100, i % 2 == 0);
    EXPECT_GT(dev.clock().NowMs(), last);
    last = dev.clock().NowMs();
  }
}

TEST(DiskModelTest, ScanTimeMatchesModel) {
  DiskModelOptions options;
  options.transfer_mb_per_s = 100.0;
  DiskDevice dev(options);
  // 100 MB sequential scan ~ 1000 ms + fixed costs.
  double ms = dev.SequentialScanMs(100 * 1000 * 1000);
  EXPECT_NEAR(ms, 1000.0 + options.seek_ms + options.rotational_ms +
                      options.request_overhead_ms,
              1e-9);
}

TEST(SimEnvTest, ChargesTimePerAccess) {
  auto mem = NewMemEnv();
  auto device = std::make_shared<DiskDevice>();
  auto sim = NewSimEnv(mem.get(), device);
  auto f = ValueOrDie(sim->OpenFile("f", true));
  std::string data(4096, 'a');
  MSV_ASSERT_OK(f->Append(data.data(), data.size()));
  double after_write = device->clock().NowMs();
  EXPECT_GT(after_write, 0.0);
  char buf[4096];
  MSV_ASSERT_OK(f->ReadExact(0, sizeof(buf), buf));
  EXPECT_GT(device->clock().NowMs(), after_write);
  EXPECT_EQ(device->stats().read_bytes, 4096u);
  EXPECT_EQ(device->stats().written_bytes, 4096u);
}

TEST(SimEnvTest, InterleavedFilesSeek) {
  auto mem = NewMemEnv();
  auto device = std::make_shared<DiskDevice>();
  auto sim = NewSimEnv(mem.get(), device);
  auto a = ValueOrDie(sim->OpenFile("a", true));
  auto b = ValueOrDie(sim->OpenFile("b", true));
  std::string block(1024, 'x');
  MSV_ASSERT_OK(a->Append(block.data(), block.size()));
  MSV_ASSERT_OK(b->Append(block.data(), block.size()));
  const DiskStats before = device->stats();
  char buf[512];
  // Alternating reads across files must all be discontiguous.
  for (int i = 0; i < 4; ++i) {
    MSV_ASSERT_OK(a->ReadExact(i * 128, 128, buf));
    MSV_ASSERT_OK(b->ReadExact(i * 128, 128, buf));
  }
  EXPECT_EQ((device->stats() - before).seeks, 8u);
}

TEST(SimEnvTest, DataIntegrityThroughDecorator) {
  auto mem = NewMemEnv();
  auto device = std::make_shared<DiskDevice>();
  auto sim = NewSimEnv(mem.get(), device);
  auto f = ValueOrDie(sim->OpenFile("f", true));
  MSV_ASSERT_OK(f->Write(10, "xyz", 3));
  char buf[3];
  MSV_ASSERT_OK(f->ReadExact(10, 3, buf));
  EXPECT_EQ(std::string(buf, 3), "xyz");
  // Inner env sees the same bytes.
  auto inner = ValueOrDie(mem->OpenFile("f", false));
  MSV_ASSERT_OK(inner->ReadExact(10, 3, buf));
  EXPECT_EQ(std::string(buf, 3), "xyz");
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    file_ = ValueOrDie(env_->OpenFile("data", true));
    // 8 pages of 256 bytes, each filled with its page number.
    for (int p = 0; p < 8; ++p) {
      std::string page(256, static_cast<char>('0' + p));
      MSV_ASSERT_OK(file_->Append(page.data(), page.size()));
    }
  }
  std::unique_ptr<Env> env_;
  std::unique_ptr<File> file_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(256, 4);
  {
    auto ref = ValueOrDie(pool.Get(file_.get(), 1, 3));
    EXPECT_EQ(ref.data()[0], '3');
    EXPECT_EQ(ref.size(), 256u);
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  { auto ref = ValueOrDie(pool.Get(file_.get(), 1, 3)); }
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST_F(BufferPoolTest, EvictsLruWhenFull) {
  BufferPool pool(256, 2);
  { auto a = ValueOrDie(pool.Get(file_.get(), 1, 0)); }
  { auto b = ValueOrDie(pool.Get(file_.get(), 1, 1)); }
  // Touch page 0 so page 1 is LRU.
  { auto a = ValueOrDie(pool.Get(file_.get(), 1, 0)); }
  { auto c = ValueOrDie(pool.Get(file_.get(), 1, 2)); }
  EXPECT_EQ(pool.stats().evictions, 1u);
  const BufferPoolStats before = pool.stats();
  { auto a = ValueOrDie(pool.Get(file_.get(), 1, 0)); }
  EXPECT_EQ((pool.stats() - before).hits, 1u);  // page 0 survived
  { auto b = ValueOrDie(pool.Get(file_.get(), 1, 1)); }
  EXPECT_EQ((pool.stats() - before).misses, 1u);  // page 1 was evicted
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(256, 2);
  auto a = ValueOrDie(pool.Get(file_.get(), 1, 0));  // stays pinned
  auto b = ValueOrDie(pool.Get(file_.get(), 1, 1));  // stays pinned
  auto r = pool.Get(file_.get(), 1, 2);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST_F(BufferPoolTest, DistinctFileIdsDistinctPages) {
  BufferPool pool(256, 4);
  auto other = ValueOrDie(env_->OpenFile("other", true));
  std::string page(256, 'Z');
  MSV_ASSERT_OK(other->Append(page.data(), page.size()));
  auto a = ValueOrDie(pool.Get(file_.get(), 1, 0));
  auto b = ValueOrDie(pool.Get(other.get(), 2, 0));
  EXPECT_EQ(a.data()[0], '0');
  EXPECT_EQ(b.data()[0], 'Z');
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST_F(BufferPoolTest, PageBeyondEofFails) {
  BufferPool pool(256, 2);
  auto r = pool.Get(file_.get(), 1, 100);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
}

TEST_F(BufferPoolTest, ClearDropsUnpinned) {
  BufferPool pool(256, 4);
  { auto a = ValueOrDie(pool.Get(file_.get(), 1, 0)); }
  EXPECT_EQ(pool.resident_pages(), 1u);
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfPageRef) {
  BufferPool pool(256, 2);
  PageRef outer;
  {
    auto inner = ValueOrDie(pool.Get(file_.get(), 1, 0));
    outer = std::move(inner);
    EXPECT_FALSE(inner.valid());
  }
  EXPECT_TRUE(outer.valid());
  EXPECT_EQ(outer.data()[0], '0');
}

}  // namespace
}  // namespace msv::io
