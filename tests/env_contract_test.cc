// Env contract test: one behavioural suite run against every backend
// (MemEnv, PosixEnv, FaultInjectionEnv-over-Mem), plus backend-specific
// checks — POSIX errno classification, the empty root, >2 GiB offsets
// (gated behind MSV_SLOW_TESTS), and the fault env's injection (one op
// per request, batched or not) and crash semantics.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace msv::io {
namespace {

using msv::testing::ValueOrDie;

enum class Backend { kMem, kPosix, kFault };

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kMem:
      return "Mem";
    case Backend::kPosix:
      return "Posix";
    case Backend::kFault:
      return "FaultInjection";
  }
  return "?";
}

class EnvContractTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case Backend::kMem:
        env_ = NewMemEnv();
        break;
      case Backend::kPosix: {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = ::testing::TempDir() + "/msv_contract_" + info->name();
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_);
        env_ = NewPosixEnv(root_);
        break;
      }
      case Backend::kFault:
        inner_ = NewMemEnv();
        env_ = NewFaultInjectionEnv(inner_.get());
        break;
    }
  }
  void TearDown() override {
    env_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  std::unique_ptr<Env> inner_;  // backing store for the fault env
  std::unique_ptr<Env> env_;
  std::string root_;
};

TEST_P(EnvContractTest, WriteReadRoundTrip) {
  auto file = ValueOrDie(env_->OpenFile("f", true));
  MSV_ASSERT_OK(file->Write(0, "hello", 5));
  MSV_ASSERT_OK(file->Append(" world", 6));
  char buf[11];
  MSV_ASSERT_OK(file->ReadExact(0, 11, buf));
  EXPECT_EQ(std::string(buf, 11), "hello world");
  EXPECT_EQ(ValueOrDie(file->Size()), 11u);
}

TEST_P(EnvContractTest, ShortReadAtEofIsNotAnError) {
  auto file = ValueOrDie(env_->OpenFile("f", true));
  MSV_ASSERT_OK(file->Append("abc", 3));
  char buf[8];
  EXPECT_EQ(ValueOrDie(file->Read(1, 8, buf)), 2u);
  EXPECT_EQ(std::string(buf, 2), "bc");
  EXPECT_EQ(ValueOrDie(file->Read(3, 8, buf)), 0u);
  EXPECT_TRUE(file->ReadExact(1, 8, buf).IsIOError());
}

TEST_P(EnvContractTest, MissingFileClassifiedNotFound) {
  auto open = env_->OpenFile("ghost", false);
  ASSERT_FALSE(open.ok());
  EXPECT_TRUE(open.status().IsNotFound());
  EXPECT_TRUE(env_->DeleteFile("ghost").IsNotFound());
  EXPECT_FALSE(ValueOrDie(env_->FileExists("ghost")));
}

TEST_P(EnvContractTest, TruncateShrinksAndExtends) {
  auto file = ValueOrDie(env_->OpenFile("f", true));
  MSV_ASSERT_OK(file->Append("0123456789", 10));
  MSV_ASSERT_OK(file->Truncate(4));
  EXPECT_EQ(ValueOrDie(file->Size()), 4u);
  MSV_ASSERT_OK(file->Truncate(8));
  EXPECT_EQ(ValueOrDie(file->Size()), 8u);
  // The extension reads back as zero bytes.
  char buf[8];
  MSV_ASSERT_OK(file->ReadExact(0, 8, buf));
  EXPECT_EQ(std::string(buf, 8), std::string("0123\0\0\0\0", 8));
}

TEST_P(EnvContractTest, OverflowingWriteOffsetRejected) {
  auto file = ValueOrDie(env_->OpenFile("f", true));
  const uint64_t near_max = std::numeric_limits<uint64_t>::max() - 2;
  EXPECT_FALSE(file->Write(near_max, "abcd", 4).ok());
  // The file must not have been corrupted into a huge allocation.
  EXPECT_EQ(ValueOrDie(file->Size()), 0u);
}

TEST_P(EnvContractTest, RenameReplacesTarget) {
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
}

TEST_P(EnvContractTest, ListFilesSeesCreatedFiles) {
  { auto f = ValueOrDie(env_->OpenFile("b", true)); }
  { auto f = ValueOrDie(env_->OpenFile("a", true)); }
  auto names = ValueOrDie(env_->ListFiles());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  MSV_ASSERT_OK(env_->DeleteFile("a"));
  names = ValueOrDie(env_->ListFiles());
  EXPECT_EQ(names, (std::vector<std::string>{"b"}));
}

TEST_P(EnvContractTest, SyncAndSyncDirSucceed) {
  auto file = ValueOrDie(env_->OpenFile("f", true));
  MSV_ASSERT_OK(file->Append("data", 4));
  MSV_ASSERT_OK(file->Sync());
  MSV_ASSERT_OK(env_->SyncDir());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EnvContractTest,
    ::testing::Values(Backend::kMem, Backend::kPosix, Backend::kFault),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return BackendName(info.param);
    });

// ---------------------------------------------------------------------------
// POSIX-specific: errno classification and 64-bit offsets
// ---------------------------------------------------------------------------

class PosixEnvContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = ::testing::TempDir() + "/msv_posix_" + info->name();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    env_ = NewPosixEnv(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::unique_ptr<Env> env_;
  std::string root_;
};

TEST_F(PosixEnvContractTest, DeleteDirectoryIsIOErrorNotNotFound) {
  // A directory in the way is an I/O error the caller must see; only a
  // genuinely missing file may report NotFound ("already gone").
  std::filesystem::create_directories(root_ + "/sub");
  Status st = env_->DeleteFile("sub");
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(st.IsNotFound()) << st.ToString();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST_F(PosixEnvContractTest, ExistsThroughFileComponentIsFalse) {
  { auto f = ValueOrDie(env_->OpenFile("plain", true)); }
  // "plain" is a file, so nothing can exist beneath it (ENOTDIR).
  EXPECT_FALSE(ValueOrDie(env_->FileExists("plain/child")));
}

TEST_F(PosixEnvContractTest, SizeSurvivesConcurrentlyMovedOffsets) {
  // pread/pwrite keep no shared cursor: interleaved positional reads and
  // size queries through one handle must not perturb each other.
  auto file = ValueOrDie(env_->OpenFile("f", true));
  MSV_ASSERT_OK(file->Append("0123456789", 10));
  char c;
  MSV_ASSERT_OK(file->ReadExact(7, 1, &c));
  EXPECT_EQ(ValueOrDie(file->Size()), 10u);
  MSV_ASSERT_OK(file->ReadExact(2, 1, &c));
  EXPECT_EQ(c, '2');
}

TEST_F(PosixEnvContractTest, EmptyRootListsWorkingDirectoryFiles) {
  // NewPosixEnv("") is the working directory; ListFiles must see what
  // OpenFile created there (views find their WALs through it).
  auto cwd = NewPosixEnv("");
  const std::string name =
      "msv_empty_root_" + std::to_string(::getpid()) + ".tmp";
  { auto f = ValueOrDie(cwd->OpenFile(name, true)); }
  EXPECT_TRUE(std::filesystem::exists(name));
  const std::vector<std::string> names = ValueOrDie(cwd->ListFiles());
  EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
  MSV_ASSERT_OK(cwd->SyncDir());
  MSV_ASSERT_OK(cwd->DeleteFile(name));
  EXPECT_FALSE(ValueOrDie(cwd->FileExists(name)));
}

TEST_F(PosixEnvContractTest, OffsetsBeyondTwoGiB) {
  if (std::getenv("MSV_SLOW_TESTS") == nullptr) {
    GTEST_SKIP() << "set MSV_SLOW_TESTS=1 to run >2 GiB offset tests";
  }
  // 5 GiB offset: overflows a 32-bit long, so this is exactly the fseek
  // truncation regression. The file stays sparse — only a page lands.
  const uint64_t kOffset = 5ull << 30;
  auto file = ValueOrDie(env_->OpenFile("big", true));
  MSV_ASSERT_OK(file->Write(kOffset, "deep", 4));
  EXPECT_EQ(ValueOrDie(file->Size()), kOffset + 4);
  char buf[4];
  MSV_ASSERT_OK(file->ReadExact(kOffset, 4, buf));
  EXPECT_EQ(std::string(buf, 4), "deep");
  // Nothing was written to the truncated 32-bit alias of the offset.
  EXPECT_EQ(ValueOrDie(file->Read(kOffset & 0xffffffffu, 4, buf)), 4u);
  EXPECT_EQ(std::string(buf, 4), std::string(4, '\0'));
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv: deterministic faults
// ---------------------------------------------------------------------------

class FaultEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inner_ = NewMemEnv();
    env_ = NewFaultInjectionEnv(inner_.get());
  }
  std::unique_ptr<Env> inner_;
  std::unique_ptr<FaultInjectionEnv> env_;
};

TEST_F(FaultEnvTest, OpCountIsDeterministic) {
  auto workload = [](Env* env) {
    auto f = ValueOrDie(env->OpenFile("f", true));
    MSV_ASSERT_OK(f->Write(0, "abc", 3));
    MSV_ASSERT_OK(f->Sync());
    char buf[3];
    MSV_ASSERT_OK(f->ReadExact(0, 3, buf));
    MSV_ASSERT_OK(env->SyncDir());
  };
  workload(env_.get());
  int64_t first = env_->op_count();
  auto inner2 = NewMemEnv();
  auto env2 = NewFaultInjectionEnv(inner2.get());
  workload(env2.get());
  EXPECT_EQ(env2->op_count(), first);
  EXPECT_GE(first, 5);  // open, write, sync, read, dir-sync
}

TEST_F(FaultEnvTest, NonStickyFaultFiresExactlyOnce) {
  auto f = ValueOrDie(env_->OpenFile("f", true));
  MSV_ASSERT_OK(f->Write(0, "abc", 3));
  env_->ArmFault(env_->op_count(), FaultMode::kError, /*sticky=*/false);
  Status st = f->Write(3, "def", 3);
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.ToString().find("injected"), std::string::npos);
  EXPECT_TRUE(env_->fault_fired());
  MSV_ASSERT_OK(f->Write(3, "def", 3));  // next op succeeds again
}

TEST_F(FaultEnvTest, StickyFaultKillsEveryLaterOp) {
  auto f = ValueOrDie(env_->OpenFile("f", true));
  env_->ArmFault(env_->op_count(), FaultMode::kError, /*sticky=*/true);
  EXPECT_TRUE(f->Write(0, "x", 1).IsIOError());
  EXPECT_TRUE(f->Sync().IsIOError());
  EXPECT_FALSE(env_->OpenFile("g", true).ok());
  EXPECT_TRUE(env_->SyncDir().IsIOError());
  env_->ClearFault();
  MSV_ASSERT_OK(f->Write(0, "x", 1));
}

TEST_F(FaultEnvTest, ShortReadReturnsHalf) {
  auto f = ValueOrDie(env_->OpenFile("f", true));
  std::string data(100, 'a');
  MSV_ASSERT_OK(f->Write(0, data.data(), data.size()));
  env_->ArmFault(env_->op_count(), FaultMode::kShortRead, /*sticky=*/false);
  char buf[100];
  EXPECT_EQ(ValueOrDie(f->Read(0, 100, buf)), 50u);
  // ReadExact turns the injected short read into a clean IOError.
  env_->ArmFault(env_->op_count(), FaultMode::kShortRead, /*sticky=*/false);
  EXPECT_TRUE(f->ReadExact(0, 100, buf).IsIOError());
}

TEST_F(FaultEnvTest, ShortWriteTearsThePayload) {
  auto f = ValueOrDie(env_->OpenFile("f", true));
  env_->ArmFault(env_->op_count(), FaultMode::kShortWrite, /*sticky=*/false);
  std::string data(100, 'b');
  EXPECT_TRUE(f->Write(0, data.data(), data.size()).IsIOError());
  // Half the payload landed in the backing store: a torn write.
  auto raw = ValueOrDie(inner_->OpenFile("f", false));
  EXPECT_EQ(ValueOrDie(raw->Size()), 50u);
}

TEST_F(FaultEnvTest, FaultCountersPublished) {
  auto* reg = &obs::MetricRegistry::Global();
  uint64_t ops0 = reg->GetCounter("io.fault.ops")->Value();
  uint64_t errs0 = reg->GetCounter("io.fault.injected_errors")->Value();
  auto f = ValueOrDie(env_->OpenFile("f", true));
  env_->ArmFault(env_->op_count(), FaultMode::kError, /*sticky=*/false);
  EXPECT_TRUE(f->Sync().IsIOError());
  EXPECT_GT(reg->GetCounter("io.fault.ops")->Value(), ops0);
  EXPECT_EQ(reg->GetCounter("io.fault.injected_errors")->Value(), errs0 + 1);
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv: batched reads are one op per request
// ---------------------------------------------------------------------------

TEST_F(FaultEnvTest, MidBatchFaultHitsTheRunItIsArmedFor) {
  auto f = ValueOrDie(env_->OpenFile("f", true));
  std::string data(800, 'x');
  MSV_ASSERT_OK(f->Write(0, data.data(), data.size()));
  // Three requests, the first two adjacent: still three ops, one per
  // request. Arm the second one, so the first keeps its bytes and the
  // batch stops at the armed request.
  std::string scratch(300, '\0');
  std::vector<ReadRequest> reqs = {{0, 100, scratch.data()},
                                   {100, 100, scratch.data() + 100},
                                   {500, 100, scratch.data() + 200}};
  const int64_t before = env_->op_count();
  env_->ArmFault(before + 1, FaultMode::kError, /*sticky=*/false);
  Status st = f->ReadBatch(reqs.data(), reqs.size());
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.ToString().find("injected"), std::string::npos);
  EXPECT_EQ(env_->op_count(), before + 2);  // the third request never ran
  EXPECT_EQ(reqs[0].got, 100u);
  EXPECT_EQ(reqs[1].got, 0u);
  EXPECT_EQ(reqs[2].got, 0u);
  MSV_ASSERT_OK(f->ReadBatch(reqs.data(), reqs.size()));  // non-sticky
  EXPECT_EQ(env_->op_count(), before + 5);
  for (const ReadRequest& r : reqs) EXPECT_EQ(r.got, 100u);
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv: crash (drop-unsynced-data) semantics
// ---------------------------------------------------------------------------

TEST_F(FaultEnvTest, SyncedAndDirSyncedDataSurvivesCrash) {
  {
    auto f = ValueOrDie(env_->OpenFile("f", true));
    MSV_ASSERT_OK(f->Write(0, "durable", 7));
    MSV_ASSERT_OK(f->Sync());
    MSV_ASSERT_OK(env_->SyncDir());
  }
  MSV_ASSERT_OK(env_->DropUnsyncedData());
  auto f = ValueOrDie(env_->OpenFile("f", false));
  char buf[7];
  MSV_ASSERT_OK(f->ReadExact(0, 7, buf));
  EXPECT_EQ(std::string(buf, 7), "durable");
}

TEST_F(FaultEnvTest, UnsyncedWritesRollBackToLastSync) {
  {
    auto f = ValueOrDie(env_->OpenFile("f", true));
    MSV_ASSERT_OK(f->Write(0, "v1", 2));
    MSV_ASSERT_OK(f->Sync());
    MSV_ASSERT_OK(env_->SyncDir());
    MSV_ASSERT_OK(f->Write(0, "v2-unsynced", 11));
  }
  MSV_ASSERT_OK(env_->DropUnsyncedData());
  auto f = ValueOrDie(env_->OpenFile("f", false));
  EXPECT_EQ(ValueOrDie(f->Size()), 2u);
  char buf[2];
  MSV_ASSERT_OK(f->ReadExact(0, 2, buf));
  EXPECT_EQ(std::string(buf, 2), "v1");
}

TEST_F(FaultEnvTest, CreateWithoutDirSyncVanishesInCrash) {
  {
    auto f = ValueOrDie(env_->OpenFile("f", true));
    MSV_ASSERT_OK(f->Write(0, "synced but no dir entry", 23));
    MSV_ASSERT_OK(f->Sync());  // data synced, directory entry is not
  }
  MSV_ASSERT_OK(env_->DropUnsyncedData());
  EXPECT_FALSE(ValueOrDie(env_->FileExists("f")));
  EXPECT_TRUE(env_->OpenFile("f", false).status().IsNotFound());
}

TEST_F(FaultEnvTest, DeleteWithoutDirSyncResurrectsInCrash) {
  {
    auto f = ValueOrDie(env_->OpenFile("f", true));
    MSV_ASSERT_OK(f->Write(0, "keep", 4));
    MSV_ASSERT_OK(f->Sync());
    MSV_ASSERT_OK(env_->SyncDir());
  }
  MSV_ASSERT_OK(env_->DeleteFile("f"));
  EXPECT_FALSE(ValueOrDie(env_->FileExists("f")));
  MSV_ASSERT_OK(env_->DropUnsyncedData());
  auto f = ValueOrDie(env_->OpenFile("f", false));
  EXPECT_EQ(ValueOrDie(f->Size()), 4u);
}

TEST_F(FaultEnvTest, RenameWithoutDirSyncRollsBackInCrash) {
  {
    auto f = ValueOrDie(env_->OpenFile("a", true));
    MSV_ASSERT_OK(f->Write(0, "payload", 7));
    MSV_ASSERT_OK(f->Sync());
    MSV_ASSERT_OK(env_->SyncDir());
  }
  MSV_ASSERT_OK(env_->RenameFile("a", "b"));
  MSV_ASSERT_OK(env_->DropUnsyncedData());
  // The rename was never committed: "a" is back, "b" never existed.
  EXPECT_TRUE(ValueOrDie(env_->FileExists("a")));
  EXPECT_FALSE(ValueOrDie(env_->FileExists("b")));
}

TEST_F(FaultEnvTest, RenameWithDirSyncCommits) {
  {
    auto f = ValueOrDie(env_->OpenFile("a", true));
    MSV_ASSERT_OK(f->Write(0, "payload", 7));
    MSV_ASSERT_OK(f->Sync());
  }
  MSV_ASSERT_OK(env_->RenameFile("a", "b"));
  MSV_ASSERT_OK(env_->SyncDir());
  MSV_ASSERT_OK(env_->DropUnsyncedData());
  EXPECT_FALSE(ValueOrDie(env_->FileExists("a")));
  auto f = ValueOrDie(env_->OpenFile("b", false));
  char buf[7];
  MSV_ASSERT_OK(f->ReadExact(0, 7, buf));
  EXPECT_EQ(std::string(buf, 7), "payload");
}

TEST_F(FaultEnvTest, PreExistingFilesAreDurable) {
  // Files created before the fault env wraps the store predate the crash
  // window and survive as-is.
  auto raw_inner = NewMemEnv();
  {
    auto f = ValueOrDie(raw_inner->OpenFile("old", true));
    MSV_ASSERT_OK(f->Write(0, "ancient", 7));
  }
  auto fault = NewFaultInjectionEnv(raw_inner.get());
  MSV_ASSERT_OK(fault->DropUnsyncedData());
  auto f = ValueOrDie(fault->OpenFile("old", false));
  char buf[7];
  MSV_ASSERT_OK(f->ReadExact(0, 7, buf));
  EXPECT_EQ(std::string(buf, 7), "ancient");
}

}  // namespace
}  // namespace msv::io
