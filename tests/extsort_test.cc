#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "extsort/external_sorter.h"
#include "extsort/loser_tree.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "storage/heap_file.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/random.h"

namespace msv::extsort {
namespace {

using msv::testing::ValueOrDie;
using storage::HeapFile;
using storage::HeapFileWriter;

// ---------------------------------------------------------------------------
// LoserTree
// ---------------------------------------------------------------------------

TEST(LoserTreeTest, MergesSortedSequences) {
  std::vector<std::vector<int>> inputs = {
      {1, 4, 7, 10}, {2, 5, 8}, {3, 6, 9, 11, 12}, {}};
  std::vector<size_t> pos(inputs.size(), 0);
  LoserTree tree(
      inputs.size(),
      [&](size_t a, size_t b) {
        return inputs[a][pos[a]] < inputs[b][pos[b]];
      },
      [&](size_t i) { return pos[i] >= inputs[i].size(); });
  std::vector<int> out;
  while (tree.Top() != LoserTree::kInvalid) {
    size_t i = tree.Top();
    out.push_back(inputs[i][pos[i]]);
    ++pos[i];
    tree.Advance();
  }
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
}

TEST(LoserTreeTest, SingleInput) {
  std::vector<int> input = {5, 6, 7};
  size_t pos = 0;
  LoserTree tree(
      1, [&](size_t, size_t) { return false; },
      [&](size_t) { return pos >= input.size(); });
  std::vector<int> out;
  while (tree.Top() != LoserTree::kInvalid) {
    out.push_back(input[pos++]);
    tree.Advance();
  }
  EXPECT_EQ(out, input);
}

TEST(LoserTreeTest, AllInputsEmpty) {
  LoserTree tree(
      3, [](size_t, size_t) { return false; },
      [](size_t) { return true; });
  EXPECT_EQ(tree.Top(), LoserTree::kInvalid);
}

TEST(LoserTreeTest, ManyInputsWithDuplicates) {
  Pcg64 rng(4);
  const size_t k = 37;
  std::vector<std::vector<uint64_t>> inputs(k);
  std::vector<uint64_t> all;
  for (auto& input : inputs) {
    size_t n = rng.Below(50);
    for (size_t i = 0; i < n; ++i) input.push_back(rng.Below(100));
    std::sort(input.begin(), input.end());
    all.insert(all.end(), input.begin(), input.end());
  }
  std::sort(all.begin(), all.end());

  std::vector<size_t> pos(k, 0);
  LoserTree tree(
      k,
      [&](size_t a, size_t b) {
        return inputs[a][pos[a]] < inputs[b][pos[b]];
      },
      [&](size_t i) { return pos[i] >= inputs[i].size(); });
  std::vector<uint64_t> out;
  while (tree.Top() != LoserTree::kInvalid) {
    size_t i = tree.Top();
    out.push_back(inputs[i][pos[i]]);
    ++pos[i];
    tree.Advance();
  }
  EXPECT_EQ(out, all);
}

// ---------------------------------------------------------------------------
// ExternalSort — parameterized sweep over sizes, budgets and fan-in
// ---------------------------------------------------------------------------

struct SortCase {
  uint64_t records;
  size_t budget_bytes;
  size_t fanin;
};

class ExternalSortTest : public ::testing::TestWithParam<SortCase> {
 protected:
  void SetUp() override { env_ = io::NewMemEnv(); }

  // Each record: 8-byte key, 8-byte payload (original index).
  static constexpr size_t kRecordSize = 16;

  std::vector<uint64_t> WriteRandom(const std::string& name, uint64_t n,
                                    uint64_t seed) {
    auto writer =
        ValueOrDie(HeapFileWriter::Create(env_.get(), name, kRecordSize));
    Pcg64 rng(seed);
    std::vector<uint64_t> keys;
    char rec[kRecordSize];
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t key = rng.Below(1000);  // plenty of duplicates
      keys.push_back(key);
      EncodeFixed64(rec, key);
      EncodeFixed64(rec + 8, i);
      MSV_EXPECT_OK(writer->Append(rec));
    }
    MSV_EXPECT_OK(writer->Finish());
    return keys;
  }

  std::unique_ptr<io::Env> env_;
};

TEST_P(ExternalSortTest, SortsLikeStdSort) {
  const SortCase& c = GetParam();
  std::vector<uint64_t> keys = WriteRandom("in", c.records, 77);

  SortOptions options;
  options.memory_budget_bytes = c.budget_bytes;
  options.max_fanin = c.fanin;
  SortMetrics metrics;
  MSV_ASSERT_OK(ExternalSort(
      env_.get(), "in", "out",
      [](const char* a, const char* b) {
        return DecodeFixed64(a) < DecodeFixed64(b);
      },
      options, &metrics));

  auto out = ValueOrDie(HeapFile::Open(env_.get(), "out"));
  ASSERT_EQ(out->record_count(), c.records);
  EXPECT_EQ(metrics.records, c.records);

  std::sort(keys.begin(), keys.end());
  auto scanner = out->NewScanner();
  std::set<uint64_t> payloads;
  for (uint64_t i = 0; i < c.records; ++i) {
    const char* rec = ValueOrDie(scanner.Next());
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(DecodeFixed64(rec), keys[i]) << "at position " << i;
    payloads.insert(DecodeFixed64(rec + 8));
  }
  // No record lost or duplicated.
  EXPECT_EQ(payloads.size(), c.records);

  // Temp run files are cleaned up.
  for (const std::string& name : ValueOrDie(env_->ListFiles())) {
    EXPECT_EQ(name.find("extsort_run"), std::string::npos) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSortTest,
    ::testing::Values(
        SortCase{0, 1 << 10, 4},         // empty input
        SortCase{1, 1 << 10, 4},         // single record
        SortCase{100, 1 << 20, 64},      // one in-memory run
        SortCase{1000, 1 << 10, 64},     // many runs, single merge pass
        SortCase{5000, 512, 4},          // budget of 32 records, fanin 4:
                                         // multiple merge passes
        SortCase{5000, 256, 2},          // binary merges, deep recursion
        SortCase{10000, 1 << 10, 8}),    // mid-size stress
    [](const ::testing::TestParamInfo<SortCase>& info) {
      return "n" + std::to_string(info.param.records) + "_b" +
             std::to_string(info.param.budget_bytes) + "_f" +
             std::to_string(info.param.fanin);
    });

TEST(ExternalSortEdgeTest, RejectsTinyBudget) {
  auto env = io::NewMemEnv();
  auto writer = ValueOrDie(HeapFileWriter::Create(env.get(), "in", 64));
  std::vector<char> rec(64, 0);
  MSV_ASSERT_OK(writer->Append(rec.data()));
  MSV_ASSERT_OK(writer->Finish());
  SortOptions options;
  options.memory_budget_bytes = 32;  // smaller than one record
  auto status = ExternalSort(
      env.get(), "in", "out",
      [](const char*, const char*) { return false; }, options);
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST(ExternalSortEdgeTest, MultiPassMetricsReported) {
  auto env = io::NewMemEnv();
  auto writer = ValueOrDie(HeapFileWriter::Create(env.get(), "in", 16));
  Pcg64 rng(5);
  char rec[16];
  for (int i = 0; i < 2000; ++i) {
    EncodeFixed64(rec, rng.Next());
    EncodeFixed64(rec + 8, i);
    MSV_ASSERT_OK(writer->Append(rec));
  }
  MSV_ASSERT_OK(writer->Finish());

  SortOptions options;
  options.memory_budget_bytes = 16 * 10;  // 10-record runs -> 200 runs
  options.max_fanin = 4;
  SortMetrics metrics;
  MSV_ASSERT_OK(ExternalSort(
      env.get(), "in", "out",
      [](const char* a, const char* b) {
        return DecodeFixed64(a) < DecodeFixed64(b);
      },
      options, &metrics));
  EXPECT_EQ(metrics.initial_runs, 200u);
  EXPECT_GE(metrics.merge_passes, 4u);  // log_4(200) rounded up, plus final
}

TEST(ExternalSortEdgeTest, AlreadySortedInput) {
  auto env = io::NewMemEnv();
  auto writer = ValueOrDie(HeapFileWriter::Create(env.get(), "in", 16));
  char rec[16];
  for (uint64_t i = 0; i < 500; ++i) {
    EncodeFixed64(rec, i);
    EncodeFixed64(rec + 8, i);
    MSV_ASSERT_OK(writer->Append(rec));
  }
  MSV_ASSERT_OK(writer->Finish());
  SortOptions options;
  options.memory_budget_bytes = 16 * 50;
  MSV_ASSERT_OK(ExternalSort(
      env.get(), "in", "out",
      [](const char* a, const char* b) {
        return DecodeFixed64(a) < DecodeFixed64(b);
      },
      options));
  auto out = ValueOrDie(HeapFile::Open(env.get(), "out"));
  auto scanner = out->NewScanner();
  for (uint64_t i = 0; i < 500; ++i) {
    const char* r = ValueOrDie(scanner.Next());
    EXPECT_EQ(DecodeFixed64(r), i);
  }
}

// ---------------------------------------------------------------------------
// One-run and in-place sorts
// ---------------------------------------------------------------------------

// 16-byte records: 8-byte key with duplicates, 8-byte unique payload.
void WriteKeyed(io::Env* env, const std::string& name, uint64_t n,
                uint64_t seed) {
  auto writer = ValueOrDie(HeapFileWriter::Create(env, name, 16));
  Pcg64 rng(seed);
  char rec[16];
  for (uint64_t i = 0; i < n; ++i) {
    EncodeFixed64(rec, rng.Below(500));
    EncodeFixed64(rec + 8, i);
    MSV_ASSERT_OK(writer->Append(rec));
  }
  MSV_ASSERT_OK(writer->Finish());
}

// Total order (key, then payload), so every correct sort of one input
// writes the same bytes whatever its run layout.
bool KeyThenPayload(const char* a, const char* b) {
  uint64_t ka = DecodeFixed64(a), kb = DecodeFixed64(b);
  if (ka != kb) return ka < kb;
  return DecodeFixed64(a + 8) < DecodeFixed64(b + 8);
}

std::string FileBytes(io::Env* env, const std::string& name) {
  auto file = ValueOrDie(env->OpenFile(name, /*create=*/false));
  std::string bytes(static_cast<size_t>(ValueOrDie(file->Size())), '\0');
  EXPECT_EQ(ValueOrDie(file->Read(0, bytes.size(), bytes.data())),
            bytes.size());
  return bytes;
}

void ExpectSortedPermutation(io::Env* env, const std::string& name,
                             uint64_t n) {
  auto out = ValueOrDie(HeapFile::Open(env, name));
  ASSERT_EQ(out->record_count(), n);
  auto scanner = out->NewScanner();
  std::vector<char> prev(16);
  std::set<uint64_t> payloads;
  for (uint64_t i = 0; i < n; ++i) {
    const char* rec = ValueOrDie(scanner.Next());
    ASSERT_NE(rec, nullptr);
    if (i > 0) {
      EXPECT_FALSE(KeyThenPayload(rec, prev.data())) << i;
    }
    std::memcpy(prev.data(), rec, 16);
    payloads.insert(DecodeFixed64(rec + 8));
  }
  EXPECT_EQ(payloads.size(), n);
}

TEST(ExternalSortOneRunTest, WritesOutputDirectlyAndMatchesMultiRunBytes) {
  auto env = io::NewMemEnv();
  WriteKeyed(env.get(), "in", 3000, 11);

  SortOptions one_run;
  one_run.temp_prefix = "tmp_run";
  SortMetrics one;
  MSV_ASSERT_OK(ExternalSort(env.get(), "in", "one", KeyThenPayload, one_run,
                             &one));
  EXPECT_EQ(one.records, 3000u);
  EXPECT_EQ(one.initial_runs, 1u);
  EXPECT_EQ(one.merge_passes, 0u);
  EXPECT_EQ(one.run_files_written, 0u);
  auto files = ValueOrDie(env->ListFiles());
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"in", "one"}));

  SortOptions many_runs = one_run;
  many_runs.memory_budget_bytes = 16 * 1000;  // three 1000-record runs
  SortMetrics many;
  MSV_ASSERT_OK(ExternalSort(env.get(), "in", "many", KeyThenPayload,
                             many_runs, &many));
  EXPECT_GE(many.initial_runs, 3u);
  EXPECT_EQ(many.merge_passes, 1u);
  EXPECT_EQ(many.run_files_written, many.initial_runs);

  EXPECT_EQ(FileBytes(env.get(), "one"), FileBytes(env.get(), "many"));
  ExpectSortedPermutation(env.get(), "one", 3000);
}

TEST(ExternalSortInPlaceTest, SortsFileOntoItself) {
  for (size_t budget : {size_t{64} << 20, size_t{16 * 100}}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    auto env = io::NewMemEnv();
    WriteKeyed(env.get(), "f", 2500, 21);
    WriteKeyed(env.get(), "ref", 2500, 21);
    SortOptions options;
    options.memory_budget_bytes = budget;
    options.max_fanin = 4;  // several runs take two merge passes or more
    SortMetrics metrics;
    MSV_ASSERT_OK(ExternalSort(env.get(), "f", "f", KeyThenPayload, options,
                               &metrics));
    MSV_ASSERT_OK(ExternalSort(env.get(), "ref", "ref_sorted",
                               KeyThenPayload, options));
    EXPECT_EQ(metrics.initial_runs, budget > 16 * 2500 ? 1u : 25u);
    ExpectSortedPermutation(env.get(), "f", 2500);
    EXPECT_EQ(FileBytes(env.get(), "f"), FileBytes(env.get(), "ref_sorted"));
    auto files = ValueOrDie(env->ListFiles());
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, (std::vector<std::string>{"f", "ref", "ref_sorted"}));
  }
}

}  // namespace
}  // namespace msv::extsort
