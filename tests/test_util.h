// Shared helpers for the MSV test suite.

#ifndef MSV_TESTS_TEST_UTIL_H_
#define MSV_TESTS_TEST_UTIL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "io/env.h"
#include "query/executor.h"
#include "relation/sale_generator.h"
#include "relation/workload.h"
#include "sampling/sample_stream.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "util/status.h"

namespace msv::testing {

#define MSV_ASSERT_OK(expr)                                 \
  do {                                                      \
    ::msv::Status _st = (expr);                             \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

#define MSV_EXPECT_OK(expr)                                 \
  do {                                                      \
    ::msv::Status _st = (expr);                             \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

/// Unwraps a Result<T> or fails the test.
template <typename T>
T ValueOrDie(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

/// Generates a SALE heap file in `env` and returns its opened handle.
inline std::unique_ptr<storage::HeapFile> MakeSale(
    io::Env* env, const std::string& name, uint64_t n, uint64_t seed = 42,
    double day_max = 100000.0) {
  relation::SaleGenOptions options;
  options.num_records = n;
  options.seed = seed;
  options.day_max = day_max;
  EXPECT_TRUE(relation::GenerateSaleRelation(env, name, options).ok());
  return ValueOrDie(storage::HeapFile::Open(env, name));
}

/// Drains a sample stream to completion; returns row_ids in arrival order.
inline std::vector<uint64_t> DrainRowIds(sampling::SampleStream* stream,
                                         uint64_t max_pulls = 1'000'000) {
  std::vector<uint64_t> ids;
  for (uint64_t pulls = 0; !stream->done() && pulls < max_pulls; ++pulls) {
    auto batch = ValueOrDie(stream->NextBatch());
    for (size_t i = 0; i < batch.count(); ++i) {
      ids.push_back(storage::SaleRecord::DecodeFrom(batch.record(i)).row_id);
    }
  }
  EXPECT_TRUE(stream->done()) << "stream did not finish";
  return ids;
}

/// Pulls until at least `want` samples arrived (or the stream finishes);
/// returns row_ids in arrival order.
inline std::vector<uint64_t> TakeRowIds(sampling::SampleStream* stream,
                                        uint64_t want) {
  std::vector<uint64_t> ids;
  while (!stream->done() && ids.size() < want) {
    auto batch = ValueOrDie(stream->NextBatch());
    for (size_t i = 0; i < batch.count(); ++i) {
      ids.push_back(storage::SaleRecord::DecodeFrom(batch.record(i)).row_id);
    }
  }
  return ids;
}

/// True when `ids` contains no duplicate.
inline bool AllDistinct(const std::vector<uint64_t>& ids) {
  std::set<uint64_t> s(ids.begin(), ids.end());
  return s.size() == ids.size();
}

/// Runs `scripts` through one shared executor on `threads` plain
/// std::threads, each claiming the next unclaimed script until none is
/// left. Returns every script's result, in script order.
inline std::vector<Result<std::string>> RunScriptsOnThreads(
    query::Executor* exec, const std::vector<std::string>& scripts,
    size_t threads) {
  std::vector<std::optional<Result<std::string>>> slots(scripts.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < scripts.size(); i = next++) {
        slots[i] = exec->Run(scripts[i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<Result<std::string>> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace msv::testing

#endif  // MSV_TESTS_TEST_UTIL_H_
