// Thread-safety tests for the concurrent-serving stack: shared
// BufferPool under pin/unpin/evict pressure, concurrent AceSamplers on
// one tree, MSVQL scripts on plain threads against one executor, and the
// metrics registry's monotone totals. Designed to run under
// TSan (ctest -R concurrency on the tsan preset) in well under 10s.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/buffer_pool.h"
#include "io/env.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "relation/sale_generator.h"
#include "storage/record.h"
#include "test_util.h"
#include "util/random.h"

namespace msv {
namespace {

using msv::testing::AllDistinct;
using msv::testing::DrainRowIds;
using msv::testing::ValueOrDie;
using storage::SaleRecord;

// ---------------------------------------------------------------------------
// Shared BufferPool under contention
// ---------------------------------------------------------------------------

TEST(BufferPoolConcurrencyTest, ManyThreadsOneSmallPool) {
  auto env = io::NewMemEnv();
  auto heap = msv::testing::MakeSale(env.get(), "sale", /*n=*/5000);
  auto file = ValueOrDie(env->OpenFile("sale", /*create=*/false));
  const size_t kPageSize = 1024;
  const uint64_t num_pages =
      (ValueOrDie(file->Size()) + kPageSize - 1) / kPageSize;
  ASSERT_GT(num_pages, 256u);

  // Far fewer frames than pages, so every thread continuously faults,
  // evicts and collides on the pool lock. Each thread holds at most 2
  // pins (current + ring), so 16 pins can never exhaust 128 frames.
  io::BufferPool pool(kPageSize, /*capacity_pages=*/128);

  constexpr size_t kThreads = 8;
  constexpr uint64_t kGetsPerThread = 3000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Pcg64 rng = DeriveRngStream(/*root_seed=*/42, /*stream_id=*/t);
      // A one-deep ring keeps the previous page pinned across the next
      // Get, so eviction constantly races against pinned frames.
      std::vector<io::PageRef> ring(1);
      for (uint64_t i = 0; i < kGetsPerThread; ++i) {
        auto page = pool.Get(file.get(), /*file_id=*/1, rng.Below(num_pages));
        ASSERT_TRUE(page.ok()) << page.status().ToString();
        ASSERT_GT(page.value().size(), 0u);
        // Read a byte while pinned: TSan verifies no writer touches it.
        volatile char c = page.value().data()[0];
        (void)c;
        ring[i % ring.size()] = std::move(page).value();
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(pool.CheckAccounting(), "");
  io::BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kGetsPerThread);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(pool.resident_pages(), pool.capacity());
}

TEST(BufferPoolConcurrencyTest, ConcurrentStatsReadsKeepAccountingSane) {
  auto env = io::NewMemEnv();
  auto heap = msv::testing::MakeSale(env.get(), "sale", /*n=*/2000);
  auto file = ValueOrDie(env->OpenFile("sale", /*create=*/false));
  const size_t kPageSize = 4096;
  const uint64_t num_pages =
      (ValueOrDie(file->Size()) + kPageSize - 1) / kPageSize;

  // 16 frames against 4 single-pin threads: never exhaustible.
  io::BufferPool pool(kPageSize, /*capacity_pages=*/16);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Pcg64 rng = DeriveRngStream(7, t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto page = pool.Get(file.get(), 1, rng.Below(num_pages));
        ASSERT_TRUE(page.ok());
      }
    });
  }
  // Stats and accounting read concurrently with traffic: totals never
  // step backwards, so any two reads give a well-defined window, and the
  // frame table is consistent at every lock acquisition.
  io::BufferPoolStats last;
  for (int i = 0; i < 200; ++i) {
    const io::BufferPoolStats now = pool.stats();
    EXPECT_GE(now.hits, last.hits);
    EXPECT_GE(now.misses, last.misses);
    EXPECT_GE(now.evictions, last.evictions);
    EXPECT_EQ(pool.CheckAccounting(), "");
    last = now;
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(pool.CheckAccounting(), "");
}

// ---------------------------------------------------------------------------
// Concurrent samplers on one shared ACE tree
// ---------------------------------------------------------------------------

class SharedTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    relation::SaleGenOptions gen;
    gen.num_records = 2000;
    gen.seed = 7;
    ASSERT_TRUE(relation::GenerateSaleRelation(env_.get(), "sale", gen).ok());
    core::AceBuildOptions build;
    build.page_size = 4096;
    build.key_dims = 1;
    build.seed = 99;
    // 2000 records sort in memory; skip the default 64 MB budget, which
    // TSan instruments expensively on every fixture SetUp.
    build.sort.memory_budget_bytes = 1 << 20;
    layout_ = SaleRecord::Layout1D();
    ASSERT_TRUE(core::BuildAceTree(env_.get(), "sale", "sale.ace", layout_,
                                   build)
                    .ok());
    tree_ = ValueOrDie(core::AceTree::Open(env_.get(), "sale.ace", layout_));
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  std::unique_ptr<core::AceTree> tree_;
};

TEST_F(SharedTreeTest, ManySamplersOneTree) {
  constexpr size_t kThreads = 8;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Overlapping but distinct ranges; each sampler has its own derived
      // RNG stream and shares only the read-only tree.
      double lo = 10000.0 + 5000.0 * static_cast<double>(t);
      auto q = sampling::RangeQuery::OneDim(lo, lo + 40000.0);
      core::AceSampler sampler(tree_.get(), q,
                               /*seed=*/1000 + t);
      ids[t] = DrainRowIds(&sampler);
      EXPECT_TRUE(sampler.done());
    });
  }
  for (auto& w : workers) w.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(AllDistinct(ids[t])) << "thread " << t;
    EXPECT_FALSE(ids[t].empty()) << "thread " << t;
  }
  // The tree must come out of the stampede structurally intact.
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Executor concurrency: N MSVQL scripts on plain threads, one executor
// ---------------------------------------------------------------------------

TEST(ExecutorConcurrencyTest, ConcurrentReadScripts) {
  auto env = io::NewMemEnv();
  auto exec = ValueOrDie(query::Executor::Open(env.get()));
  auto setup = exec->Run(
      "GENERATE TABLE sale ROWS 3000 SEED 7; "
      "CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();

  std::vector<std::string> scripts;
  for (size_t t = 0; t < 8; ++t) {
    double lo = 2000.0 * static_cast<double>(t);
    scripts.push_back("ESTIMATE AVG(amount) FROM v WHERE day BETWEEN " +
                      std::to_string(lo) + " AND " +
                      std::to_string(lo + 40000.0) + " SAMPLES 150;");
    scripts.push_back("SAMPLE FROM v WHERE day BETWEEN " +
                      std::to_string(lo) + " AND " +
                      std::to_string(lo + 30000.0) + " LIMIT 30;");
  }
  auto results = msv::testing::RunScriptsOnThreads(exec.get(), scripts, 8);
  ASSERT_EQ(results.size(), scripts.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok())
        << "script " << i << ": " << results[i].status().ToString();
  }
}

TEST(ExecutorConcurrencyTest, WritersSerializeAgainstReaders) {
  auto env = io::NewMemEnv();
  auto exec = ValueOrDie(query::Executor::Open(env.get()));
  auto setup = exec->Run(
      "GENERATE TABLE sale ROWS 2000 SEED 7; "
      "CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();

  // Readers on v race against a writer creating a second view over the
  // same table; the executor's statement lock must serialize the write
  // without wedging the readers.
  std::vector<std::string> scripts;
  for (int t = 0; t < 4; ++t) {
    scripts.push_back(
        "ESTIMATE AVG(amount) FROM v WHERE day BETWEEN 10000 AND 60000 "
        "SAMPLES 100;");
  }
  scripts.push_back(
      "CREATE MATERIALIZED SAMPLE VIEW v2 AS SELECT * FROM sale "
      "INDEX ON day;");
  scripts.push_back(
      "SAMPLE FROM v WHERE day BETWEEN 0 AND 90000 LIMIT 40;");
  auto results = msv::testing::RunScriptsOnThreads(exec.get(), scripts, 4);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok())
        << "script " << i << ": " << results[i].status().ToString();
  }
  // The view created concurrently must be queryable afterwards.
  auto after = exec->Run(
      "SAMPLE FROM v2 WHERE day BETWEEN 0 AND 90000 LIMIT 10;");
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

// ---------------------------------------------------------------------------
// Metrics registry: counters are monotone totals
// ---------------------------------------------------------------------------

TEST(ObsConcurrencyTest, TotalsStayMonotoneUnderConcurrentWriters) {
  obs::MetricRegistry registry;
  constexpr size_t kWriters = 4;
  std::atomic<bool> stop{false};
  std::vector<uint64_t> added(kWriters, 0);
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      obs::Counter* c =
          registry.GetCounter("test.counter" + std::to_string(t % 2));
      while (!stop.load(std::memory_order_relaxed)) {
        c->Add(1);
        ++added[t];
      }
    });
  }
  // Snapshots race against relaxed Adds. Each counter's total never
  // steps backwards between snapshots, so the difference of any two is
  // a well-defined window.
  std::map<std::string, uint64_t> last_total;
  for (int i = 0; i < 300; ++i) {
    const obs::Json snap = registry.Snapshot();
    for (const auto& [name, entry] : snap.Find("counters")->members()) {
      const auto total =
          static_cast<uint64_t>(entry.Find("total")->AsNumber());
      EXPECT_GE(total, last_total[name]) << name;
      last_total[name] = total;
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  // Once the writers are quiesced, every increment is in the totals.
  EXPECT_EQ(registry.GetCounter("test.counter0")->Value(),
            added[0] + added[2]);
  EXPECT_EQ(registry.GetCounter("test.counter1")->Value(),
            added[1] + added[3]);
}

}  // namespace
}  // namespace msv
