// End-to-end I/O-cost accounting tests: the per-level disk time the
// AceSampler attributes through the tracer must reconcile exactly with
// the DiskDevice's own totals, traced buffer-pool deltas must match
// BufferPoolStats, and the EXPLAIN ANALYZE / MSV_TRACE surfaces must
// produce the report.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "btree/btree_sampler.h"
#include "btree/ranked_btree.h"
#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/buffer_pool.h"
#include "io/disk_model.h"
#include "io/env.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "test_util.h"

namespace msv {
namespace {

using msv::testing::DrainRowIds;
using msv::testing::MakeSale;
using msv::testing::TakeRowIds;
using msv::testing::ValueOrDie;

// The acceptance check for the instrumentation stack: drain a full
// range-sample query against an ACE tree behind a simulated disk and
// require that the sampler's per-level disk-µs attribution (largest-
// remainder apportionment of each leaf read across its sections) sums
// exactly — not approximately — to the device's busy_us delta.
TEST(TraceE2eTest, AceLevelDiskUsSumsToDiskStats) {
  auto base = io::NewMemEnv();
  MakeSale(base.get(), "sale", 50000, /*seed=*/42);
  core::AceBuildOptions opt;
  opt.page_size = 16 << 10;
  opt.key_dims = 1;
  opt.seed = 5;
  MSV_ASSERT_OK(core::BuildAceTree(base.get(), "sale", "sale.ace",
                                   storage::SaleRecord::Layout1D(), opt));

  auto device = std::make_shared<io::DiskDevice>();
  auto timed = io::NewSimEnv(base.get(), device);
  auto tree = ValueOrDie(core::AceTree::Open(
      timed.get(), "sale.ace", storage::SaleRecord::Layout1D()));

  auto q = sampling::RangeQuery::OneDim(20000, 60000);
  core::AceSampler sampler(tree.get(), q, /*seed=*/99);
  const uint64_t busy_before = device->stats().busy_us;
  DrainRowIds(&sampler);
  const uint64_t busy_delta = device->stats().busy_us - busy_before;

  uint64_t level_sum = 0;
  for (uint32_t level = 1; level <= tree->meta().height; ++level) {
    level_sum += sampler.level_disk_us(level);
  }
  EXPECT_GT(busy_delta, 0u);
  EXPECT_EQ(level_sum, busy_delta);
}

// The traced io.pool.misses delta on the query's root span must equal
// what BufferPoolStats counted for the pool doing the fetching.
TEST(TraceE2eTest, BTreeSamplerTracedPoolMissesMatchStats) {
  auto base = io::NewMemEnv();
  MakeSale(base.get(), "sale", 50000, /*seed=*/42);
  btree::BTreeOptions bopt;
  bopt.page_size = 16 << 10;
  MSV_ASSERT_OK(btree::BuildRankedBTree(base.get(), "sale", "sale.btree",
                                        storage::SaleRecord::Layout1D(),
                                        bopt));

  auto device = std::make_shared<io::DiskDevice>();
  auto timed = io::NewSimEnv(base.get(), device);
  auto q = sampling::RangeQuery::OneDim(20000, 60000);

  obs::Tracer tracer;  // global registry: the instrumented layers' home
  obs::ScopedTracer scoped(&tracer);
  {
    obs::Span span = tracer.StartSpan("btree.query");
    // The pool is created inside the span and is the only pool active,
    // so the span's global-counter delta is exactly this pool's traffic.
    io::BufferPool pool(bopt.page_size, /*capacity_pages=*/64);
    auto tree = ValueOrDie(btree::RankedBTree::Open(
        timed.get(), "sale.btree", storage::SaleRecord::Layout1D(), &pool,
        1));
    btree::BTreeSampler sampler(tree.get(), q, /*seed=*/7,
                                /*pull_records=*/4);
    TakeRowIds(&sampler, 500);
    span.End();

    const io::BufferPoolStats stats = pool.stats();
    ASSERT_GT(stats.misses, 0u);
    ASSERT_FALSE(tracer.spans().empty());
    const obs::SpanRecord& rec = tracer.spans().front();
    double traced_misses = -1.0;
    double traced_hits = -1.0;
    for (const auto& [name, value] : rec.metrics) {
      if (name == "io.pool.misses") traced_misses = value;
      if (name == "io.pool.hits") traced_hits = value;
    }
    EXPECT_EQ(traced_misses, static_cast<double>(stats.misses));
    if (stats.hits > 0) {
      EXPECT_EQ(traced_hits, static_cast<double>(stats.hits));
    }
  }
}

TEST(TraceE2eTest, ExplainAnalyzeReportsLevelSpans) {
  auto env = io::NewMemEnv();
  auto ex = ValueOrDie(query::Executor::Open(env.get()));
  std::string out = ValueOrDie(ex->Run(
      "GENERATE TABLE sale ROWS 20000 SEED 7;"
      "CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale INDEX ON "
      "day;"
      "EXPLAIN ANALYZE SAMPLE FROM v WHERE day BETWEEN 10000 AND 50000 "
      "LIMIT 200;"));
  EXPECT_NE(out.find("-- EXPLAIN ANALYZE --"), std::string::npos) << out;
  EXPECT_NE(out.find("query.sample"), std::string::npos) << out;
  EXPECT_NE(out.find("ace.level"), std::string::npos) << out;
  EXPECT_NE(out.find("ace.leaf_reads"), std::string::npos) << out;

  // Plain EXPLAIN executes nothing and prints the plan only.
  out = ValueOrDie(
      ex->Run("EXPLAIN SAMPLE FROM v WHERE day BETWEEN 10000 AND 50000;"));
  EXPECT_NE(out.find("EXPLAIN"), std::string::npos) << out;
  EXPECT_EQ(out.find("ace.level"), std::string::npos) << out;
}

TEST(TraceE2eTest, MsvTraceEnvHookWritesJson) {
  const std::string path = ::testing::TempDir() + "/msv_trace_e2e.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("MSV_TRACE", path.c_str(), 1), 0);

  auto env = io::NewMemEnv();
  auto ex = ValueOrDie(query::Executor::Open(env.get()));
  auto run = ex->Run(
      "GENERATE TABLE sale ROWS 5000 SEED 3;"
      "CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale INDEX ON "
      "day;"
      "SAMPLE FROM v WHERE day BETWEEN 10000 AND 50000 LIMIT 50;");
  unsetenv("MSV_TRACE");
  MSV_ASSERT_OK(run.status());

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "MSV_TRACE file was not created";
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  obs::Json parsed = ValueOrDie(obs::Json::Parse(line));
  const obs::Json* spans = parsed.Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_GT(spans->size(), 0u);
  bool found_query_span = false;
  for (const obs::Json& span : spans->items()) {
    const obs::Json* name = span.Find("name");
    if (name && name->AsString().rfind("query.", 0) == 0) {
      found_query_span = true;
    }
  }
  EXPECT_TRUE(found_query_span);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace msv
