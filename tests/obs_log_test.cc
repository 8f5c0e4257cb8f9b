// Tests for the structured logging stack: StructuredLogger (JSON sink
// shape, MSV_LOG sink routing, per-site rate limiting), the SlowQueryLog
// ring, and the executor integration that captures per-statement cost
// records end-to-end (the EXPLAIN ANALYZE acceptance path).
//
// The logger and slow-query log under test are process-wide singletons,
// so every test restores defaults (no JSON sink, fresh rate-limit
// windows, disarmed, ring cleared) on exit; tests that need isolation
// use private SlowQueryLog instances.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "io/env.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "test_util.h"
#include "util/logging.h"

namespace msv::obs {
namespace {

using msv::testing::ValueOrDie;

// Restores global logger/slow-log state no matter how a test exits.
class LoggingTestGuard {
 public:
  LoggingTestGuard() {
    InitLogging();
    StructuredLogger::Global().ResetSites();
  }
  ~LoggingTestGuard() {
    StructuredLogger& logger = StructuredLogger::Global();
    logger.CloseJsonSink();
    logger.ResetSites();
    SlowQueryLog::Global().set_threshold_us(0);
    SlowQueryLog::Global().Clear();
    SetLogLevel(LogLevel::kInfo);
  }
};

std::vector<Json> ReadJsonLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<Json> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(ValueOrDie(Json::Parse(line)));
  }
  return lines;
}

std::string TempPath(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");  // NOLINT(concurrency-mt-unsafe)
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem;
}

// ---------------------------------------------------------------------------
// StructuredLogger
// ---------------------------------------------------------------------------

TEST(StructuredLoggerTest, JsonSinkWritesStructuredRecords) {
  LoggingTestGuard guard;
  StructuredLogger& logger = StructuredLogger::Global();
  const std::string path = TempPath("msv_obs_log_sink_test.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(logger.OpenJsonSink(path).ok());
  EXPECT_TRUE(logger.json_sink_open());

  LogEvent(LogLevel::kWarn, "pool.cc", 42, "pool stall",
           {{"pages", 17}, {"session", "s1"}, {"hot", true}});
  logger.CloseJsonSink();
  EXPECT_FALSE(logger.json_sink_open());

  std::vector<Json> lines = ReadJsonLines(path);
  ASSERT_EQ(lines.size(), 1u);
  const Json& rec = lines[0];
  EXPECT_EQ(rec.Find("level")->AsString(), "warn");
  EXPECT_EQ(rec.Find("site")->AsString(), "pool.cc:42");
  EXPECT_EQ(rec.Find("msg")->AsString(), "pool stall");
  EXPECT_DOUBLE_EQ(rec.Find("pages")->AsNumber(), 17.0);
  EXPECT_EQ(rec.Find("session")->AsString(), "s1");
  EXPECT_TRUE(rec.Find("hot")->AsBool());
  EXPECT_GT(rec.Find("ts_us")->AsNumber(), 0.0);
  std::remove(path.c_str());
}

TEST(StructuredLoggerTest, MsvLogMacroRoutesThroughSink) {
  LoggingTestGuard guard;
  StructuredLogger& logger = StructuredLogger::Global();
  const std::string path = TempPath("msv_obs_log_macro_test.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(logger.OpenJsonSink(path).ok());

  MSV_LOG(Warn) << "macro message " << 123;
  logger.CloseJsonSink();

  std::vector<Json> lines = ReadJsonLines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].Find("msg")->AsString(), "macro message 123");
  EXPECT_EQ(lines[0].Find("level")->AsString(), "warn");
  // Site is this file:line — enough to prove the macro carried both.
  EXPECT_NE(lines[0].Find("site")->AsString().find("obs_log_test"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(StructuredLoggerTest, LevelThresholdFiltersLogEvent) {
  LoggingTestGuard guard;
  StructuredLogger& logger = StructuredLogger::Global();
  const std::string path = TempPath("msv_obs_log_level_test.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(logger.OpenJsonSink(path).ok());

  SetLogLevel(LogLevel::kError);
  LogEvent(LogLevel::kInfo, "f.cc", 1, "dropped", {});
  LogEvent(LogLevel::kError, "f.cc", 2, "kept", {});
  logger.CloseJsonSink();

  std::vector<Json> lines = ReadJsonLines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].Find("msg")->AsString(), "kept");
  std::remove(path.c_str());
}

TEST(StructuredLoggerTest, PerSiteRateLimitingSuppressesAndAccounts) {
  LoggingTestGuard guard;
  StructuredLogger& logger = StructuredLogger::Global();
  const std::string path = TempPath("msv_obs_log_rate_test.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(logger.OpenJsonSink(path).ok());

  // The flood fits in one window: kSiteLimit records per site per second.
  constexpr uint64_t kFlood = StructuredLogger::kSiteLimit + 50;
  const uint64_t emitted_before = logger.emitted();
  const uint64_t suppressed_before = logger.suppressed();
  for (uint64_t i = 0; i < kFlood; ++i) {
    LogEvent(LogLevel::kWarn, "flood.cc", 7, "flood", {});
  }
  // A different site is not affected by flood.cc's window.
  LogEvent(LogLevel::kWarn, "calm.cc", 1, "calm", {});
  logger.CloseJsonSink();

  EXPECT_EQ(logger.emitted() - emitted_before,
            StructuredLogger::kSiteLimit + 1);  // kSiteLimit flood + 1 calm
  EXPECT_EQ(logger.suppressed() - suppressed_before,
            kFlood - StructuredLogger::kSiteLimit);
  std::vector<Json> lines = ReadJsonLines(path);
  ASSERT_EQ(lines.size(), StructuredLogger::kSiteLimit + 1);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SlowQueryLog ring
// ---------------------------------------------------------------------------

SlowQueryRecord MakeRecord(uint64_t wall_us) {
  SlowQueryRecord rec;
  rec.ts_us = 1000 + wall_us;
  rec.wall_us = wall_us;
  rec.statement = "estimate";
  rec.session = "test";
  return rec;
}

TEST(SlowQueryLogTest, RingEvictsOldestAtCapacity) {
  LoggingTestGuard guard;
  SlowQueryLog log;
  constexpr uint64_t kRecords = SlowQueryLog::kCapacity + 2;
  for (uint64_t w = 1; w <= kRecords; ++w) log.Record(MakeRecord(w));
  EXPECT_EQ(log.size(), SlowQueryLog::kCapacity);
  EXPECT_EQ(log.total_recorded(), kRecords);
  std::vector<SlowQueryRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), SlowQueryLog::kCapacity);
  // Oldest-first: 1 and 2 were evicted.
  EXPECT_EQ(snap.front().wall_us, 3u);
  EXPECT_EQ(snap[1].wall_us, 4u);
  EXPECT_EQ(snap.back().wall_us, kRecords);
}

TEST(SlowQueryLogTest, ArmFromEnvParsesThreshold) {
  LoggingTestGuard guard;
  SlowQueryLog log;
  EXPECT_FALSE(log.armed());

  setenv("MSV_SLOW_QUERY_US", "2500", 1);
  log.ArmFromEnv();
  EXPECT_TRUE(log.armed());
  EXPECT_EQ(log.threshold_us(), 2500u);

  setenv("MSV_SLOW_QUERY_US", "0", 1);
  log.ArmFromEnv();
  EXPECT_FALSE(log.armed());

  unsetenv("MSV_SLOW_QUERY_US");
  log.set_threshold_us(10);
  log.ArmFromEnv();  // unset leaves the in-process threshold alone
  EXPECT_EQ(log.threshold_us(), 10u);
}

TEST(SlowQueryLogTest, ToJsonCarriesAllFields) {
  LoggingTestGuard guard;
  SlowQueryLog log;
  SlowQueryRecord rec = MakeRecord(4200);
  rec.disk_us = 3100;
  rec.leaves = 17;
  rec.samples = 500;
  rec.ci_half_width = 1.25;
  rec.ok = false;
  rec.error = "NotFound: no view";
  log.Record(rec);

  Json arr = log.ToJson();
  ASSERT_EQ(arr.size(), 1u);
  const Json& j = arr.at(0);
  EXPECT_DOUBLE_EQ(j.Find("wall_us")->AsNumber(), 4200.0);
  EXPECT_DOUBLE_EQ(j.Find("disk_us")->AsNumber(), 3100.0);
  EXPECT_DOUBLE_EQ(j.Find("leaves")->AsNumber(), 17.0);
  EXPECT_DOUBLE_EQ(j.Find("samples")->AsNumber(), 500.0);
  EXPECT_DOUBLE_EQ(j.Find("ci_half_width")->AsNumber(), 1.25);
  EXPECT_EQ(j.Find("statement")->AsString(), "estimate");
  EXPECT_FALSE(j.Find("ok")->AsBool());
  EXPECT_EQ(j.Find("error")->AsString(), "NotFound: no view");
  // The record round-trips through the JSON-lines transport msv_top tails.
  EXPECT_EQ(ValueOrDie(Json::Parse(arr.Dump())), arr);
}

// ---------------------------------------------------------------------------
// Executor integration: statements land in the global slow-query log
// ---------------------------------------------------------------------------

TEST(SlowQueryIntegrationTest, ExplainAnalyzeStatementIsCaptured) {
  LoggingTestGuard guard;
  SlowQueryLog& slow = SlowQueryLog::Global();
  slow.Clear();
  slow.set_threshold_us(1);  // everything measurable is "slow"
  SetThreadLabel("it-session");

  auto env = io::NewMemEnv();
  auto exec = ValueOrDie(query::Executor::Open(env.get()));
  ASSERT_TRUE(exec->Run("GENERATE TABLE sale ROWS 20000 SEED 7;"
                        " CREATE MATERIALIZED SAMPLE VIEW v AS SELECT *"
                        " FROM sale INDEX ON day;")
                  .ok());

  std::string out = ValueOrDie(
      exec->Run("EXPLAIN ANALYZE ESTIMATE AVG(amount) FROM v WHERE day"
                " BETWEEN 1000 AND 60000 SAMPLES 400;"));
  EXPECT_NE(out.find("EXPLAIN ANALYZE"), std::string::npos);

  // The recursion records the inner estimate AND the wrapping explain.
  std::vector<SlowQueryRecord> snap = slow.Snapshot();
  const SlowQueryRecord* estimate = nullptr;
  const SlowQueryRecord* explain = nullptr;
  for (const SlowQueryRecord& rec : snap) {
    if (rec.statement == "estimate") estimate = &rec;
    if (rec.statement == "explain") explain = &rec;
  }
  ASSERT_NE(estimate, nullptr);
  ASSERT_NE(explain, nullptr);

  EXPECT_TRUE(estimate->ok);
  EXPECT_GT(estimate->wall_us, 0u);
  EXPECT_GT(estimate->samples, 0u);         // ledger filled by ExecEstimate
  EXPECT_GT(estimate->ci_half_width, 0.0);  // CI reached the record
  EXPECT_EQ(estimate->session, "it-session");
  EXPECT_GT(estimate->ts_us, 0u);
  // The wrapping explain subsumes the inner statement's wall time.
  EXPECT_GE(explain->wall_us, estimate->wall_us);

  SetThreadLabel("");
}

TEST(SlowQueryIntegrationTest, SampleRecordsLeavesRead) {
  LoggingTestGuard guard;
  SlowQueryLog& slow = SlowQueryLog::Global();
  slow.Clear();
  slow.set_threshold_us(1);

  auto env = io::NewMemEnv();
  auto exec = ValueOrDie(query::Executor::Open(env.get()));
  ASSERT_TRUE(exec->Run("GENERATE TABLE sale ROWS 20000 SEED 7;"
                        " CREATE MATERIALIZED SAMPLE VIEW v AS SELECT *"
                        " FROM sale INDEX ON day;")
                  .ok());
  ASSERT_TRUE(
      exec->Run("SAMPLE FROM v WHERE day BETWEEN 1000 AND 60000 LIMIT 50;")
          .ok());

  std::vector<SlowQueryRecord> snap = slow.Snapshot();
  ASSERT_FALSE(snap.empty());
  const SlowQueryRecord& rec = snap.back();
  EXPECT_EQ(rec.statement, "sample");
  EXPECT_GT(rec.leaves, 0u);
  const Json j = rec.ToJson();
  const Json* leaves = j.Find("leaves");
  ASSERT_NE(leaves, nullptr);
  EXPECT_GT(leaves->AsNumber(), 0.0);
}

TEST(SlowQueryIntegrationTest, DisarmedExecutorRecordsNothing) {
  LoggingTestGuard guard;
  SlowQueryLog& slow = SlowQueryLog::Global();
  slow.Clear();
  slow.set_threshold_us(0);

  const uint64_t before = slow.total_recorded();
  auto env = io::NewMemEnv();
  auto exec = ValueOrDie(query::Executor::Open(env.get()));
  ASSERT_TRUE(exec->Run("GENERATE TABLE t ROWS 5000 SEED 3;").ok());
  EXPECT_EQ(slow.size(), 0u);
  EXPECT_EQ(slow.total_recorded(), before);
}

TEST(SlowQueryIntegrationTest, ThresholdAboveStatementCostFiltersIt) {
  LoggingTestGuard guard;
  SlowQueryLog& slow = SlowQueryLog::Global();
  slow.Clear();
  // An hour-long threshold: armed (capture runs) but nothing qualifies.
  slow.set_threshold_us(3'600'000'000ull);

  const uint64_t before = slow.total_recorded();
  auto env = io::NewMemEnv();
  auto exec = ValueOrDie(query::Executor::Open(env.get()));
  ASSERT_TRUE(exec->Run("GENERATE TABLE t ROWS 5000 SEED 3;").ok());
  EXPECT_EQ(slow.total_recorded(), before);
}

TEST(SlowQueryIntegrationTest, FailedStatementRecordsError) {
  LoggingTestGuard guard;
  SlowQueryLog& slow = SlowQueryLog::Global();
  slow.Clear();
  slow.set_threshold_us(1);

  auto env = io::NewMemEnv();
  auto exec = ValueOrDie(query::Executor::Open(env.get()));
  EXPECT_FALSE(exec->Run("ESTIMATE AVG(amount) FROM missing_view WHERE"
                         " day BETWEEN 0 AND 1 SAMPLES 10;")
                   .ok());
  std::vector<SlowQueryRecord> snap = slow.Snapshot();
  ASSERT_FALSE(snap.empty());
  const SlowQueryRecord& rec = snap.back();
  EXPECT_EQ(rec.statement, "estimate");
  EXPECT_FALSE(rec.ok);
  EXPECT_FALSE(rec.error.empty());
}

}  // namespace
}  // namespace msv::obs
