// Tests for the telemetry half of the obs stack: the MetricsPoller
// export thread (observed through the JSON-lines file msv_top tails;
// the CI tsan job runs these), and the Prometheus text exposition
// rendered from an export line (golden output, parse-back round trip,
// semantic validation with the parser in tests/prometheus_text.h).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "prometheus_text.h"
#include "test_util.h"

namespace msv::obs {
namespace {

using msv::testing::ValueOrDie;

/// A fresh export path under the test temp dir.
std::string FreshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Every line of an export file, each parsed as one JSON object.
std::vector<Json> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<Json> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(ValueOrDie(Json::Parse(line)));
  return lines;
}

double CounterTotal(const Json& line, const std::string& name) {
  const Json* entry =
      line.Find("metrics")->Find("counters")->Find(name);
  return entry != nullptr ? entry->Find("total")->AsNumber() : 0.0;
}

/// The exposition a scraper of `msv_top --prom` sees for `reg` now: its
/// snapshot, written as an export line, parsed back and rendered.
std::string RenderExportLine(const MetricRegistry& reg) {
  const std::string line = ExportPointJson(0, reg.Snapshot()).Dump();
  return RenderPrometheus(*ValueOrDie(Json::Parse(line)).Find("metrics"));
}

/// Spins until the poller has appended `n` lines (5 s cap).
void WaitForPolls(const MetricsPoller& poller, uint64_t n) {
  for (int i = 0; i < 5000 && poller.polls() < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(poller.polls(), n);
}

/// Checks the invariants every export file keeps: one msv_top-shaped
/// line per poll, timestamps and counter totals that never go back.
void ExpectWellFormed(const std::vector<Json>& lines,
                      const std::string& counter) {
  for (size_t i = 0; i < lines.size(); ++i) {
    ASSERT_NE(lines[i].Find("ts_us"), nullptr);
    ASSERT_NE(lines[i].Find("metrics"), nullptr);
    ASSERT_NE(lines[i].Find("slow_queries"), nullptr);
    if (i == 0) continue;
    EXPECT_GE(lines[i].Find("ts_us")->AsNumber(),
              lines[i - 1].Find("ts_us")->AsNumber());
    EXPECT_GE(CounterTotal(lines[i], counter),
              CounterTotal(lines[i - 1], counter))
        << "line " << i;
  }
}

// ---------------------------------------------------------------------------
// MetricsPoller: a scoped export thread
// ---------------------------------------------------------------------------

TEST(MetricsPollerTest, StartPollsImmediatelyAndStopJoins) {
  const std::string path = FreshPath("msv_poller_start.jsonl");
  MetricRegistry reg;
  reg.GetCounter("c")->Add(7);
  MetricsPollerOptions options;
  options.interval_ms = 3600 * 1000;  // no timer ticks during the test
  options.registry = &reg;
  options.export_path = path;
  uint64_t polls = 0;
  {
    MetricsPoller poller(options);
    // Construction starts the thread, which polls before its first wait.
    WaitForPolls(poller, 1);
    polls = poller.polls();
  }  // the destructor signals and joins; no tick was due, so no new line
  EXPECT_EQ(polls, 1u);
  std::vector<Json> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), polls);
  EXPECT_GT(lines[0].Find("ts_us")->AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(CounterTotal(lines[0], "c"), 7.0);
  std::remove(path.c_str());
}

TEST(MetricsPollerTest, TicksAccumulateAtShortInterval) {
  const std::string path = FreshPath("msv_poller_ticks.jsonl");
  MetricRegistry reg;
  Counter* c = reg.GetCounter("ticks");
  MetricsPollerOptions options;
  options.interval_ms = 1;
  options.registry = &reg;
  options.export_path = path;
  uint64_t polls = 0;
  {
    MetricsPoller poller(options);
    for (uint64_t n = 1; n <= 5; ++n) {
      c->Add(n);
      // The poller does not poll at shutdown, so wait for a poll that
      // starts after the Add: the next one may have read the counter
      // before it.
      WaitForPolls(poller, poller.polls() + 2);
    }
    polls = poller.polls();
  }
  // Lines written after the last read of polls() land before the join.
  std::vector<Json> lines = ReadLines(path);
  EXPECT_GE(lines.size(), polls);
  EXPECT_GE(lines.size(), 5u);
  ExpectWellFormed(lines, "ticks");
  EXPECT_DOUBLE_EQ(CounterTotal(lines.back(), "ticks"), 15.0);
  std::remove(path.c_str());
}

TEST(MetricsPollerTest, RestartAfterStopKeepsAccumulating) {
  // A restarted poller (as after an msv_serve restart) appends to the
  // same file; readers keep every earlier line.
  const std::string path = FreshPath("msv_poller_restart.jsonl");
  MetricRegistry reg;
  Counter* c = reg.GetCounter("c");
  MetricsPollerOptions options;
  options.interval_ms = 3600 * 1000;
  options.registry = &reg;
  options.export_path = path;
  uint64_t polls = 0;
  c->Add(3);
  {
    MetricsPoller poller(options);
    WaitForPolls(poller, 1);
    polls += poller.polls();
  }
  c->Add(4);
  {
    MetricsPoller poller(options);
    WaitForPolls(poller, 1);
    polls += poller.polls();
  }
  std::vector<Json> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), polls);
  ASSERT_EQ(lines.size(), 2u);
  ExpectWellFormed(lines, "c");
  EXPECT_DOUBLE_EQ(CounterTotal(lines[0], "c"), 3.0);
  EXPECT_DOUBLE_EQ(CounterTotal(lines[1], "c"), 7.0);
  std::remove(path.c_str());
}

TEST(MetricsPollerTest, ConcurrentStartStopAndReadersAreSafe) {
  // The TSan target: pollers started and stopped from several threads
  // while a writer bumps the registry and a reader snapshots it.
  MetricRegistry reg;
  Counter* c = reg.GetCounter("churn");
  constexpr int kThreads = 2;
  constexpr int kRounds = 20;
  std::vector<std::string> paths;
  for (int t = 0; t < kThreads; ++t) {
    paths.push_back(
        FreshPath("msv_poller_churn" + std::to_string(t) + ".jsonl"));
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MetricsPollerOptions options;
      options.interval_ms = 1;
      options.registry = &reg;
      options.export_path = paths[t];
      for (int i = 0; i < kRounds; ++i) {
        MetricsPoller poller(options);
      }
    });
  }
  std::thread writer([c, &done] {
    while (!done.load()) c->Add();
  });
  std::thread reader([&reg, &done] {
    while (!done.load()) reg.Snapshot();
  });
  for (auto& th : threads) th.join();
  done.store(true);
  writer.join();
  reader.join();
  for (int t = 0; t < kThreads; ++t) {
    std::vector<Json> lines = ReadLines(paths[t]);
    // Every poller polls once at start, whenever it is stopped.
    EXPECT_GE(lines.size(), static_cast<size_t>(kRounds));
    ExpectWellFormed(lines, "churn");
    std::remove(paths[t].c_str());
  }
}

TEST(MetricsPollerTest, DestructorStopsARunningPoller) {
  const std::string path = FreshPath("msv_poller_dtor.jsonl");
  MetricRegistry reg;
  MetricsPollerOptions options;
  options.interval_ms = 1;
  options.registry = &reg;
  options.export_path = path;
  { MetricsPoller poller(options); }  // must not leak the thread or deadlock
  // Even a poller destroyed at once has written its first line.
  EXPECT_GE(ReadLines(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(MetricsPollerTest, UnopenableExportFileStartsNoThread) {
  MetricRegistry reg;
  MetricsPollerOptions options;
  options.interval_ms = 1;
  options.registry = &reg;
  options.export_path = ::testing::TempDir() + "no/such/dir/metrics.jsonl";
  MetricsPoller poller(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(poller.polls(), 0u);
}

// ---------------------------------------------------------------------------
// JSON-lines export (the msv_top transport)
// ---------------------------------------------------------------------------

TEST(MetricsPollerTest, ExportFileParsesBackPointByPoint) {
  const std::string path = FreshPath("msv_poller_export.jsonl");
  MetricRegistry reg;
  reg.GetCounter("io.disk.reads")->Add(42);
  reg.GetGauge("io.pool.resident_pages")->Set(12);
  reg.GetHistogram("query.statement_us")->Record(640);
  MetricsPollerOptions options;
  options.interval_ms = 3600 * 1000;
  options.registry = &reg;
  options.export_path = path;
  {
    MetricsPoller poller(options);
    WaitForPolls(poller, 1);
  }

  std::vector<Json> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  ExpectWellFormed(lines, "io.disk.reads");
  const Json* metrics = lines[0].Find("metrics");
  EXPECT_DOUBLE_EQ(CounterTotal(lines[0], "io.disk.reads"), 42.0);
  EXPECT_DOUBLE_EQ(
      metrics->Find("gauges")->Find("io.pool.resident_pages")->AsNumber(),
      12.0);
  const Json* statement =
      metrics->Find("histograms")->Find("query.statement_us");
  ASSERT_NE(statement, nullptr);
  EXPECT_DOUBLE_EQ(statement->Find("count")->AsNumber(), 1.0);
  std::remove(path.c_str());
}

TEST(ExportPointJsonTest, SchemaMatchesWhatMsvTopParses) {
  MetricRegistry reg;
  reg.GetCounter("io.disk.reads")->Add(99);
  Json j = ExportPointJson(1'234'567, reg.Snapshot());
  EXPECT_DOUBLE_EQ(j.Find("ts_us")->AsNumber(), 1'234'567.0);
  ASSERT_NE(j.Find("metrics"), nullptr);
  EXPECT_DOUBLE_EQ(CounterTotal(j, "io.disk.reads"), 99.0);
  ASSERT_NE(j.Find("slow_queries"), nullptr);
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(PrometheusName("io.disk.reads"), "msv_io_disk_reads");
  EXPECT_EQ(PrometheusName("query.statement_us"), "msv_query_statement_us");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "msv_weird_name_with_spaces");
  // Colons are legal in exposition names but reserved by convention for
  // recording rules, so the sanitizer folds them too.
  EXPECT_EQ(PrometheusName("colons:folded"), "msv_colons_folded");
}

TEST(PrometheusTest, GoldenDumpForSmallRegistry) {
  MetricRegistry reg;
  reg.GetCounter("io.disk.reads")->Add(17);
  reg.GetGauge("io.pool.resident_pages")->Set(12.5);
  EXPECT_EQ(RenderExportLine(reg),
            "# TYPE msv_io_disk_reads_total counter\n"
            "msv_io_disk_reads_total 17\n"
            "# TYPE msv_io_pool_resident_pages gauge\n"
            "msv_io_pool_resident_pages 12.5\n");
}

TEST(PrometheusTest, LabeledSeriesSplitIntoLabels) {
  MetricRegistry reg;
  reg.GetCounter(MetricRegistry::Labeled("io.disk.reads", {{"dev", "0"}}))
      ->Add(3);
  std::string text = RenderExportLine(reg);
  EXPECT_NE(text.find("msv_io_disk_reads_total{dev=\"0\"} 3"),
            std::string::npos);
  auto families = ValueOrDie(ParsePrometheusText(text));
  ASSERT_EQ(families.size(), 1u);
  ASSERT_EQ(families[0].samples.size(), 1u);
  ASSERT_EQ(families[0].samples[0].labels.size(), 1u);
  EXPECT_EQ(families[0].samples[0].labels[0].first, "dev");
  EXPECT_EQ(families[0].samples[0].labels[0].second, "0");
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndValid) {
  MetricRegistry reg;
  LogHistogram* h = reg.GetHistogram("query.statement_us");
  for (uint64_t v : {10, 10, 100, 1000, 5000}) h->Record(v);
  // One overflow sample past the 2^40 grid top.
  h->Record(1ull << 41);
  std::string text = RenderExportLine(reg);

  ASSERT_TRUE(ValidatePrometheusText(text).ok()) << text;
  auto families = ValueOrDie(ParsePrometheusText(text));
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].type, "histogram");
  EXPECT_EQ(families[0].name, "msv_query_statement_us");

  double last_bucket = -1;
  double inf_bucket = -1, count = -1, sum = -1;
  for (const PromSample& s : families[0].samples) {
    if (s.name == "msv_query_statement_us_bucket") {
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels[0].first, "le");
      EXPECT_GE(s.value, last_bucket);  // cumulative
      last_bucket = s.value;
      if (s.labels[0].second == "+Inf") inf_bucket = s.value;
    } else if (s.name == "msv_query_statement_us_count") {
      count = s.value;
    } else if (s.name == "msv_query_statement_us_sum") {
      sum = s.value;
    }
  }
  EXPECT_DOUBLE_EQ(inf_bucket, 6.0);  // all samples, overflow included
  EXPECT_DOUBLE_EQ(count, 6.0);
  EXPECT_GT(sum, 0.0);
}

TEST(PrometheusTest, FullRegistryRoundTripsAndValidates) {
  MetricRegistry reg;
  reg.GetCounter("io.disk.reads")->Add(100);
  reg.GetCounter("io.disk.read_bytes")->Add(1 << 20);
  reg.GetCounter(MetricRegistry::Labeled("query.statements", {{"kind", "estimate"}}))
      ->Add(7);
  reg.GetGauge("io.pool.capacity_pages")->Set(64);
  reg.GetGauge("io.disk.clock_ms")->Set(1234.5);
  LogHistogram* h = reg.GetHistogram("io.disk.access_us");
  for (uint64_t v = 1; v <= 300; ++v) h->Record(v * 7);

  std::string text = RenderExportLine(reg);
  ASSERT_TRUE(ValidatePrometheusText(text).ok()) << text;

  auto families = ValueOrDie(ParsePrometheusText(text));
  size_t counters = 0, gauges = 0, histograms = 0;
  for (const PromFamily& f : families) {
    if (f.type == "counter") ++counters;
    if (f.type == "gauge") ++gauges;
    if (f.type == "histogram") ++histograms;
  }
  EXPECT_EQ(counters, 3u);
  EXPECT_EQ(gauges, 2u);
  EXPECT_EQ(histograms, 1u);
}

TEST(PrometheusTest, OneTypeLinePerFamily) {
  MetricRegistry reg;
  // Two labelled series of one histogram family.
  reg.GetHistogram(MetricRegistry::Labeled("query.phase_us",
                                           {{"phase", "parse"}}))
      ->Record(12);
  reg.GetHistogram(MetricRegistry::Labeled("query.phase_us",
                                           {{"phase", "plan"}}))
      ->Record(340);
  // Sorted by name these are a.b, a.b.c, a.b{k=v}: the a.b family's two
  // series are not adjacent.
  reg.GetCounter("a.b")->Add(1);
  reg.GetCounter("a.b.c")->Add(2);
  reg.GetCounter(MetricRegistry::Labeled("a.b", {{"k", "v"}}))->Add(3);
  const std::string text = RenderExportLine(reg);

  ASSERT_TRUE(ValidatePrometheusText(text).ok()) << text;
  auto count = [&text](const std::string& line) {
    size_t n = 0;
    for (size_t pos = text.find(line); pos != std::string::npos;
         pos = text.find(line, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("# TYPE msv_query_phase_us histogram\n"), 1u) << text;
  EXPECT_EQ(count("# TYPE msv_a_b_total counter\n"), 1u) << text;
  EXPECT_EQ(count("# TYPE msv_a_b_c_total counter\n"), 1u) << text;
  EXPECT_EQ(count("# TYPE "), 3u) << text;
  EXPECT_EQ(count("msv_a_b_total{k=\"v\"} 3\n"), 1u) << text;
  EXPECT_EQ(count("msv_query_phase_us_count{phase=\"plan\"} 1\n"), 1u)
      << text;
}

TEST(PrometheusTest, ExportLineRendersLikeTheRegistry) {
  const std::string path = FreshPath("msv_poller_prom.jsonl");
  MetricRegistry reg;
  reg.GetCounter(MetricRegistry::Labeled("serve.errors", {{"kind", "parse"}}))
      ->Add(4);
  reg.GetCounter(MetricRegistry::Labeled("serve.errors", {{"kind", "exec"}}))
      ->Add(1);
  reg.GetGauge("serve.queue_depth")->Set(2.25);
  reg.GetGauge(MetricRegistry::Labeled("io.pool.fill", {{"pool", "0"}}))
      ->Set(0.5);
  LogHistogram* h = reg.GetHistogram("query.statement_us");
  for (uint64_t v : {3, 70, 70, 9000}) h->Record(v);
  h->Record(1ull << 41);  // past the 2^40 grid top: overflow
  MetricsPollerOptions options;
  options.interval_ms = 3600 * 1000;
  options.registry = &reg;
  options.export_path = path;
  {
    MetricsPoller poller(options);
    WaitForPolls(poller, 1);
  }
  std::ifstream in(path);
  std::string export_line;
  ASSERT_TRUE(std::getline(in, export_line));
  const Json point = ValueOrDie(Json::Parse(export_line));

  const std::string text = RenderPrometheus(*point.Find("metrics"));
  EXPECT_EQ(text, RenderPrometheus(reg.Snapshot()));
  ASSERT_TRUE(ValidatePrometheusText(text).ok()) << text;
  EXPECT_NE(text.find("msv_query_statement_us_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos)
      << text;
  std::remove(path.c_str());
}

TEST(PrometheusTest, ValidatorRejectsMalformedDocuments) {
  // Sample without a TYPE declaration.
  EXPECT_FALSE(ParsePrometheusText("msv_x_total 1\n").ok());
  // Counter family not named *_total.
  EXPECT_FALSE(ValidatePrometheusText("# TYPE msv_x counter\nmsv_x 1\n").ok());
  // Negative counter value.
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE msv_x_total counter\nmsv_x_total -1\n")
          .ok());
  // Histogram with non-cumulative buckets.
  EXPECT_FALSE(ValidatePrometheusText(
                   "# TYPE msv_h histogram\n"
                   "msv_h_bucket{le=\"1\"} 5\n"
                   "msv_h_bucket{le=\"2\"} 3\n"
                   "msv_h_bucket{le=\"+Inf\"} 5\n"
                   "msv_h_sum 9\n"
                   "msv_h_count 5\n")
                   .ok());
  // Histogram missing the +Inf bucket.
  EXPECT_FALSE(ValidatePrometheusText(
                   "# TYPE msv_h histogram\n"
                   "msv_h_bucket{le=\"1\"} 5\n"
                   "msv_h_sum 9\n"
                   "msv_h_count 5\n")
                   .ok());
  // Bad metric name.
  EXPECT_FALSE(ParsePrometheusText("# TYPE 9bad counter\n9bad 1\n").ok());
  // Garbage line.
  EXPECT_FALSE(ParsePrometheusText("!!!\n").ok());
}

TEST(PrometheusTest, ParserAcceptsEscapesTimestampsAndInf) {
  auto families = ValueOrDie(ParsePrometheusText(
      "# TYPE msv_g gauge\n"
      "msv_g{path=\"a\\\\b\\\"c\\nd\"} +Inf 1700000000000\n"));
  ASSERT_EQ(families.size(), 1u);
  ASSERT_EQ(families[0].samples.size(), 1u);
  const PromSample& s = families[0].samples[0];
  ASSERT_EQ(s.labels.size(), 1u);
  EXPECT_EQ(s.labels[0].second, "a\\b\"c\nd");
  EXPECT_TRUE(std::isinf(s.value));
}

}  // namespace
}  // namespace msv::obs
