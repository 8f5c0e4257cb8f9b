// Telemetry-overhead benchmark: what does always-on observability cost
// the statement hot path?
//
// Drives one Executor over an in-memory SALE view with a fixed batch of
// ESTIMATE statements under three configurations:
//
//   base      no poller, slow-query log disarmed — the default
//             serving configuration (every statement is still timed
//             into query.statement_us; no slow-query record is built).
//   poller    a MetricsPoller appending one JSON line per --interval_ms
//             to an export file in a scratch directory while the same
//             batch runs — what `msv_serve --metrics-file` runs.
//   slowlog   slow-query log armed with a huge threshold, so every
//             statement pays the armed threshold check but the ring is
//             never written.
//
// Configurations alternate across --reps repetitions and the per-config
// minimum is reported, which suppresses scheduler noise; overhead
// percentages are computed from those minima. Writes
// bench_results/BENCH_obs_overhead.json with poller_overhead_pct and
// slowlog_overhead_pct so CI can track the "telemetry is free" claim
// (target: poller overhead under 1%).
//
// --prom_out=<path> additionally renders the last line of the poller's
// export file as Prometheus text exposition — what `msv_top FILE --prom`
// gives a scraper — validates it with the tests' exposition parser
// (tests/prometheus_text.h) and writes it, giving CI a scrape-ready
// artifact exercised end-to-end.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "io/env.h"
#include "obs/log.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "prometheus_text.h"
#include "query/executor.h"
#include "query/parser.h"
#include "util/logging.h"

namespace msv::bench {
namespace {

double WallMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Runs the fixed statement batch once; returns wall ms.
double RunBatch(query::Executor* exec,
                const std::vector<query::Statement>& batch) {
  auto start = std::chrono::steady_clock::now();
  for (const query::Statement& statement : batch) {
    auto result = exec->Execute(statement);
    MSV_CHECK_MSG(result.ok(), "bench statement failed");
  }
  return WallMsSince(start);
}

}  // namespace

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"rows", "50000"},
               {"statements", "400"},
               {"samples", "200"},
               {"interval_ms", "5"},
               {"reps", "5"},
               {"prom_out", ""},
               {"smoke", "0"}});
  const bool smoke = flags.GetInt("smoke") != 0;
  const uint64_t rows = smoke ? 20'000 : flags.GetInt("rows");
  const size_t statements = smoke ? 150 : flags.GetInt("statements");
  const uint64_t samples = flags.GetInt("samples");
  const uint64_t interval_ms = flags.GetInt("interval_ms");
  const size_t reps = smoke ? 3 : flags.GetInt("reps");

  auto env = io::NewMemEnv();
  auto exec_or = query::Executor::Open(env.get());
  MSV_CHECK(exec_or.ok());
  auto exec = std::move(exec_or).value();
  auto setup = exec->Run(
      "GENERATE TABLE sale ROWS " + std::to_string(rows) +
      " SEED 7; CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  MSV_CHECK_MSG(setup.ok(), "bench setup failed");

  // Pre-parse the batch once so parsing cost stays out of every config.
  std::vector<query::Statement> batch;
  for (size_t i = 0; i < statements; ++i) {
    double lo = static_cast<double>((i * 977) % 60000);
    auto parsed = query::Parse(
        "ESTIMATE AVG(amount) FROM v WHERE day BETWEEN " +
        std::to_string(lo) + " AND " + std::to_string(lo + 30000.0) +
        " SAMPLES " + std::to_string(samples) + ";");
    MSV_CHECK(parsed.ok());
    MSV_CHECK(parsed.value().size() == 1);
    batch.push_back(std::move(parsed.value()[0]));
  }

  // The poller's export file lives in a private scratch directory that
  // is removed at exit.
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("msv_obs_overhead." + std::to_string(::getpid()));
  std::filesystem::create_directories(scratch);
  const std::string export_path = (scratch / "metrics.jsonl").string();

  obs::SlowQueryLog& slow = obs::SlowQueryLog::Global();
  slow.set_threshold_us(0);  // start from the disarmed default

  // Warm the pool/view caches so the first measured pass is not special.
  RunBatch(exec.get(), batch);

  double base_ms = 1e300, poller_ms = 1e300, slowlog_ms = 1e300;
  uint64_t polls = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    // base: no poller, slow log disarmed.
    slow.set_threshold_us(0);
    base_ms = std::min(base_ms, RunBatch(exec.get(), batch));

    // poller: snapshot + export line at every tick while the batch runs.
    {
      obs::MetricsPollerOptions popt;
      popt.interval_ms = interval_ms;
      popt.export_path = export_path;
      obs::MetricsPoller poller(popt);
      poller_ms = std::min(poller_ms, RunBatch(exec.get(), batch));
      polls += poller.polls();
    }

    // slowlog: capture armed, threshold too high to ever fire.
    slow.set_threshold_us(1ull << 62);
    slowlog_ms = std::min(slowlog_ms, RunBatch(exec.get(), batch));
    slow.set_threshold_us(0);
  }

  // The export file's last line, read before the scratch dir goes.
  const std::string prom_out = flags.GetString("prom_out");
  std::string last_line;
  if (!prom_out.empty()) {
    std::ifstream in(export_path);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) last_line = line;
    }
  }
  std::filesystem::remove_all(scratch);

  const double poller_overhead_pct = (poller_ms - base_ms) / base_ms * 100.0;
  const double slowlog_overhead_pct = (slowlog_ms - base_ms) / base_ms * 100.0;
  std::printf(
      "obs_overhead: %zu statements x %zu reps (min wall ms)\n"
      "  base     %8.2f ms\n"
      "  poller   %8.2f ms  (%+.2f%%, %llu polls @ %llu ms)\n"
      "  slowlog  %8.2f ms  (%+.2f%%)\n",
      statements, reps, base_ms, poller_ms, poller_overhead_pct,
      static_cast<unsigned long long>(polls),
      static_cast<unsigned long long>(interval_ms), slowlog_ms,
      slowlog_overhead_pct);

  // Optional scrape-ready exposition of the last export line, validated
  // before it is written.
  if (!prom_out.empty()) {
    auto point = obs::Json::Parse(last_line);
    MSV_CHECK_MSG(point.ok(), "last export line does not parse");
    const obs::Json* metrics = point.value().Find("metrics");
    MSV_CHECK_MSG(metrics != nullptr, "export line has no metrics");
    std::string text = obs::RenderPrometheus(*metrics);
    Status valid = obs::ValidatePrometheusText(text);
    MSV_CHECK_MSG(valid.ok(), "rendered exposition failed validation");
    std::ofstream out(prom_out);
    out << text;
    MSV_CHECK_MSG(out.good(), "cannot write --prom_out file");
    std::printf("  wrote validated Prometheus dump to %s (%zu bytes)\n",
                prom_out.c_str(), text.size());
  }

  obs::Json numbers = obs::Json::Object();
  numbers["rows"] = obs::Json(rows);
  numbers["statements"] = obs::Json(static_cast<uint64_t>(statements));
  numbers["samples_per_statement"] = obs::Json(samples);
  numbers["reps"] = obs::Json(static_cast<uint64_t>(reps));
  numbers["interval_ms"] = obs::Json(interval_ms);
  numbers["smoke"] = obs::Json(smoke);
  numbers["base_wall_ms"] = obs::Json(base_ms);
  numbers["poller_wall_ms"] = obs::Json(poller_ms);
  numbers["slowlog_wall_ms"] = obs::Json(slowlog_ms);
  numbers["poller_overhead_pct"] = obs::Json(poller_overhead_pct);
  numbers["slowlog_overhead_pct"] = obs::Json(slowlog_overhead_pct);
  numbers["poller_polls"] = obs::Json(polls);
  WriteBenchJson("obs_overhead", numbers);
  return 0;
}

}  // namespace msv::bench

int main(int argc, char** argv) { return msv::bench::Run(argc, argv); }
