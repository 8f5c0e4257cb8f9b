// Golden Prometheus exposition for the serving metrics.
//
// Runs a fixed, deterministic request set against a live server — two
// successes, one MSVQL parse failure, one execution failure, one
// protocol-level garbage frame — then renders the global registry the
// way a scraper of `msv_top --prom` sees it (its snapshot written as an
// export line, parsed back, rendered) and pins the `msv_serve_*`
// families: the exact counter values, the TYPE declarations, and that
// the whole document still passes the strict exposition validator (so a
// real Prometheus server would ingest it).
//
// Timing-dependent series (bytes in/out, histogram sum, request
// latencies) are deliberately NOT pinned; their presence and shape are
// covered by the validator.

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "io/env.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "prometheus_text.h"
#include "query/executor.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "test_util.h"

namespace msv {
namespace {

using msv::testing::ValueOrDie;
using serve::Client;
using serve::EncodeFrame;
using serve::Server;
using serve::ServerOptions;

/// The global registry's exposition, rendered from a parsed export line.
std::string RenderGlobalExportLine() {
  const std::string line =
      obs::ExportPointJson(0, obs::MetricRegistry::Global().Snapshot())
          .Dump();
  return obs::RenderPrometheus(
      *ValueOrDie(obs::Json::Parse(line)).Find("metrics"));
}

/// Polls `predicate` until it holds or ~5 s elapse (the server's I/O
/// loop observes disconnects within one 100 ms poll turn).
template <typename Predicate>
bool EventuallyTrue(Predicate predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(ServePrometheusTest, GoldenExpositionForDeterministicRequestSet) {
  auto env = io::NewMemEnv();
  auto executor = ValueOrDie(query::Executor::Open(env.get()));
  ASSERT_TRUE(executor
                  ->Run("GENERATE TABLE sale ROWS 5000 SEED 7; CREATE "
                        "MATERIALIZED SAMPLE VIEW sv AS SELECT * FROM sale "
                        "INDEX ON day;")
                  .ok());
  ServerOptions options;
  options.port = 0;
  options.workers = 1;  // serialize execution for deterministic counts
  Server server(executor.get(), options);
  ASSERT_TRUE(server.Start().ok());

  {
    auto client = ValueOrDie(Client::Connect("127.0.0.1", server.port()));
    // Two successes.
    for (int i = 0; i < 2; ++i) {
      auto doc = client->Call(
          "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 1000 AND 90000 "
          "SAMPLES 64;");
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    }
    // One MSVQL parse failure.
    ASSERT_FALSE(client->Call("NOT A STATEMENT;").ok());
    // One execution failure.
    ASSERT_FALSE(
        client->Call("ESTIMATE AVG(amount) FROM no_such_view SAMPLES 8;")
            .ok());
    // One protocol failure: a complete frame that is not request JSON.
    const std::string garbage = EncodeFrame("{broken");
    ASSERT_TRUE(client->SendBytes(garbage.data(), garbage.size()).ok());
    auto protocol_error = ValueOrDie(client->Read());
    EXPECT_FALSE(protocol_error.Find("ok")->AsBool());
  }  // disconnect -> the server must register one dropped connection

  auto& registry = obs::MetricRegistry::Global();
  ASSERT_TRUE(EventuallyTrue([&] {
    return registry.GetCounter("serve.connections_dropped")->Value() >= 1;
  })) << "server never observed the client disconnect";

  const std::string text = RenderGlobalExportLine();

  // The full document must be ingestible exposition format.
  ASSERT_TRUE(obs::ValidatePrometheusText(text).ok()) << text;

  // Golden serve.* counter lines: 5 frames total, 2 succeeded, one
  // failure of each remaining kind, nothing shed by admission.
  for (const char* line : {
           "# TYPE msv_serve_requests_total counter",
           "msv_serve_requests_total 5",
           "msv_serve_responses_total 2",
           "msv_serve_errors_parse_total 1",
           "msv_serve_errors_exec_total 1",
           "msv_serve_errors_protocol_total 1",
           "msv_serve_rejected_overload_total 0",
           "msv_serve_partial_results_total 0",
           "msv_serve_connections_accepted_total 1",
           "msv_serve_connections_dropped_total 1",
           "# TYPE msv_serve_connections_active gauge",
           "msv_serve_connections_active 0",
           "# TYPE msv_serve_queue_depth gauge",
           "msv_serve_queue_depth 0",
           "# TYPE msv_serve_request_us histogram",
           "msv_serve_request_us_count 2",
       }) {
    EXPECT_NE(text.find(std::string(line) + "\n"), std::string::npos)
        << "missing exposition line: " << line;
  }

  // Byte counters exist and moved, but their values are traffic-shaped —
  // presence only.
  EXPECT_NE(text.find("msv_serve_bytes_in_total"), std::string::npos);
  EXPECT_NE(text.find("msv_serve_bytes_out_total"), std::string::npos);

  server.Stop();
}

/// The serve families parse back with the right types — guards against a
/// future rename silently detaching the dashboards.
TEST(ServePrometheusTest, ServeFamiliesParseBackWithExpectedTypes) {
  auto env = io::NewMemEnv();
  auto executor = ValueOrDie(query::Executor::Open(env.get()));
  ServerOptions options;
  options.port = 0;
  Server server(executor.get(), options);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();

  auto families =
      ValueOrDie(obs::ParsePrometheusText(RenderGlobalExportLine()));
  int counters = 0, gauges = 0, histograms = 0;
  for (const auto& family : families) {
    if (family.name.rfind("msv_serve_", 0) != 0) continue;
    if (family.type == "counter") ++counters;
    if (family.type == "gauge") ++gauges;
    if (family.type == "histogram") ++histograms;
  }
  EXPECT_EQ(counters, 11);
  EXPECT_EQ(gauges, 2);
  EXPECT_EQ(histograms, 1);
}

}  // namespace
}  // namespace msv
