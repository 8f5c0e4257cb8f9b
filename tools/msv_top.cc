// msv_top: a live terminal view of MSV serving telemetry, in the spirit
// of `top`. It tails the JSON-lines file a MetricsPoller exports
// (MetricsPollerOptions::export_path; `msv_serve --metrics-file`) and
// renders per-interval rates, latency quantiles and the most recent slow
// queries, refreshing in place.
//
// Usage:
//   msv_top <export-file>                live view (ANSI clear+redraw)
//   msv_top <export-file> --once         render the latest point and exit
//   msv_top <export-file> --interval=ms  refresh period (default 1000)
//   msv_top <export-file> --slow=N       slow-query rows shown (default 5)
//   msv_top <export-file> --prom         print the latest point as
//                                        Prometheus text exposition
//
// --prom output suits a node_exporter textfile collector: rewrite a
// *.prom file from it on a timer and a running `msv_serve
// --metrics-file` is scrapable with no HTTP code in the server.
//
// Rates are deltas between the last two exported points divided by their
// timestamp gap, so the view is exact regardless of the poller interval.
// The tool is read-only: it never touches the registry of the process
// being observed, only the exported file.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/prometheus.h"
#include "util/numeric.h"

namespace msv {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: msv_top <export-file> [--once | --prom]"
               " [--interval=ms] [--slow=N]\n"
               "       <export-file> is the JSON-lines file written by a\n"
               "       MetricsPoller with export_path set (see DESIGN.md\n"
               "       section 12).\n");
  return 2;
}

// One exported poller point, parsed.
struct Point {
  uint64_t ts_us = 0;
  obs::Json root;  // {"ts_us", "metrics", "slow_queries"}
};

// Reads the last `want` valid points of the export file. The file is
// append-only JSON lines; rereading it wholesale keeps the tool stateless
// across refreshes (and correct across truncation/rotation).
std::vector<Point> ReadLastPoints(const std::string& path, size_t want) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  std::vector<Point> points;
  for (size_t i = lines.size(); i-- > 0 && points.size() < want;) {
    auto parsed = obs::Json::Parse(lines[i]);
    if (!parsed.ok()) continue;  // torn final line mid-write: skip
    Point p;
    p.root = std::move(parsed.value());
    if (const obs::Json* ts = p.root.Find("ts_us")) {
      // A timestamp that is not an exact integer in [0, 2^53] is not a
      // line the exporter wrote.
      std::optional<uint64_t> v = ExactUint(ts->AsNumber());
      if (!v) continue;
      p.ts_us = *v;
    }
    points.push_back(std::move(p));
  }
  std::reverse(points.begin(), points.end());  // oldest first
  return points;
}

// Counter total by name, 0 when absent (family not registered yet).
double CounterTotal(const obs::Json& point, const std::string& name) {
  const obs::Json* metrics = point.Find("metrics");
  if (metrics == nullptr) return 0.0;
  const obs::Json* counters = metrics->Find("counters");
  if (counters == nullptr) return 0.0;
  const obs::Json* entry = counters->Find(name);
  if (entry == nullptr) return 0.0;
  const obs::Json* total = entry->Find("total");
  return total != nullptr ? total->AsNumber() : 0.0;
}

// True when the counter family has been registered at all — used to
// show the serving section only for processes that run a msv_serve
// front end.
bool HasCounter(const obs::Json& point, const std::string& name) {
  const obs::Json* metrics = point.Find("metrics");
  if (metrics == nullptr) return false;
  const obs::Json* counters = metrics->Find("counters");
  return counters != nullptr && counters->Find(name) != nullptr;
}

double GaugeValue(const obs::Json& point, const std::string& name) {
  const obs::Json* metrics = point.Find("metrics");
  if (metrics == nullptr) return 0.0;
  const obs::Json* gauges = metrics->Find("gauges");
  if (gauges == nullptr) return 0.0;
  const obs::Json* entry = gauges->Find(name);
  return entry != nullptr ? entry->AsNumber() : 0.0;
}

const obs::Json* HistogramEntry(const obs::Json& point,
                                const std::string& name) {
  const obs::Json* metrics = point.Find("metrics");
  if (metrics == nullptr) return nullptr;
  const obs::Json* hists = metrics->Find("histograms");
  if (hists == nullptr) return nullptr;
  return hists->Find(name);
}

// Delta of a counter between two points. Totals are monotone within one
// process; the clamp at 0 only covers a restarted process appending to
// the same file, whose totals start again from zero.
double Delta(const Point& prev, const Point& cur, const std::string& name) {
  double d = CounterTotal(cur.root, name) - CounterTotal(prev.root, name);
  return d > 0.0 ? d : 0.0;
}

void RenderRateRow(const char* label, double delta, double dt_s) {
  std::printf("  %-22s %12.1f/s  (%+.0f)\n", label,
              dt_s > 0 ? delta / dt_s : 0.0, delta);
}

void Render(const std::vector<Point>& points, size_t slow_rows) {
  if (points.empty()) {
    std::printf("msv_top: waiting for poller points...\n");
    return;
  }
  const Point& cur = points.back();
  const Point* prev = points.size() >= 2 ? &points[points.size() - 2] : nullptr;
  double dt_s = prev != nullptr && cur.ts_us > prev->ts_us
                    ? static_cast<double>(cur.ts_us - prev->ts_us) / 1e6
                    : 0.0;

  std::printf("msv_top  —  point @%" PRIu64 " us", cur.ts_us);
  if (prev != nullptr) {
    std::printf("  (interval %.2fs)", dt_s);
  } else {
    std::printf("  (single point; rates need two)");
  }
  std::printf("\n\n");

  std::printf("rates (since previous point):\n");
  if (prev != nullptr) {
    RenderRateRow("statements", Delta(*prev, cur, "query.statements"), dt_s);
    RenderRateRow("statement errors", Delta(*prev, cur, "query.errors"), dt_s);
    RenderRateRow("ACE leaf reads", Delta(*prev, cur, "ace.leaf_reads"),
                  dt_s);
    RenderRateRow("samples emitted",
                  Delta(*prev, cur, "view.samples_emitted"), dt_s);
  } else {
    std::printf("  (n/a)\n");
  }

  if (HasCounter(cur.root, "serve.requests")) {
    std::printf("\nserving:\n");
    std::printf("  %-22s %12.0f\n", "active connections",
                GaugeValue(cur.root, "serve.connections_active"));
    std::printf("  %-22s %12.0f\n", "admission queue depth",
                GaugeValue(cur.root, "serve.queue_depth"));
    if (prev != nullptr) {
      double requests = Delta(*prev, cur, "serve.requests");
      double rejected = Delta(*prev, cur, "serve.rejected_overload");
      RenderRateRow("requests", requests, dt_s);
      RenderRateRow("responses", Delta(*prev, cur, "serve.responses"), dt_s);
      RenderRateRow("overload rejections", rejected, dt_s);
      std::printf("  %-22s %12.1f%%\n", "rejection rate",
                  requests > 0 ? 100.0 * rejected / requests : 0.0);
      RenderRateRow("dropped connections",
                    Delta(*prev, cur, "serve.connections_dropped"), dt_s);
    }
  }

  if (HasCounter(cur.root, "ingest.inserted_records")) {
    std::printf("\ningest:\n");
    std::printf("  %-22s %12.0f records\n", "memtable",
                GaugeValue(cur.root, "ingest.memtable_records"));
    std::printf("  %-22s %12.0f runs / %.0f records\n", "sorted runs",
                GaugeValue(cur.root, "ingest.runs"),
                GaugeValue(cur.root, "ingest.run_records"));
    std::printf("  %-22s %12.0f records\n", "base tree",
                GaugeValue(cur.root, "ingest.base_records"));
    if (prev != nullptr) {
      RenderRateRow("inserts", Delta(*prev, cur, "ingest.inserted_records"),
                    dt_s);
      RenderRateRow("flushes", Delta(*prev, cur, "ingest.flushes"), dt_s);
      RenderRateRow("flush errors",
                    Delta(*prev, cur, "ingest.flush_errors"), dt_s);
      RenderRateRow("compactions", Delta(*prev, cur, "ingest.compactions"),
                    dt_s);
      RenderRateRow("compaction errors",
                    Delta(*prev, cur, "ingest.compaction_errors"), dt_s);
    }
  }

  std::printf("\nlatency quantiles (lifetime):\n");
  for (const char* name :
       {"query.statement_us", "serve.request_us", "ingest.flush_us",
        "ingest.compact_us"}) {
    const obs::Json* h = HistogramEntry(cur.root, name);
    if (h == nullptr) continue;
    const obs::Json* count = h->Find("count");
    const obs::Json* p50 = h->Find("p50");
    const obs::Json* p95 = h->Find("p95");
    const obs::Json* p99 = h->Find("p99");
    std::printf("  %-22s p50 %10.0f  p95 %10.0f  p99 %10.0f  (n=%.0f)\n",
                name, p50 ? p50->AsNumber() : 0.0, p95 ? p95->AsNumber() : 0.0,
                p99 ? p99->AsNumber() : 0.0, count ? count->AsNumber() : 0.0);
  }

  const obs::Json* slow = cur.root.Find("slow_queries");
  std::printf("\nslow queries (most recent %zu):\n", slow_rows);
  if (slow == nullptr || slow->size() == 0) {
    std::printf("  (none recorded — arm with MSV_SLOW_QUERY_US)\n");
    return;
  }
  std::printf("  %-10s %10s %10s %8s %10s %s\n", "stmt", "wall_us", "disk_us",
              "leaves", "samples", "session");
  size_t n = slow->size();
  size_t first = n > slow_rows ? n - slow_rows : 0;
  for (size_t i = n; i > first; --i) {  // newest first
    const obs::Json& rec = slow->at(i - 1);
    const obs::Json* stmt = rec.Find("statement");
    const obs::Json* wall = rec.Find("wall_us");
    const obs::Json* disk = rec.Find("disk_us");
    const obs::Json* leaves = rec.Find("leaves");
    const obs::Json* samples = rec.Find("samples");
    const obs::Json* session = rec.Find("session");
    const obs::Json* ok = rec.Find("ok");
    std::printf("  %-10s %10.0f %10.0f %8.0f %10.0f %s%s\n",
                stmt ? stmt->AsString().c_str() : "?",
                wall ? wall->AsNumber() : 0.0, disk ? disk->AsNumber() : 0.0,
                leaves ? leaves->AsNumber() : 0.0,
                samples ? samples->AsNumber() : 0.0,
                session ? session->AsString().c_str() : "",
                ok != nullptr && !ok->AsBool() ? "  [FAILED]" : "");
  }
}

int Main(int argc, char** argv) {
  std::string path;
  bool once = false;
  bool prom = false;
  uint64_t interval_ms = 1000;
  size_t slow_rows = 5;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--prom") {
      prom = true;
    } else if (arg.rfind("--interval=", 0) == 0) {
      interval_ms = std::strtoull(arg.c_str() + 11, nullptr, 10);
      if (interval_ms == 0) interval_ms = 1000;
    } else if (arg.rfind("--slow=", 0) == 0) {
      slow_rows = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--help" || arg.rfind("--", 0) == 0) {
      return Usage();
    } else if (path.empty()) {
      path = std::move(arg);
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  if (prom) {
    // Two lines, so a torn final line falls back to the one before it.
    std::vector<Point> points = ReadLastPoints(path, 2);
    const obs::Json* metrics =
        points.empty() ? nullptr : points.back().root.Find("metrics");
    if (metrics == nullptr) {
      std::fprintf(stderr, "msv_top: no export line in %s\n", path.c_str());
      return 1;
    }
    std::printf("%s", obs::RenderPrometheus(*metrics).c_str());
    return 0;
  }
  if (once) {
    Render(ReadLastPoints(path, 2), slow_rows);
    return 0;
  }
  for (;;) {
    std::vector<Point> points = ReadLastPoints(path, 2);
    // ANSI clear screen + home, then redraw — classic top(1) refresh.
    std::printf("\x1b[2J\x1b[H");
    Render(points, slow_rows);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) { return msv::Main(argc, argv); }
