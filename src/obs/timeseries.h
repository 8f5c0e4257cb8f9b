// Metrics over time: a background thread that snapshots the registry at
// a fixed interval and appends each snapshot as one JSON line
// ({"ts_us", "metrics", "slow_queries"}) to an export file. The file is
// the only output and the transport `msv_top` tails; `msv_serve
// --metrics-file` sets it.
//
// The poller keeps no history in memory. Counters in a line are
// monotone totals, so a reader turns two lines into a rate by
// subtracting them (msv_top's Delta); the lines of a restarted process
// appended to the same file start again from zero.
//
// The poller is scoped: the constructor starts the thread, which polls
// right away, and the destructor signals and joins it. The CI tsan
// job runs the MetricsPoller tests.

#ifndef MSV_OBS_TIMESERIES_H_
#define MSV_OBS_TIMESERIES_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/sync.h"

namespace msv::obs {

struct MetricsPollerOptions {
  uint64_t interval_ms = 1000;
  MetricRegistry* registry = nullptr;  ///< nullptr = MetricRegistry::Global()
  std::string export_path;             ///< JSON-lines file; required
};

/// Scoped export thread:
///
///   {
///     MetricsPoller poller({.interval_ms = 500, .export_path = "m.jsonl"});
///     ...  // one line now, then one every 500 ms
///   }      // signals, joins, closes the file
///
/// If the export file cannot be opened the poller logs one warning and
/// starts no thread.
class MetricsPoller {
 public:
  explicit MetricsPoller(MetricsPollerOptions options);
  ~MetricsPoller();

  MetricsPoller(const MetricsPoller&) = delete;
  MetricsPoller& operator=(const MetricsPoller&) = delete;

  /// Lines this poller has appended to the export file so far.
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  void ThreadMain();
  void PollOnce();

  const MetricsPollerOptions options_;
  MetricRegistry* const registry_;
  /// Written only by the thread; closed after the destructor's join.
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::atomic<uint64_t> polls_{0};

  Mutex mu_;
  bool stop_requested_ MSV_GUARDED_BY(mu_) = false;
  CondVar cv_;
  std::thread thread_;
};

/// One export line: {"ts_us", "metrics", "slow_queries"}, where
/// `metrics` is a MetricRegistry::Snapshot() and `slow_queries` the
/// SlowQueryLog's tail. msv_top parses it.
Json ExportPointJson(uint64_t ts_us, Json metrics);

}  // namespace msv::obs

#endif  // MSV_OBS_TIMESERIES_H_
