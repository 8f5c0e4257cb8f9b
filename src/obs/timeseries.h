// In-process metrics-over-time: a bounded ring of timestamped registry
// snapshots (TimeSeries) and the background thread that fills it at a
// fixed interval (MetricsPoller).
//
// The poller is the always-on half of the obs stack: counters tell you
// totals, the time series turns them into rates and quantile trends
// (P95 of io.disk.access_us *over the last minute*, not since process
// start) that serving-side admission control and `msv_top` consume.
// Built on the annotated util/sync.h primitives; Start/Stop are
// idempotent, callable from any thread, and TSan-clean — the CI tsan
// job runs the MetricsPoller tests.
//
// Optionally each poll appends one JSON line ({"ts_us", "metrics",
// "slow_queries"}) to an export file, which is the transport `msv_top`
// tails; `msv_serve --metrics-file` sets it.

#ifndef MSV_OBS_TIMESERIES_H_
#define MSV_OBS_TIMESERIES_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/sync.h"

namespace msv::obs {

/// One poll: wall-clock stamp plus the full registry snapshot.
struct TimeSeriesPoint {
  uint64_t ts_us = 0;  ///< wall clock, µs since the Unix epoch
  MetricsSnapshot snapshot;
};

/// Fixed-capacity ring of snapshots, oldest evicted first. All methods
/// are thread-safe; readers get copies, never references into the ring.
class TimeSeries {
 public:
  explicit TimeSeries(size_t capacity = 300);

  void Push(TimeSeriesPoint point);

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Oldest-first copy of the ring.
  std::vector<TimeSeriesPoint> Points() const;

  /// The newest point, or ts_us == 0 when empty.
  TimeSeriesPoint Latest() const;

  /// Average events/second of counter `name` between the newest point
  /// and the oldest point at least `window_us` older (clamped to the
  /// ring's span). 0.0 with fewer than two points or a zero span.
  double CounterRate(const std::string& name, uint64_t window_us) const;

  /// Counter delta over the same window as CounterRate.
  uint64_t CounterDelta(const std::string& name, uint64_t window_us) const;

  void Clear();

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::deque<TimeSeriesPoint> ring_ MSV_GUARDED_BY(mu_);
};

struct MetricsPollerOptions {
  uint64_t interval_ms = 1000;
  size_t capacity = 300;           ///< ring size (5 min at 1s)
  MetricRegistry* registry = nullptr;  ///< nullptr = MetricRegistry::Global()
  std::string export_path;         ///< JSON-lines export; empty = in-memory only
};

/// Background snapshot thread. Lifecycle:
///
///   MetricsPoller poller({.interval_ms = 500});
///   poller.Start();           // spawns the thread, first poll immediate
///   ... poller.series().CounterRate("io.disk.reads", 5'000'000) ...
///   poller.Stop();            // signals, joins; ring stays readable
///
/// Start after Stop restarts cleanly; double Start/Stop are no-ops. The
/// destructor stops. PollNow() takes a snapshot on the caller's thread
/// (works with the poller stopped — tests and --once tools use it).
class MetricsPoller {
 public:
  explicit MetricsPoller(MetricsPollerOptions options = {});
  ~MetricsPoller();

  MetricsPoller(const MetricsPoller&) = delete;
  MetricsPoller& operator=(const MetricsPoller&) = delete;

  void Start();
  void Stop();
  bool running() const;

  void PollNow();

  const TimeSeries& series() const { return series_; }
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

 private:
  /// kStopping covers the join window: the stopping thread releases
  /// mu_ to join (joining under the lock would deadlock with the worker
  /// re-acquiring it), so concurrent Start/Stop callers wait for the
  /// transition to finish instead of touching thread_.
  enum class State { kStopped, kRunning, kStopping };

  void ThreadMain();
  void PollOnce();

  const MetricsPollerOptions options_;
  MetricRegistry* const registry_;
  TimeSeries series_;
  std::atomic<uint64_t> polls_{0};

  mutable Mutex mu_;
  State state_ MSV_GUARDED_BY(mu_) = State::kStopped;
  bool stop_requested_ MSV_GUARDED_BY(mu_) = false;
  std::thread thread_ MSV_GUARDED_BY(mu_);
  CondVar cv_;

  /// Export sink serialized separately from the lifecycle lock so a
  /// slow write never blocks Stop() from being *requested*.
  Mutex export_mu_;
  std::FILE* export_file_ MSV_GUARDED_BY(export_mu_) = nullptr;
  bool export_failed_ MSV_GUARDED_BY(export_mu_) = false;
};

/// Renders one poll (plus optional slow-query tail) as the JSON-lines
/// export object msv_top parses; the poller always includes the tail.
Json ExportPointJson(const TimeSeriesPoint& point, bool include_slow_queries);

}  // namespace msv::obs

#endif  // MSV_OBS_TIMESERIES_H_
