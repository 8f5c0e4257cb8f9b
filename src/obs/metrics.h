// Process-wide metrics registry: named counters, gauges and log-linear
// histograms that every subsystem publishes into. Snapshot() is the one
// read path: the JSON object the poller's export line carries, which
// BENCH_*.json records embed, msv_top renders (and turns into Prometheus
// exposition with --prom) and msv_inspect --metrics prints. Trace spans
// read counters directly through ListCounters.
//
// Hot-path cost model: a registered Counter* is fetched once (mutex under
// the registration map) and then bumped with a relaxed atomic add — cheap
// enough for per-I/O instrumentation. Histograms use atomic bucket
// counters; a snapshot copies each histogram's cells once.
//
// There are no resets: every counter is a monotone total for the
// lifetime of the process. A reader that wants a window (a rate, one
// query's I/O) takes two snapshots and subtracts them, as msv_top does
// with the poller's export lines.

#ifndef MSV_OBS_METRICS_H_
#define MSV_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/sync.h"

namespace msv::obs {

/// Monotone event counter. Relaxed increments; safe from any thread.
class Counter {
 public:
  void Add(uint64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-linear histogram over non-negative integer values (microseconds,
/// bytes, counts): one cell for [0,1), then every power-of-two octave
/// split into kSubBuckets equal cells, up to 2^kMaxOctave. Concurrent
/// Record() calls are safe; snapshots are per-cell consistent.
class LogHistogram {
 public:
  static constexpr unsigned kMaxOctave = 40;  // ~1.1e12: µs > 12 days, TB sizes
  static constexpr unsigned kSubBuckets = 4;  // <= 25% relative cell width

  LogHistogram();

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }

  /// Interpolated quantile, q in [0, 1], from one copy of the cells.
  double Quantile(double q) const;

  /// The shared cell upper/lower edges every LogHistogram buckets with:
  /// edges[i], edges[i+1] bound cell i; BucketEdges().size() - 1 cells.
  static const std::vector<double>& BucketEdges();

  /// Copies the per-cell loads (size BucketEdges().size() - 1) and the
  /// overflow count (values >= edges.back()). Each cell is read once
  /// with relaxed loads, so a copy racing with Record() is consistent
  /// with itself but may trail count() and sum().
  void SnapshotCells(std::vector<uint64_t>* counts, uint64_t* overflow) const;

 private:
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> overflow_{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry every subsystem publishes into by default.
  static MetricRegistry& Global();

  /// Returns the metric registered under `name`, creating it on first
  /// use. Pointers are stable for the registry's lifetime. Registering
  /// the same name as two different metric kinds is a programming error.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LogHistogram* GetHistogram(const std::string& name);

  /// Canonical labelled-series name: "name{k1=v1,k2=v2}".
  static std::string Labeled(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& labels);

  /// Samples every metric once under the registration lock, in sorted
  /// name order, as the export line's metrics object:
  ///
  ///   {"counters":   {name: {"total": n}},
  ///    "gauges":     {name: v},
  ///    "histograms": {name: {"count", "mean", "p50", "p95", "p99",
  ///                          "sum", "cells": [[le, n], ...], "overflow"}}}
  ///
  /// A histogram's "cells" are its non-empty cells, each as the cell's
  /// upper edge and its load; "count" is their loads plus "overflow",
  /// and the quantiles come from the same copy. Counters use relaxed
  /// atomics, so a snapshot taken while another thread
  /// updates several counters (io.disk.reads and io.disk.busy_us from
  /// one access) may see one bumped and not the other; each counter on
  /// its own never goes backwards between snapshots. Callers that need
  /// exact cross-counter agreement quiesce writers first or read the
  /// per-object struct totals, which are taken under the owning lock.
  Json Snapshot() const;

  /// Counter list for trace-span delta capture: (name, counter) pairs in
  /// sorted name order. `version()` changes whenever a metric is
  /// registered, so callers can cache the list.
  uint64_t version() const;
  void ListCounters(std::vector<std::pair<std::string, Counter*>>* out) const;

 private:
  mutable Mutex mu_;
  uint64_t version_ MSV_GUARDED_BY(mu_) = 0;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      MSV_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ MSV_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_
      MSV_GUARDED_BY(mu_);
};

}  // namespace msv::obs

#endif  // MSV_OBS_METRICS_H_
