#include "obs/timeseries.h"

#include <algorithm>
#include <chrono>

#include "obs/log.h"
#include "obs/trace.h"

namespace msv::obs {

namespace {

/// Counter total by name in a snapshot (sorted by name — binary search).
bool CounterTotal(const MetricsSnapshot& snap, const std::string& name,
                  uint64_t* total) {
  auto it = std::lower_bound(
      snap.counters.begin(), snap.counters.end(), name,
      [](const CounterSample& s, const std::string& n) { return s.name < n; });
  if (it == snap.counters.end() || it->name != name) return false;
  *total = it->total;
  return true;
}

}  // namespace

TimeSeries::TimeSeries(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TimeSeries::Push(TimeSeriesPoint point) {
  MutexLock lock(mu_);
  ring_.push_back(std::move(point));
  while (ring_.size() > capacity_) ring_.pop_front();
}

size_t TimeSeries::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

std::vector<TimeSeriesPoint> TimeSeries::Points() const {
  MutexLock lock(mu_);
  return std::vector<TimeSeriesPoint>(ring_.begin(), ring_.end());
}

TimeSeriesPoint TimeSeries::Latest() const {
  MutexLock lock(mu_);
  if (ring_.empty()) return TimeSeriesPoint{};
  return ring_.back();
}

void TimeSeries::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
}

uint64_t TimeSeries::CounterDelta(const std::string& name,
                                  uint64_t window_us) const {
  MutexLock lock(mu_);
  if (ring_.size() < 2) return 0;
  const TimeSeriesPoint& newest = ring_.back();
  // Oldest point still inside the window; falls back to the ring's
  // oldest when the window outspans the ring.
  const TimeSeriesPoint* base = &ring_.front();
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (newest.ts_us - it->ts_us >= window_us) {
      base = &*it;
      break;
    }
  }
  if (base == &newest) return 0;
  uint64_t from = 0, to = 0;
  if (!CounterTotal(base->snapshot, name, &from)) from = 0;
  if (!CounterTotal(newest.snapshot, name, &to)) return 0;
  return to >= from ? to - from : 0;
}

double TimeSeries::CounterRate(const std::string& name,
                               uint64_t window_us) const {
  MutexLock lock(mu_);
  if (ring_.size() < 2) return 0.0;
  const TimeSeriesPoint& newest = ring_.back();
  const TimeSeriesPoint* base = &ring_.front();
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (newest.ts_us - it->ts_us >= window_us) {
      base = &*it;
      break;
    }
  }
  if (base == &newest || newest.ts_us <= base->ts_us) return 0.0;
  uint64_t span_us = newest.ts_us - base->ts_us;
  uint64_t from = 0, to = 0;
  if (!CounterTotal(base->snapshot, name, &from)) from = 0;
  if (!CounterTotal(newest.snapshot, name, &to)) return 0.0;
  uint64_t delta = to >= from ? to - from : 0;
  return static_cast<double>(delta) * 1e6 / static_cast<double>(span_us);
}

Json ExportPointJson(const TimeSeriesPoint& point,
                     bool include_slow_queries) {
  Json j = Json::Object();
  j["ts_us"] = point.ts_us;
  j["metrics"] = point.snapshot.ToJson();
  if (include_slow_queries) {
    j["slow_queries"] = SlowQueryLog::Global().ToJson();
  }
  return j;
}

MetricsPoller::MetricsPoller(MetricsPollerOptions options)
    : options_(std::move(options)),
      registry_(options_.registry ? options_.registry
                                  : &MetricRegistry::Global()),
      series_(options_.capacity) {}

MetricsPoller::~MetricsPoller() {
  Stop();
  MutexLock lock(export_mu_);
  if (export_file_) {
    std::fclose(export_file_);
    export_file_ = nullptr;
  }
}

void MetricsPoller::Start() {
  MutexLock lock(mu_);
  // A concurrent Stop() owns thread_ until it finishes joining.
  while (state_ == State::kStopping) cv_.Wait(mu_);
  if (state_ == State::kRunning) return;
  stop_requested_ = false;
  thread_ = std::thread(&MetricsPoller::ThreadMain, this);
  state_ = State::kRunning;
}

void MetricsPoller::Stop() {
  std::thread to_join;
  {
    MutexLock lock(mu_);
    while (state_ == State::kStopping) cv_.Wait(mu_);
    if (state_ == State::kStopped) return;
    state_ = State::kStopping;
    stop_requested_ = true;
    cv_.SignalAll();
    to_join = std::move(thread_);
  }
  to_join.join();
  MutexLock lock(mu_);
  state_ = State::kStopped;
  cv_.SignalAll();
}

bool MetricsPoller::running() const {
  MutexLock lock(mu_);
  return state_ == State::kRunning;
}

void MetricsPoller::ThreadMain() {
  SetThreadLabel("metrics-poller");
  PollOnce();
  for (;;) {
    {
      MutexLock lock(mu_);
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options_.interval_ms);
      while (!stop_requested_) {
        auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        cv_.WaitFor(mu_, deadline - now);
      }
      if (stop_requested_) return;
    }
    PollOnce();
  }
}

void MetricsPoller::PollNow() { PollOnce(); }

void MetricsPoller::PollOnce() {
  TimeSeriesPoint point;
  point.ts_us = WallTimeUs();
  point.snapshot = registry_->Snapshot();
  if (!options_.export_path.empty()) {
    Json j = ExportPointJson(point, /*include_slow_queries=*/true);
    std::string line = j.Dump();
    line.push_back('\n');
    MutexLock lock(export_mu_);
    if (!export_file_ && !export_failed_) {
      export_file_ = std::fopen(options_.export_path.c_str(), "ae");
      if (!export_file_) {
        // One warning, then silence: a bad path must not spam per poll.
        export_failed_ = true;
        MSV_LOG(Warn) << "metrics poller: cannot open export file "
                      << options_.export_path;
      }
    }
    if (export_file_) {
      std::fwrite(line.data(), 1, line.size(), export_file_);
      std::fflush(export_file_);
    }
  }
  series_.Push(std::move(point));
  polls_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace msv::obs
