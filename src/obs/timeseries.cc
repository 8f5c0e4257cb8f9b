#include "obs/timeseries.h"

#include <chrono>

#include "obs/log.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace msv::obs {

Json ExportPointJson(uint64_t ts_us, Json metrics) {
  Json j = Json::Object();
  j["ts_us"] = ts_us;
  j["metrics"] = std::move(metrics);
  j["slow_queries"] = SlowQueryLog::Global().ToJson();
  return j;
}

MetricsPoller::MetricsPoller(MetricsPollerOptions options)
    : options_(std::move(options)),
      registry_(options_.registry ? options_.registry
                                  : &MetricRegistry::Global()) {
  MSV_CHECK_MSG(!options_.export_path.empty(),
                "MetricsPoller needs an export_path");
  file_.reset(std::fopen(options_.export_path.c_str(), "ae"));
  if (file_ == nullptr) {
    MSV_LOG(Warn) << "metrics poller: cannot open export file "
                  << options_.export_path;
    return;
  }
  thread_ = std::thread(&MetricsPoller::ThreadMain, this);
}

MetricsPoller::~MetricsPoller() {
  {
    MutexLock lock(mu_);
    stop_requested_ = true;
    cv_.SignalAll();
  }
  if (thread_.joinable()) thread_.join();
}

void MetricsPoller::ThreadMain() {
  SetThreadLabel("metrics-poller");
  for (;;) {
    PollOnce();
    MutexLock lock(mu_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.interval_ms);
    while (!stop_requested_) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      cv_.WaitFor(mu_, deadline - now);
    }
    if (stop_requested_) return;
  }
}

void MetricsPoller::PollOnce() {
  std::string line =
      ExportPointJson(WallTimeUs(), registry_->Snapshot()).Dump();
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), file_.get());
  std::fflush(file_.get());
  polls_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace msv::obs
