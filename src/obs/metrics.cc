#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace msv::obs {

namespace {

const std::vector<double>& LogLinearEdgesSingleton() {
  // Leaked singleton: metrics outlive static destruction order.
  static const std::vector<double>* edges =
      new std::vector<double>(  // NOLINT(msv-naked-new)
          bucketing::LogLinearEdges(LogHistogram::kMaxOctave,
                                    LogHistogram::kSubBuckets));
  return *edges;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

LogHistogram::LogHistogram() : counts_(LogLinearEdgesSingleton().size() - 1) {}

const std::vector<double>& LogHistogram::edges() const {
  return LogLinearEdgesSingleton();
}

const std::vector<double>& LogHistogram::BucketEdges() {
  return LogLinearEdgesSingleton();
}

void LogHistogram::SnapshotCells(std::vector<uint64_t>* counts,
                                 uint64_t* overflow) const {
  counts->resize(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    (*counts)[i] = counts_[i].load(std::memory_order_relaxed);
  }
  *overflow = overflow_.load(std::memory_order_relaxed);
}

void LogHistogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  const std::vector<double>& e = edges();
  double v = static_cast<double>(value);
  if (v >= e.back()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  size_t i = bucketing::BucketFor(e, v);
  counts_[i].fetch_add(1, std::memory_order_relaxed);
}

double LogHistogram::Quantile(double q) const {
  std::vector<uint64_t> counts(counts_.size());
  uint64_t in_range = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
    in_range += counts[i];
  }
  uint64_t over = overflow_.load(std::memory_order_relaxed);
  // Total from the cells themselves, so a snapshot racing with Record()
  // stays internally consistent.
  return bucketing::QuantileFromCounts(edges(), counts.data(), /*underflow=*/0,
                                       over, in_range + over, q);
}

std::string LogHistogram::ToString() const {
  std::vector<uint64_t> counts(counts_.size());
  uint64_t in_range = 0;
  double min_seen = 0.0, max_seen = 0.0;
  bool any = false;
  const std::vector<double>& e = edges();
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
    in_range += counts[i];
    if (counts[i] > 0) {
      if (!any) min_seen = e[i];
      max_seen = e[i + 1];
      any = true;
    }
  }
  double m = in_range ? static_cast<double>(sum()) /
                            static_cast<double>(in_range)
                      : 0.0;
  return bucketing::RenderCounts(e, counts.data(), in_range, m, min_seen,
                                 max_seen);
}

MetricRegistry& MetricRegistry::Global() {
  // Leaked singleton: counters are bumped from destructors of objects
  // with static storage duration; never destroy the registry.
  static MetricRegistry* registry = new MetricRegistry();  // NOLINT(msv-naked-new)
  return *registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  MSV_DCHECK(gauges_.find(name) == gauges_.end());
  MSV_DCHECK(histograms_.find(name) == histograms_.end());
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    ++version_;
  }
  return it->second.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  MSV_DCHECK(counters_.find(name) == counters_.end());
  MSV_DCHECK(histograms_.find(name) == histograms_.end());
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    ++version_;
  }
  return it->second.get();
}

LogHistogram* MetricRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  MSV_DCHECK(counters_.find(name) == counters_.end());
  MSV_DCHECK(gauges_.find(name) == gauges_.end());
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<LogHistogram>()).first;
    ++version_;
  }
  return it->second.get();
}

std::string MetricRegistry::Labeled(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first + "=" + labels[i].second;
  }
  out += "}";
  return out;
}

uint64_t MetricRegistry::version() const {
  MutexLock lock(mu_);
  return version_;
}

void MetricRegistry::ListCounters(
    std::vector<std::pair<std::string, Counter*>>* out) const {
  MutexLock lock(mu_);
  out->clear();
  out->reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out->emplace_back(name, c.get());
  }
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back(CounterSample{name, c->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back(GaugeSample{name, g->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.count = h->count();
    s.mean = h->mean();
    s.p50 = h->P50();
    s.p95 = h->P95();
    s.p99 = h->P99();
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char line[256];
  for (const CounterSample& c : counters) {
    out += c.name + " " + std::to_string(c.total) + "\n";
  }
  for (const GaugeSample& g : gauges) {
    out += g.name + " " + FormatDouble(g.value) + "\n";
  }
  for (const HistogramSample& h : histograms) {
    std::snprintf(line, sizeof(line),
                  "%s count=%llu mean=%s p50=%s p95=%s p99=%s\n",
                  h.name.c_str(), static_cast<unsigned long long>(h.count),
                  FormatDouble(h.mean).c_str(), FormatDouble(h.p50).c_str(),
                  FormatDouble(h.p95).c_str(), FormatDouble(h.p99).c_str());
    out += line;
  }
  return out;
}

Json MetricsSnapshot::ToJson() const {
  Json root = Json::Object();
  Json jc = Json::Object();
  for (const CounterSample& c : counters) {
    Json entry = Json::Object();
    entry["total"] = c.total;
    jc[c.name] = std::move(entry);
  }
  root["counters"] = std::move(jc);
  Json jg = Json::Object();
  for (const GaugeSample& g : gauges) {
    jg[g.name] = g.value;
  }
  root["gauges"] = std::move(jg);
  Json jh = Json::Object();
  for (const HistogramSample& h : histograms) {
    Json entry = Json::Object();
    entry["count"] = h.count;
    entry["mean"] = h.mean;
    entry["p50"] = h.p50;
    entry["p95"] = h.p95;
    entry["p99"] = h.p99;
    jh[h.name] = std::move(entry);
  }
  root["histograms"] = std::move(jh);
  return root;
}

}  // namespace msv::obs
