#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace msv::obs {

namespace {

/// Edges for the log-linear layout over [0, 2^max_octave): one cell for
/// [0, 1), then every power-of-two octave [2^k, 2^(k+1)) split into
/// `sub` equal-width cells. Relative quantile error is bounded by 1/sub.
std::vector<double> LogLinearEdges(unsigned max_octave, unsigned sub) {
  std::vector<double> edges;
  edges.reserve(2 + static_cast<size_t>(max_octave) * sub);
  edges.push_back(0.0);
  edges.push_back(1.0);
  for (unsigned e = 0; e < max_octave; ++e) {
    double base = std::ldexp(1.0, static_cast<int>(e));
    double step = base / static_cast<double>(sub);
    for (unsigned s = 1; s <= sub; ++s) {
      edges.push_back(base + step * static_cast<double>(s));
    }
  }
  return edges;
}

/// Index of the cell containing `v`: edges[i] <= v < edges[i+1].
/// Requires edges.front() <= v < edges.back().
size_t BucketFor(const std::vector<double>& edges, double v) {
  MSV_DCHECK(v >= edges.front() && v < edges.back());
  auto it = std::upper_bound(edges.begin(), edges.end(), v);
  return static_cast<size_t>(it - edges.begin()) - 1;
}

/// Interpolated quantile from per-cell loads: `cells[i]` covers
/// [edges[i], edges[i+1]), and `total` is their sum plus the overflow
/// above edges.back(), where a quantile in the overflow saturates.
double QuantileFromCells(const std::vector<double>& edges,
                         const std::vector<uint64_t>& cells, uint64_t total,
                         double q) {
  MSV_DCHECK(q >= 0.0 && q <= 1.0);
  if (total == 0) return 0.0;
  double target = q * static_cast<double>(total);
  if (target <= 0.0) return edges.front();
  double cum = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    double next = cum + static_cast<double>(cells[i]);
    if (next >= target && cells[i] > 0) {
      double frac = (target - cum) / static_cast<double>(cells[i]);
      return edges[i] + (edges[i + 1] - edges[i]) * frac;
    }
    cum = next;
  }
  return edges.back();
}

}  // namespace

LogHistogram::LogHistogram() : counts_(BucketEdges().size() - 1) {}

const std::vector<double>& LogHistogram::BucketEdges() {
  // Leaked singleton: metrics outlive static destruction order.
  static const std::vector<double>* edges =
      new std::vector<double>(  // NOLINT(msv-naked-new)
          LogLinearEdges(kMaxOctave, kSubBuckets));
  return *edges;
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
  const std::vector<double>& e = BucketEdges();
  double v = static_cast<double>(value);
  if (v >= e.back()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  size_t i = BucketFor(e, v);
  counts_[i].fetch_add(1, std::memory_order_relaxed);
}

double LogHistogram::Quantile(double q) const {
  std::vector<uint64_t> cells;
  uint64_t overflow = 0;
  SnapshotCells(&cells, &overflow);
  // Total from the copy itself, so a read racing with Record() stays
  // internally consistent.
  uint64_t total = overflow;
  for (uint64_t n : cells) total += n;
  return QuantileFromCells(BucketEdges(), cells, total, q);
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

Json MetricRegistry::Snapshot() const {
  MutexLock lock(mu_);
  Json counters = Json::Object();
  for (const auto& [name, c] : counters_) {
    Json entry = Json::Object();
    entry["total"] = c->Value();
    counters[name] = std::move(entry);
  }
  Json gauges = Json::Object();
  for (const auto& [name, g] : gauges_) {
    gauges[name] = g->Value();
  }
  Json histograms = Json::Object();
  const std::vector<double>& edges = LogHistogram::BucketEdges();
  std::vector<uint64_t> cells;
  for (const auto& [name, h] : histograms_) {
    uint64_t overflow = 0;
    h->SnapshotCells(&cells, &overflow);
    const uint64_t sum = h->sum();
    uint64_t count = overflow;
    Json nonempty = Json::Array();
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i] == 0) continue;
      count += cells[i];
      Json cell = Json::Array();
      cell.Append(edges[i + 1]);
      cell.Append(cells[i]);
      nonempty.Append(std::move(cell));
    }
    Json entry = Json::Object();
    entry["count"] = count;
    entry["mean"] = count ? static_cast<double>(sum) /
                                static_cast<double>(count)
                          : 0.0;
    entry["p50"] = QuantileFromCells(edges, cells, count, 0.50);
    entry["p95"] = QuantileFromCells(edges, cells, count, 0.95);
    entry["p99"] = QuantileFromCells(edges, cells, count, 0.99);
    entry["sum"] = sum;
    entry["cells"] = std::move(nonempty);
    entry["overflow"] = overflow;
    histograms[name] = std::move(entry);
  }
  Json root = Json::Object();
  root["counters"] = std::move(counters);
  root["gauges"] = std::move(gauges);
  root["histograms"] = std::move(histograms);
  return root;
}

}  // namespace msv::obs
