#include "sampling/online_aggregator.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"

namespace msv::sampling {

OnlineAggregator::OnlineAggregator(storage::FieldAccessor accessor,
                                   uint64_t population, double confidence)
    : accessor_(accessor),
      population_(population),
      z_(NormalCriticalValue(confidence)) {}

void OnlineAggregator::Consume(const SampleBatch& batch) {
  // Batch fold. Per-record Welford carries a serial dependence through a
  // divide (~20 cycles/record no matter how cheap the load is), so this
  // computes the batch's own moments with chain-free independent
  // accumulators — pass 1 sums (and min/max), pass 2 sums squared
  // deviations from the batch mean — and merges them into the running
  // state with one Chan update. One divide per batch instead of one per
  // record; the reduction order is fixed by this code, so results do not
  // depend on the dispatch level.
  const size_t n = batch.count();
  if (n == 0) return;
  const char* rec = batch.data.data();
  const size_t record_size = batch.record_size;
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  const char* p = rec;
  size_t i = 0;
  for (; i + 4 <= n; i += 4, p += 4 * record_size) {
    double a = accessor_.Load(p);
    double b = accessor_.Load(p + record_size);
    double c = accessor_.Load(p + 2 * record_size);
    double d = accessor_.Load(p + 3 * record_size);
    s0 += a;
    s1 += b;
    s2 += c;
    s3 += d;
    mn = std::min({mn, a, b, c, d});
    mx = std::max({mx, a, b, c, d});
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i, p += record_size) {
    double v = accessor_.Load(p);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  const double batch_mean = sum / static_cast<double>(n);
  double q0 = 0, q1 = 0, q2 = 0, q3 = 0;
  p = rec;
  i = 0;
  for (; i + 4 <= n; i += 4, p += 4 * record_size) {
    double a = accessor_.Load(p) - batch_mean;
    double b = accessor_.Load(p + record_size) - batch_mean;
    double c = accessor_.Load(p + 2 * record_size) - batch_mean;
    double d = accessor_.Load(p + 3 * record_size) - batch_mean;
    q0 += a * a;
    q1 += b * b;
    q2 += c * c;
    q3 += d * d;
  }
  double m2 = (q0 + q1) + (q2 + q3);
  for (; i < n; ++i, p += record_size) {
    double v = accessor_.Load(p) - batch_mean;
    m2 += v * v;
  }
  stats_.Merge(RunningStats::FromMoments(n, batch_mean, m2, mn, mx));
  MaybeEmitCheckpoint();
}

void OnlineAggregator::MaybeEmitCheckpoint() {
  if (stats_.count() < next_checkpoint_ || obs::Tracer::Active() == nullptr) {
    return;
  }
  while (next_checkpoint_ <= stats_.count()) {
    // 1-2-5 ladder: 10, 20, 50, 100, ...
    uint64_t lead = next_checkpoint_;
    while (lead >= 10) lead /= 10;
    next_checkpoint_ = lead == 1   ? next_checkpoint_ * 2
                       : lead == 2 ? next_checkpoint_ / 2 * 5
                                   : next_checkpoint_ * 2;
  }
  Estimate avg = Avg();
  obs::AddTraceEvent(
      "estimate", {{"samples", static_cast<double>(avg.samples)},
                   {"avg", avg.value},
                   {"ci_half_width", avg.half_width}});
}

Estimate OnlineAggregator::Avg() const {
  Estimate e;
  e.samples = stats_.count();
  e.value = stats_.mean();
  if (stats_.count() > 1) {
    double se = stats_.stderr_mean();
    // Finite-population correction: we sample without replacement.
    if (population_ > 1 && stats_.count() <= population_) {
      double fpc = std::sqrt(
          static_cast<double>(population_ - stats_.count()) /
          static_cast<double>(population_ - 1));
      se *= fpc;
    }
    e.half_width = z_ * se;
  }
  return e;
}

Estimate OnlineAggregator::Sum() const {
  Estimate avg = Avg();
  Estimate e;
  e.samples = avg.samples;
  e.value = avg.value * static_cast<double>(population_);
  e.half_width = avg.half_width * static_cast<double>(population_);
  return e;
}

}  // namespace msv::sampling
