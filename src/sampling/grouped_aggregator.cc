#include "sampling/grouped_aggregator.h"

#include <cmath>

#include "util/stats.h"

namespace msv::sampling {

GroupedAggregator::GroupedAggregator(storage::FieldAccessor group_acc,
                                     storage::FieldAccessor value_acc,
                                     uint64_t population, double confidence)
    : group_acc_(group_acc),
      value_acc_(value_acc),
      population_(population),
      z_(NormalCriticalValue(confidence)) {}

void GroupedAggregator::Fold(uint64_t group, double x) {
  GroupStats& g = groups_[group];
  ++g.n;
  g.sum += x;
  g.sumsq += x * x;
  ++n_;
}

void GroupedAggregator::Consume(const SampleBatch& batch) {
  // Both loads inline, so the per-record cost is the map probe and the
  // three accumulator updates.
  const size_t n = batch.count();
  const char* rec = batch.data.data();
  const size_t record_size = batch.record_size;
  for (size_t i = 0; i < n; ++i, rec += record_size) {
    Fold(group_acc_.LoadU64(rec), value_acc_.Load(rec));
  }
}

std::vector<GroupedAggregator::GroupResult> GroupedAggregator::Groups()
    const {
  std::vector<GroupResult> out;
  out.reserve(groups_.size());
  const double n = static_cast<double>(n_);
  const double pop = static_cast<double>(population_);
  for (const auto& [key, g] : groups_) {
    GroupResult result;
    result.group = key;
    result.samples = g.n;

    // Within-group AVG (plain CLT over the group's own samples).
    result.avg.samples = g.n;
    double group_n = static_cast<double>(g.n);
    result.avg.value = g.n ? g.sum / group_n : 0.0;
    if (g.n > 1) {
      double var = (g.sumsq - g.sum * g.sum / group_n) / (group_n - 1);
      result.avg.half_width = z_ * std::sqrt(std::max(0.0, var) / group_n);
    }

    // SUM via the transformed variable y = x * 1[in group] over ALL n
    // samples: mean(y) = g.sum / n, var(y) from g.sumsq (zeros elsewhere).
    result.sum.samples = n_;
    if (n_ > 0) {
      double mean_y = g.sum / n;
      result.sum.value = pop * mean_y;
      if (n_ > 1) {
        double var_y = (g.sumsq - g.sum * mean_y) / (n - 1);
        result.sum.half_width =
            z_ * pop * std::sqrt(std::max(0.0, var_y) / n);
      }
    }

    // COUNT via the group-membership proportion.
    result.count.samples = n_;
    if (n_ > 0) {
      double p = group_n / n;
      result.count.value = pop * p;
      if (n_ > 1) {
        result.count.half_width =
            z_ * pop * std::sqrt(p * (1 - p) / n);
      }
    }
    out.push_back(result);
  }
  return out;
}

}  // namespace msv::sampling
