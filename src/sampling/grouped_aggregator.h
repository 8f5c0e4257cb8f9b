// Online GROUP BY aggregation over a SampleStream.
//
// Extends OnlineAggregator to per-group estimates, the classic online-
// aggregation interface ("SELECT g, AVG(x) ... GROUP BY g" with per-group
// confidence intervals that tighten as samples stream in). Group SUM and
// COUNT use the standard transformed-variable estimator: for group g,
// y_i = x_i * 1[group(r_i) = g] over ALL samples, so SUM_g = N * mean(y)
// with a CLT interval from var(y); only per-group (count, sum, sum-of-
// squares) plus the global sample count need be stored.
//
// Like OnlineAggregator, it takes compiled FieldAccessors for the group
// key and the aggregated expression (no per-record indirect calls).

#ifndef MSV_SAMPLING_GROUPED_AGGREGATOR_H_
#define MSV_SAMPLING_GROUPED_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "sampling/online_aggregator.h"
#include "sampling/sample_stream.h"
#include "storage/record_view.h"

namespace msv::sampling {

class GroupedAggregator {
 public:
  /// `group_acc` extracts the (integer) group key, `value_acc`
  /// the value being aggregated; `population` is |σ_Q(R)| (for SUM/COUNT
  /// scale-up).
  GroupedAggregator(storage::FieldAccessor group_acc,
                    storage::FieldAccessor value_acc, uint64_t population,
                    double confidence = 0.95);

  void Consume(const SampleBatch& batch);

  struct GroupResult {
    uint64_t group = 0;
    uint64_t samples = 0;   ///< samples seen in this group
    Estimate avg;           ///< within-group mean of the expression
    Estimate sum;           ///< scaled to the full population
    Estimate count;         ///< estimated group size in the population
  };

  /// Current per-group estimates, ordered by group key.
  std::vector<GroupResult> Groups() const;

  uint64_t samples_seen() const { return n_; }
  size_t group_count() const { return groups_.size(); }

 private:
  struct GroupStats {
    uint64_t n = 0;
    double sum = 0.0;
    double sumsq = 0.0;
  };

  void Fold(uint64_t group, double x);

  storage::FieldAccessor group_acc_;
  storage::FieldAccessor value_acc_;
  uint64_t population_;
  double z_;
  uint64_t n_ = 0;
  std::map<uint64_t, GroupStats> groups_;
};

}  // namespace msv::sampling

#endif  // MSV_SAMPLING_GROUPED_AGGREGATOR_H_
