// Online aggregation over a SampleStream (Hellerstein, Haas & Wang style).
//
// Consumes an online random sample and maintains running estimates of
// SUM / AVG / COUNT of an expression over all records matching the query,
// together with CLT-based confidence intervals. This is the paper's primary
// motivating application (Sec. 1): with an online sample, the interval
// shrinks continuously and is valid at every instant.
//
// The aggregated expression is a compiled storage::FieldAccessor (offset
// + kind enum); the MSVQL executor compiles its column references down to
// one (DESIGN.md §15). Consume() folds a whole SampleBatch at once —
// batch moments with chain-free independent accumulators, then one Chan
// merge into the running state — instead of a per-record Welford divide.

#ifndef MSV_SAMPLING_ONLINE_AGGREGATOR_H_
#define MSV_SAMPLING_ONLINE_AGGREGATOR_H_

#include <cstdint>

#include "sampling/sample_stream.h"
#include "storage/record_view.h"
#include "util/result.h"
#include "util/stats.h"

namespace msv::sampling {

/// A point estimate with a symmetric confidence half-width.
struct Estimate {
  double value = 0.0;
  double half_width = 0.0;  ///< +/- at the configured confidence level
  uint64_t samples = 0;

  double lo() const { return value - half_width; }
  double hi() const { return value + half_width; }
};

/// Streaming AVG/SUM estimator over matching records.
class OnlineAggregator {
 public:
  /// `accessor` is the compiled form of the aggregated expression (e.g.
  /// AMOUNT at its record offset). `population` is the number of records
  /// matching the query (the ACE tree's internal-node counts provide it,
  /// per Sec. 3.2 of the paper); required for SUM and COUNT-style
  /// scale-up, not for AVG.
  OnlineAggregator(storage::FieldAccessor accessor, uint64_t population,
                   double confidence = 0.95);

  /// Folds every record of a batch into the estimate.
  void Consume(const SampleBatch& batch);

  /// Current AVG estimate with CLT confidence interval.
  Estimate Avg() const;

  /// Current SUM estimate (population * running mean), scaled interval.
  Estimate Sum() const;

  uint64_t samples_seen() const { return stats_.count(); }

 private:
  /// Emits an `estimate` trace event (samples, avg, ci half-width) on the
  /// active span whenever the sample count crosses the next step of a
  /// 1-2-5 ladder, so an EXPLAIN ANALYZE trace shows the interval
  /// shrinking as the stream progresses.
  void MaybeEmitCheckpoint();

  storage::FieldAccessor accessor_;
  uint64_t population_;
  double z_;
  RunningStats stats_;
  uint64_t next_checkpoint_ = 10;
};

}  // namespace msv::sampling

#endif  // MSV_SAMPLING_ONLINE_AGGREGATOR_H_
