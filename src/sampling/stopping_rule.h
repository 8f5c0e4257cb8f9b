// Bounded-error / bounded-time stopping rules for online estimation
// (BlinkDB-style `ESTIMATE ... WITHIN 2%` / `WITHIN 500ms` semantics).
//
// The sampling loop that feeds an OnlineAggregator checks the rule after
// every batch:
//
//   * error bound  — stop once the CLT confidence interval's half-width
//     has shrunk to within `rel_error_pct` percent of the point estimate
//     (after a warm-up of kMinSamples, below which the variance
//     estimate and hence the interval are not trustworthy);
//   * time bound   — stop once the query's consumed budget reaches the
//     deadline. The budget is wall-clock time plus whatever extra cost
//     the caller accounts through `extra_elapsed_us` — the executor
//     passes the per-thread modeled-disk-µs delta (io::ThreadDiskBusyUs),
//     so deadlines hold against the simulated disk, where the real wall
//     clock barely moves.
//
// A deadline stop yields a *partial* result: the estimate is still an
// unbiased point estimate with a valid CI over the samples consumed so
// far (every prefix of the stream is a uniform sample), just wider than
// requested. The caller tags it `is_partial` and reports the achieved
// interval.

#ifndef MSV_SAMPLING_STOPPING_RULE_H_
#define MSV_SAMPLING_STOPPING_RULE_H_

#include <chrono>
#include <cstdint>
#include <functional>

#include "sampling/online_aggregator.h"

namespace msv::sampling {

class StoppingRule {
 public:
  /// CLT warm-up: the error bound may not fire below this many samples
  /// (a 2-sample run with s ~ 0 would otherwise stop immediately with a
  /// meaningless interval). Deadlines are not gated — a deadline is a
  /// hard budget.
  static constexpr uint64_t kMinSamples = 30;

  struct Options {
    /// Stop when half_width <= |value| * rel_error_pct / 100. 0 disables
    /// the error bound.
    double rel_error_pct = 0.0;
    /// Stop when ElapsedUs() >= deadline_us. 0 disables the deadline.
    uint64_t deadline_us = 0;
    /// Extra elapsed budget in µs, added to the wall clock — the
    /// executor supplies the per-thread modeled-disk delta here. May be
    /// null.
    std::function<uint64_t()> extra_elapsed_us;
  };

  enum class Verdict {
    kContinue,
    kErrorBoundMet,  ///< CI within the requested relative error
    kDeadlineHit,    ///< budget exhausted; result is partial
  };

  explicit StoppingRule(Options options);

  /// True when either bound is configured (callers skip the per-batch
  /// check entirely otherwise).
  bool active() const {
    return options_.rel_error_pct > 0.0 || options_.deadline_us > 0;
  }

  /// Wall-clock µs since construction plus the caller's extra budget.
  uint64_t ElapsedUs() const;

  /// The per-batch check. The deadline is tested first: a bound met at
  /// the same instant the budget runs out still counts as met only if
  /// the interval qualifies, but an expired budget always stops.
  Verdict Check(const Estimate& estimate) const;

  /// Whether `estimate` satisfies the error bound (ignores the clock).
  /// A zero point estimate with zero half-width qualifies (the exact
  /// answer); a zero point estimate with a positive half-width does not
  /// (relative error is undefined — only the deadline or a full drain
  /// ends such a query).
  bool ErrorBoundMet(const Estimate& estimate) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace msv::sampling

#endif  // MSV_SAMPLING_STOPPING_RULE_H_
