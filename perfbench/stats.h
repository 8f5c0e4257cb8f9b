// Order statistics for the benchmark's latency samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile `pct` (0..100) of `values`, interpolating linearly between
/// the two closest ranks. NaN for an empty sample.
double Percentile(std::vector<double> values, double pct);

double Median(std::vector<double> values);

/// The percentile rule for tail latency: the highest entry of `ladder`
/// (given in descending order) that leaves at least `min_beyond` of `n`
/// samples above it, i.e. n * (100 - p) / 100 >= min_beyond. Returns 0
/// when even the lowest entry is unsupported.
double HighestSupportedPercentile(size_t n,
                                  const std::vector<double>& ladder = {99, 95,
                                                                       90, 75,
                                                                       50},
                                  size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
