#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double HighestSupportedPercentile(size_t n, const std::vector<double>& ladder,
                                  size_t min_beyond) {
  for (double p : ladder) {
    // The small slack absorbs the representation error of (100 - p) for
    // fractional percentiles such as 99.9.
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return p;
  }
  return 0.0;
}

}  // namespace perfbench
