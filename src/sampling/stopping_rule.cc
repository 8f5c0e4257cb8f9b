#include "sampling/stopping_rule.h"

#include <cmath>

namespace msv::sampling {

StoppingRule::StoppingRule(Options options)
    : options_(std::move(options)), start_(std::chrono::steady_clock::now()) {}

uint64_t StoppingRule::ElapsedUs() const {
  uint64_t wall = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  if (options_.extra_elapsed_us) wall += options_.extra_elapsed_us();
  return wall;
}

bool StoppingRule::ErrorBoundMet(const Estimate& estimate) const {
  if (options_.rel_error_pct <= 0.0) return false;
  if (estimate.samples < kMinSamples) return false;
  const double denom = std::fabs(estimate.value);
  if (denom == 0.0) return estimate.half_width == 0.0;
  return estimate.half_width <= denom * options_.rel_error_pct / 100.0;
}

StoppingRule::Verdict StoppingRule::Check(const Estimate& estimate) const {
  if (options_.deadline_us > 0 && ElapsedUs() >= options_.deadline_us) {
    return Verdict::kDeadlineHit;
  }
  if (ErrorBoundMet(estimate)) return Verdict::kErrorBoundMet;
  return Verdict::kContinue;
}

}  // namespace msv::sampling
