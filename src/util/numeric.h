// Checked conversion of untrusted doubles to integers.
//
// MSVQL literals and JSON numbers are doubles. Casting a double outside
// uint64_t's range to uint64_t is undefined behaviour, so every count,
// id or timestamp read from outside input goes through ExactUint, which
// tests the range before it casts.

#ifndef MSV_UTIL_NUMERIC_H_
#define MSV_UTIL_NUMERIC_H_

#include <cmath>
#include <cstdint>
#include <optional>

namespace msv {

/// 2^53: every integer in [0, 2^53] is exactly a double, so it is the
/// largest value a double-typed input carries without rounding. A value
/// this size times 1000 (ms → µs) still fits in a uint64_t.
inline constexpr uint64_t kMaxExactUint = uint64_t{1} << 53;

/// `v` as a uint64_t when it is a finite integer in [0, 2^53]; nullopt
/// for NaN, ±inf, negative, fractional or larger values.
inline std::optional<uint64_t> ExactUint(double v) {
  if (!(v >= 0.0 && v <= static_cast<double>(kMaxExactUint)) ||
      v != std::floor(v)) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(v);
}

}  // namespace msv

#endif  // MSV_UTIL_NUMERIC_H_
