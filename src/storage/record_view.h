// Zero-copy views over densely packed fixed-size records, and the
// compiled field accessor that replaces per-record std::function /
// virtual dispatch on the aggregation hot path.
//
// A RecordSpan is {ptr, count}: `count` records of a known record_size
// laid out back to back, typically inside a pinned buffer-pool frame, a
// leaf section, or an arena slab. It never owns its bytes — lifetime is
// the caller's contract (the combine engine ties span lifetime to its
// per-query arena; see DESIGN.md §15).
//
// A FieldAccessor is the "compiled" form of an aggregation expression:
// an offset plus a kind enum, fully inlineable, so consuming a whole
// SampleBatch is a tight load loop instead of one indirect call per
// record. It is the only way the aggregators read a record.

#ifndef MSV_STORAGE_RECORD_VIEW_H_
#define MSV_STORAGE_RECORD_VIEW_H_

#include <cstddef>
#include <cstdint>

#include "util/coding.h"

namespace msv::storage {

/// A non-owning view of `count` densely packed records.
struct RecordSpan {
  const char* data = nullptr;
  size_t count = 0;

  bool empty() const { return count == 0; }
};

/// Inlineable record-field extractor: offset + kind, no indirection.
struct FieldAccessor {
  enum class Kind : uint8_t {
    kDouble = 0,   ///< IEEE-754 binary64 at `offset`
    kUint64 = 1,   ///< little-endian u64 at `offset`, converted to double
    kConstOne = 2  ///< ignores the record; yields 1.0 (COUNT-style)
  };

  Kind kind = Kind::kConstOne;
  uint32_t offset = 0;

  static FieldAccessor Double(size_t off) {
    return FieldAccessor{Kind::kDouble, static_cast<uint32_t>(off)};
  }
  static FieldAccessor Uint64(size_t off) {
    return FieldAccessor{Kind::kUint64, static_cast<uint32_t>(off)};
  }
  static FieldAccessor ConstOne() { return FieldAccessor{}; }

  double Load(const char* rec) const {
    switch (kind) {
      case Kind::kDouble:
        return DecodeDouble(rec + offset);
      case Kind::kUint64:
        return static_cast<double>(DecodeFixed64(rec + offset));
      case Kind::kConstOne:
        return 1.0;
    }
    return 0.0;
  }

  /// Raw u64 load (GROUP BY keys). Only meaningful for kUint64; kDouble
  /// truncates through static_cast<uint64_t>.
  uint64_t LoadU64(const char* rec) const {
    switch (kind) {
      case Kind::kUint64:
        return DecodeFixed64(rec + offset);
      case Kind::kDouble:
        return static_cast<uint64_t>(DecodeDouble(rec + offset));
      case Kind::kConstOne:
        return 1;
    }
    return 0;
  }
};

}  // namespace msv::storage

#endif  // MSV_STORAGE_RECORD_VIEW_H_
