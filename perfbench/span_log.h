// In-memory span recorder for the benchmark's traced run.
//
// The benchmark times calls into each layer's public functions from its
// own code. Every timed call is a span: name, start, end, the span that
// caused it and the statement it belongs to. Spans are kept in memory
// and written out as one JSON document when the run ends, so recording
// costs a clock read and a vector append, never file I/O.

#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/sync.h"

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t stmt = 0;    ///< statement the span belongs to
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A span's self time: its duration minus the part of [start, end) that
/// at least one child covers. Children may overlap each other (work
/// fanned out to several threads) and are clipped to the parent.
int64_t SelfTimeNs(const SpanRecord& span,
                   const std::vector<SpanRecord>& children);

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Nanoseconds since the log was created (the spans' time base).
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Opens a span on the calling thread. Its parent is the thread's
  /// innermost open span; `stmt` 0 inherits that parent's statement.
  uint64_t Begin(const char* name, uint64_t stmt) MSV_EXCLUDES(mu_);
  /// Closes span `id`, which must be the thread's innermost open span.
  void End(uint64_t id) MSV_EXCLUDES(mu_);

  /// Records a finished span whose interval was measured elsewhere (for
  /// requests that overlap on one thread, such as pipelined clients).
  uint64_t Record(const char* name, uint64_t stmt, uint64_t parent,
                  int64_t start_ns, int64_t end_ns) MSV_EXCLUDES(mu_);

  std::vector<SpanRecord> Snapshot() const MSV_EXCLUDES(mu_);

  /// Writes every span as a JSON array of objects to `path`.
  msv::Status WriteJson(const std::string& path) const MSV_EXCLUDES(mu_);

 private:
  const std::chrono::steady_clock::time_point origin_;
  mutable msv::Mutex mu_;
  std::vector<SpanRecord> spans_ MSV_GUARDED_BY(mu_);  // spans_[id - 1]
};

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t stmt = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, stmt) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Per-statement totals over a span snapshot.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<SpanRecord> spans);

  /// For every statement with at least one span named `name`: the sum of
  /// those spans' durations, or of their self times when `self_time`.
  std::map<uint64_t, int64_t> SumByStatement(const std::string& name,
                                             bool self_time) const;

 private:
  std::vector<SpanRecord> spans_;
  std::map<uint64_t, std::vector<SpanRecord>> children_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
