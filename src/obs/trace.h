// Span-based query tracer.
//
// A Span is a scoped RAII handle: StartSpan() opens it as a child of the
// innermost still-open span, End() (or the destructor) closes it.
// While a span is open it can collect string attributes, explicit metric
// values, and named point-in-time events (e.g. online-aggregation CI
// snapshots). At close the tracer additionally records the delta of
// every registry counter that moved while the span was open — simulated
// disk µs, pages read, buffer hits/misses, samples emitted — so callers
// get per-phase I/O cost accounting without any per-layer plumbing.
//
// The finished trace renders as a human-readable tree (the EXPLAIN
// ANALYZE report) or as JSON (the MSV_TRACE=path.json export).
//
// Threading: a Tracer and its spans belong to one thread — the query
// execution path is single-threaded. The registry counters a span reads
// are concurrently updated elsewhere; deltas are relaxed-atomic reads.

#ifndef MSV_OBS_TRACE_H_
#define MSV_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace msv::obs {

class Tracer;

/// One finished span, in creation (pre-)order.
struct SpanRecord {
  uint64_t id = 0;      ///< 1-based creation order
  uint64_t parent = 0;  ///< 0 for roots
  uint32_t depth = 0;
  std::string name;
  uint64_t wall_us = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
  /// Explicit AddMetric() values first, then non-zero registry counter
  /// deltas in registry (sorted-name) order.
  std::vector<std::pair<std::string, double>> metrics;
  struct Event {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;
  };
  std::vector<Event> events;
};

/// Movable RAII handle over an open span. A default-constructed (or
/// moved-from, or dropped) Span is inert: every method is a no-op.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { End(); }

  void AddAttr(const std::string& key, const std::string& value);
  void AddAttr(const std::string& key, uint64_t value);
  /// Explicit metric on this span (in addition to auto counter deltas).
  void AddMetric(const std::string& name, double value);
  /// Closes this span; any still-open descendants are closed first.
  void End();

  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, uint64_t id) : tracer_(tracer), id_(id) {}

  Tracer* tracer_ = nullptr;
  uint64_t id_ = 0;
};

class Tracer {
 public:
  /// Spans recorded per tracer; later StartSpan() calls are dropped.
  static constexpr size_t kMaxSpans = 100000;

  /// Spans capture counter deltas from `registry` (Global() if null).
  explicit Tracer(MetricRegistry* registry = nullptr);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span as a child of the innermost open span. Past kMaxSpans
  /// the returned handle is inert and dropped_spans() grows.
  Span StartSpan(std::string name);

  /// Point-in-time event on the innermost open span (no-op when none).
  void AddEvent(const std::string& name,
                std::vector<std::pair<std::string, double>> fields);

  /// Finished records in creation (pre-)order. Spans still open are not
  /// included until ended.
  const std::vector<SpanRecord>& spans() const { return records_; }
  size_t open_spans() const { return open_.size(); }
  size_t dropped_spans() const { return dropped_; }

  /// Indented tree, one line per span:
  ///   name key=val .. [metric=123 ..] (wall 456 us)
  /// `include_wall` off gives byte-stable output for golden tests.
  std::string ToTree(bool include_wall = true) const;
  Json ToJson() const;

  /// Innermost-open-span tracer for the current thread, or nullptr.
  /// Instrumented layers use this to attach spans/events without
  /// threading a Tracer through every signature.
  static Tracer* Active();

 private:
  friend class Span;
  friend class ScopedTracer;

  struct OpenSpan {
    size_t record_index = 0;
    uint64_t id = 0;
    std::chrono::steady_clock::time_point start;
    /// Counter values at open, keyed by registry pointer (stable for
    /// the registry's lifetime). Counters registered while the span is
    /// open are absent and treated as baseline 0 — they were created at
    /// zero inside the span, so their full value is the span's delta.
    std::vector<std::pair<Counter*, uint64_t>> baseline;
  };

  void EndSpan(uint64_t id);
  void RefreshCounterCache();

  MetricRegistry* registry_;
  uint64_t next_id_ = 1;
  size_t dropped_ = 0;
  uint64_t counters_version_ = ~uint64_t{0};
  std::vector<std::pair<std::string, Counter*>> counters_;
  std::vector<SpanRecord> records_;
  std::vector<OpenSpan> open_;
};

/// Installs `tracer` as Tracer::Active() for the current scope.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* tracer);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* prev_;
};

/// Labels the current thread for tracing: while the label is non-empty,
/// every span the thread opens carries a `thread=<label>` attribute.
/// Background threads (the server's workers, the view compactor, the
/// metrics poller) label themselves so a merged trace stays
/// attributable. Pass "" to clear.
void SetThreadLabel(std::string label);
/// The current thread's label ("" when unlabelled).
const std::string& ThreadLabel();

/// Span on the active tracer; inert handle when no tracer is installed.
Span StartTraceSpan(std::string name);

/// Event on the active tracer's innermost open span; no-op otherwise.
void AddTraceEvent(const std::string& name,
                   std::vector<std::pair<std::string, double>> fields);

/// If the environment variable MSV_TRACE names a file, appends
/// tracer->ToJson() as one compact line. Returns true if a line was
/// written.
bool ExportTraceIfRequested(const Tracer& tracer);

}  // namespace msv::obs

#endif  // MSV_OBS_TRACE_H_
