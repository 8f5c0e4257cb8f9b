// Structured, leveled, thread-safe logging plus the slow-query ledger.
//
// Three layers:
//
//  1. StructuredLogger — the process logger every diagnostic routes
//     through. It installs itself as util/logging's LogSinkFn at
//     static-init time (any binary linking msv_obs gets it), so the
//     existing MSV_LOG(...) << ... call sites keep working unchanged
//     while gaining: a JSON-lines file sink (MSV_LOG_FILE or
//     OpenJsonSink), per-site rate limiting (a runaway loop logging
//     every iteration cannot flood the sink: at most kSiteLimit records
//     per file:line per second), and structured key=value
//     fields via LogEvent(). MSV_LOG_LEVEL=debug|info|warn|error sets
//     the global threshold at startup.
//
//  2. SlowQueryLog — a ring of the kCapacity most recent per-statement
//     cost records
//     (wall µs, modeled disk µs, ACE leaves read, samples drawn,
//     final CI half-width, session label) that the executor appends to
//     whenever a statement's wall time crosses the armed threshold
//     (MSV_SLOW_QUERY_US, or set_threshold_us in-process). Disarmed
//     cost: one relaxed atomic load per statement.
//
//  3. StatementLedger — a thread-local scratchpad the execution layer
//     fills in (samples emitted, leaves read, CI width reached) so the
//     slow-query record can carry statistics the executor's dispatch
//     loop doesn't otherwise see. Reset at statement start by the
//     executor.

#ifndef MSV_OBS_LOG_H_
#define MSV_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "util/logging.h"
#include "util/sync.h"

namespace msv::obs {

/// One structured field: string key, Json value (string/number/bool).
using LogFields = std::vector<std::pair<std::string, Json>>;

class StructuredLogger {
 public:
  /// The process-wide logger. First use applies MSV_LOG_LEVEL /
  /// MSV_LOG_FILE and installs the util/logging sink (idempotent).
  static StructuredLogger& Global();

  /// Emits one record: a human-readable line on stderr (same
  /// "[LEVEL file:line] message" shape the default sink prints, with
  /// " key=value" appended per field) and, when a JSON sink is open,
  /// one JSON object line {"ts_us","level","site","msg",...fields}.
  /// Level filtering happened at the MSV_LOG macro; LogEvent callers
  /// are filtered here against msv::GetLogLevel().
  void Log(LogLevel level, const char* file, int line,
           const std::string& message, const LogFields& fields = {});

  /// Opens (append) the JSON-lines sink; replaces any open one.
  Status OpenJsonSink(const std::string& path);
  void CloseJsonSink();
  bool json_sink_open() const;

  /// Per-site flood control: at most kSiteLimit records per site
  /// (file:line) per kSiteWindowUs; further records are dropped and
  /// accounted, and the first record of the next window carries a
  /// "suppressed=N" field.
  static constexpr uint64_t kSiteLimit = 100;
  static constexpr uint64_t kSiteWindowUs = 1000000;

  /// Drops per-site rate-limiter state (tests).
  void ResetSites();

  uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

 private:
  StructuredLogger() = default;

  struct SiteState {
    uint64_t window_start_us = 0;
    uint64_t count = 0;
    uint64_t suppressed = 0;
  };

  /// Returns false when the record should be dropped; *carry_suppressed
  /// reports how many drops from the previous window to surface.
  bool AdmitSite(const std::string& site, uint64_t now_us,
                 uint64_t* carry_suppressed);

  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> suppressed_{0};

  mutable Mutex mu_;
  std::map<std::string, SiteState> sites_ MSV_GUARDED_BY(mu_);
  /// JSON sink: FILE* kept behind the mutex so concurrent writers
  /// produce whole lines.
  std::FILE* json_file_ MSV_GUARDED_BY(mu_) = nullptr;
};

/// Ensures the structured logger is installed as the MSV_LOG sink and
/// env configuration applied. Idempotent, cheap after the first call.
/// Linked-in static init already calls it; tools may call it explicitly
/// to be robust against static-initialization elision.
void InitLogging();

/// Structured emission helper for call sites that have fields:
///   obs::LogEvent(LogLevel::kWarn, __FILE__, __LINE__, "pool stall",
///                 {{"pages", 42}, {"session", label}});
void LogEvent(LogLevel level, const char* file, int line,
              const std::string& message, const LogFields& fields);

// ---------------------------------------------------------------------------
// Slow-query ledger
// ---------------------------------------------------------------------------

struct SlowQueryRecord {
  uint64_t ts_us = 0;        ///< wall clock (system_clock since epoch)
  uint64_t wall_us = 0;      ///< statement wall time
  uint64_t disk_us = 0;      ///< modeled disk busy time on this thread
  uint64_t leaves = 0;       ///< ACE leaves read (from the StatementLedger)
  uint64_t samples = 0;      ///< samples drawn (from the StatementLedger)
  double ci_half_width = 0;  ///< final CI half-width (0 when n/a)
  std::string statement;     ///< statement kind ("estimate", "sample", ...)
  std::string session;       ///< obs::ThreadLabel() at execution time
  bool ok = true;
  std::string error;         ///< status message when !ok

  Json ToJson() const;
};

/// Bounded MPMC ring of the most recent slow statements. Arming is a
/// relaxed atomic threshold so the disarmed hot path costs one load.
class SlowQueryLog {
 public:
  /// Records kept; older ones are evicted.
  static constexpr size_t kCapacity = 128;

  static SlowQueryLog& Global();

  /// Applies MSV_SLOW_QUERY_US (unset/empty/0 = disarmed). Called by
  /// the executor at Open so serving picks the env up automatically.
  void ArmFromEnv();

  void set_threshold_us(uint64_t us) {
    threshold_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t threshold_us() const {
    return threshold_us_.load(std::memory_order_relaxed);
  }
  bool armed() const { return threshold_us() != 0; }

  /// Appends, evicting the oldest record once full. Also mirrors the
  /// record onto the structured logger at Warn level.
  void Record(SlowQueryRecord rec);

  /// Oldest-first copy of the ring.
  std::vector<SlowQueryRecord> Snapshot() const;
  size_t size() const;
  void Clear();

  /// Total records ever admitted (survives ring eviction).
  uint64_t total_recorded() const {
    return total_.load(std::memory_order_relaxed);
  }

  Json ToJson() const;

 private:
  std::atomic<uint64_t> threshold_us_{0};
  std::atomic<uint64_t> total_{0};
  mutable Mutex mu_;
  std::deque<SlowQueryRecord> ring_ MSV_GUARDED_BY(mu_);
};

/// Thread-local per-statement statistics scratchpad (see file comment).
/// The estimate block is filled by the executor's ESTIMATE path so the
/// serving layer can surface a structured result (value, achieved CI,
/// partiality under a WITHIN deadline) without parsing the text output.
struct StatementLedger {
  uint64_t samples = 0;
  /// Leaves the sampler's base partition read (SAMPLE and ESTIMATE).
  uint64_t leaves = 0;
  double ci_half_width = 0.0;

  /// True when the statement produced a point estimate (the fields below
  /// are meaningful).
  bool has_estimate = false;
  double estimate_value = 0.0;
  double confidence = 0.0;
  /// WITHIN targets as parsed (0 = clause absent) ...
  double target_rel_pct = 0.0;
  uint64_t deadline_us = 0;
  /// ... and what happened: budget consumed (wall + modeled disk µs) and
  /// whether a deadline fired before the stream or the error bound was
  /// done (the estimate is then partial: valid CI, wider than asked).
  uint64_t elapsed_us = 0;
  bool is_partial = false;

  void Reset() { *this = StatementLedger(); }
};

StatementLedger& ThreadStatementLedger();

/// Wall clock now, µs since the Unix epoch (system_clock).
uint64_t WallTimeUs();

}  // namespace msv::obs

#endif  // MSV_OBS_LOG_H_
