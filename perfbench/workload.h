// Pieces the three workloads share: run configuration, the report that
// becomes the benchmark's output, the read-statement mixes, the exact
// oracle the answers are checked against, set-up, and the closed loop
// that drives read statements through an in-process Executor.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "counting_env.h"
#include "io/env.h"
#include "query/executor.h"
#include "span_log.h"
#include "util/random.h"
#include "util/result.h"

namespace perfbench {

/// SALE's day attribute is drawn from [0, kDayDomain).
inline constexpr double kDayDomain = 100000.0;
/// Every workload creates table `sale` and view `v`; the Executor keeps
/// them in these Env files (the view's files all start with its name).
inline constexpr const char* kTableFile = "tbl.sale";
inline constexpr const char* kViewFile = "view.v";
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;
/// Mixed into the run's seed for the warm-up statements, so they differ
/// from the measured ones.
inline constexpr uint64_t kWarmupSeed = 0x5eed;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for files and the trace
};

/// How the statements of a loop ended. A failed statement is one that
/// returned an error, was refused as overload, or lost its connection.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t overloads = 0;
  uint64_t lost_connections = 0;

  uint64_t failed() const { return errors + overloads + lost_connections; }
  void Add(const Outcomes& o);
};

/// Metrics and output checks of one run; printed as the benchmark's
/// result.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (the run is then not correct).
  void CheckFailed(const std::string& what);
  void AddOutcomes(const Outcomes& o) { outcomes_.Add(o); }

  bool correct() const { return check_failures_ == 0; }

  /// Prints one line per metric, then the result as one JSON line.
  void Print(const RunConfig& config) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  Outcomes outcomes_;
  uint64_t check_failures_ = 0;
  std::vector<std::string> first_failures_;
};

// ---------------------------------------------------------------------------
// Read statements
// ---------------------------------------------------------------------------

enum class ReadKind {
  kEstimate256,    ///< ESTIMATE AVG(amount) ... SAMPLES 256
  kEstimateWithin, ///< ESTIMATE AVG(amount) ... WITHIN 5%
  kSample100,      ///< SAMPLE ... LIMIT 100
  kDrain,          ///< ESTIMATE AVG(amount) ... drained to completion
};

struct ReadStmt {
  ReadKind kind = ReadKind::kEstimate256;
  double lo = 0.0;
  double hi = 0.0;
  std::string text;

  /// Rows the statement asks for; UINT64_MAX when a bound or the end of
  /// the stream decides.
  uint64_t limit() const;
};

/// One entry of a statement mix: the kind and the width of its day range.
struct MixEntry {
  ReadKind kind;
  double width;
};

/// An endless, seed-determined sequence of read statements cycling
/// through `pattern`; each range start is drawn uniformly so the range
/// fits the day domain. Work per statement depends only on its text and
/// the sampling seed, never on the clock.
class ReadMix {
 public:
  ReadMix(uint64_t seed, std::vector<MixEntry> pattern)
      : rng_(seed), pattern_(std::move(pattern)) {}
  ReadStmt Next();
  std::vector<ReadStmt> Take(size_t n);

 private:
  msv::Pcg64 rng_;
  std::vector<MixEntry> pattern_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Oracle and answer checks
// ---------------------------------------------------------------------------

/// Exact answers from a scan of the table file: sorted days with prefix
/// sums of amount, so a range's count and AVG(amount) are two binary
/// searches.
class Oracle {
 public:
  static msv::Result<Oracle> Scan(msv::io::Env* env, const std::string& file);

  uint64_t Count(double lo, double hi) const;
  double Avg(double lo, double hi) const;

 private:
  std::pair<size_t, size_t> Range(double lo, double hi) const;

  std::vector<double> days_;
  std::vector<long double> prefix_;  ///< prefix_[i]: amount sum of days_[<i]
};

/// Checks one answer against the oracle and returns the sampled rows it
/// delivered. With `count_is_floor` the oracle count is a lower bound
/// (rows were inserted after the table was scanned).
msv::Result<uint64_t> CheckAnswer(const ReadStmt& stmt,
                                  const std::string& output,
                                  const Oracle& oracle, bool count_is_floor);

// ---------------------------------------------------------------------------
// Set-up, loops and end-to-end metrics
// ---------------------------------------------------------------------------

/// A set-up database: a base Env, the counting Env over it and an
/// Executor on that (destroyed in reverse order).
struct Database {
  std::unique_ptr<msv::io::Env> base;
  std::unique_ptr<CountingEnv> env;
  std::unique_ptr<msv::query::Executor> executor;
};

using EnvFactory = std::function<msv::Result<std::unique_ptr<msv::io::Env>>()>;

/// Sets up a database kSetupReps times, each on a fresh Env from
/// `new_env` once the previous database is gone: GENERATE TABLE, CREATE
/// MATERIALIZED SAMPLE VIEW ... INDEX ON day, then the `warmup`
/// statements. Reports the medians setup_s, relation.generate_s and
/// core.build_s, and returns the last database.
msv::Result<std::unique_ptr<Database>> SetUpDatabase(
    const EnvFactory& new_env, uint64_t rows, uint64_t seed,
    const std::vector<ReadStmt>& warmup, Report* report);

/// A fresh id for a statement's spans (unique across threads).
uint64_t NextStatementId();

struct LoopStats {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  uint64_t rows = 0;           ///< sampled rows delivered by reads
  uint64_t inserted_rows = 0;  ///< rows of acknowledged INSERTs
  Outcomes outcomes;
  double elapsed_s = 0.0;
  /// Read statements executed while traced, with their statement ids.
  std::vector<std::pair<uint64_t, ReadStmt>> traced_reads;

  void Add(const LoopStats& o);
};

/// Closed loop of read statements from `mix` through Executor::Run for
/// `seconds`, checking each answer. `log` (nullable) receives one span
/// per statement.
LoopStats RunReadLoop(msv::query::Executor* executor, ReadMix* mix,
                      const Oracle& oracle, bool count_is_floor,
                      double seconds, SpanLog* log, Report* report);

/// A workload's measured loop: runs for `seconds`, recording spans into
/// `log` when it is not null.
using Loop =
    std::function<msv::Result<LoopStats>(double seconds, SpanLog* log)>;

/// The measured part of a run. Untraced, `loop` runs for the whole run and
/// its end-to-end metrics are reported. Traced, it runs S/2 untraced and
/// then S/2 traced into `log` while `env` counts, and the traced half's
/// per-layer counters and the tracing overhead are reported. Returns the
/// last loop's stats, whose traced_reads the probes replay.
msv::Result<LoopStats> RunMeasured(const RunConfig& config, CountingEnv* env,
                                   SpanLog* log, const Loop& loop,
                                   Report* report);

/// Bytes of all files in `env` divided by the bytes of the
/// `user_records` records they hold.
msv::Result<double> SpaceAmp(msv::io::Env* env, uint64_t user_records);

/// Waits until the view stored under `view_file` has exactly one base
/// generation and no compaction scratch or temporary file, and the file
/// set has stayed that way across several compactor polls, i.e.
/// compaction is idle.
msv::Status WaitForCompactionIdle(msv::io::Env* env,
                                  const std::string& view_file);

/// Peak resident set size of this process in MB.
double PeakRssMb();

// The workloads (one file each). Each sets up, runs and checks, and
// reports its metrics; an error Status means the run could not complete.
msv::Status RunServeMix(const RunConfig& config, Report* report);
msv::Status RunDrainPosix(const RunConfig& config, Report* report);
msv::Status RunIngestMixed(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
