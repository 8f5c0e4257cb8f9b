#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "obs/metrics.h"
#include "stats.h"
#include "storage/heap_file.h"
#include "storage/record.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Parses the unsigned integer that follows `key` in `text`.
bool FindCount(const std::string& text, const std::string& key,
               uint64_t* value) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  *value = std::strtoull(text.c_str() + at + key.size(), &end, 10);
  return end != text.c_str() + at + key.size();
}

bool FindDouble(const std::string& text, const std::string& key,
                double* value) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  *value = std::strtod(text.c_str() + at + key.size(), &end);
  return end != text.c_str() + at + key.size();
}

std::string Fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

/// Rows an answer must hold: the statement's limit, or the full match
/// count when that is smaller. Under inserts the count is only a floor.
bool RowsAsExpected(uint64_t got, uint64_t limit, uint64_t count,
                    bool count_is_floor) {
  if (count >= limit) return got == limit;
  return count_is_floor ? (got >= count && got <= limit) : got == count;
}

msv::Result<uint64_t> CheckEstimate(const ReadStmt& stmt,
                                    const std::string& output, uint64_t count,
                                    double exact_avg, bool count_is_floor) {
  double value = 0.0;
  uint64_t samples = 0;
  if (!FindDouble(output, "AVG(amount) = ", &value) ||
      !FindCount(output, "% CI, ", &samples)) {
    return msv::Status::Corruption("unparsable estimate: " + output);
  }
  switch (stmt.kind) {
    case ReadKind::kEstimate256:
      if (!RowsAsExpected(samples, stmt.limit(), count, count_is_floor)) {
        return msv::Status::Corruption(
            "SAMPLES 256 answered with " + std::to_string(samples) +
            " samples, " + std::to_string(count) + " rows match");
      }
      break;
    case ReadKind::kEstimateWithin: {
      double achieved = 0.0;
      const bool met = output.find("% met after ") != std::string::npos &&
                       FindDouble(output, "achieved +/- ", &achieved) &&
                       achieved <= 5.0 + 1e-4;
      const bool complete =
          output.find("stream complete after ") != std::string::npos &&
          (count_is_floor ? samples >= count : samples == count);
      if (samples == 0 || !(met || complete)) {
        return msv::Status::Corruption("WITHIN 5% not met: " + output);
      }
      break;
    }
    case ReadKind::kDrain:
      if (samples != count) {
        return msv::Status::Corruption(
            "drain returned " + std::to_string(samples) + " rows, " +
            std::to_string(count) + " match");
      }
      // The answer prints 4 decimals; the exact AVG is summed in another
      // order, so allow the print rounding plus a few ulps.
      if (std::fabs(value - exact_avg) > 5e-4 + 1e-12 * std::fabs(value)) {
        return msv::Status::Corruption(
            Fmt("drain AVG %.6f differs from exact AVG %.6f", value,
                exact_avg));
      }
      break;
    case ReadKind::kSample100:
      break;
  }
  return samples;
}

msv::Result<uint64_t> CheckSample(const ReadStmt& stmt,
                                  const std::string& output, uint64_t count,
                                  bool count_is_floor) {
  uint64_t rows = 0;
  uint64_t reported = 0;
  size_t pos = output.find('\n');  // skip the header row
  while (pos != std::string::npos && pos + 1 < output.size()) {
    const char* line = output.c_str() + pos + 1;
    if (*line == '(') {
      if (!FindCount(line, "(", &reported)) {
        return msv::Status::Corruption("unparsable SAMPLE footer");
      }
      break;
    }
    char* end = nullptr;
    const double day = std::strtod(line, &end);
    if (end == line || !(day >= stmt.lo && day <= stmt.hi)) {
      return msv::Status::Corruption(
          Fmt("SAMPLE row outside [%.4f, %.4f]", stmt.lo, stmt.hi) + ": " +
          std::string(line, std::strcspn(line, "\n")));
    }
    ++rows;
    pos = output.find('\n', pos + 1);
  }
  if (rows != reported ||
      !RowsAsExpected(rows, stmt.limit(), count, count_is_floor)) {
    return msv::Status::Corruption("SAMPLE LIMIT 100 returned " +
                                   std::to_string(rows) + " rows, " +
                                   std::to_string(count) + " match");
  }
  return rows;
}

std::atomic<uint64_t> g_next_statement{1};

}  // namespace

void Outcomes::Add(const Outcomes& o) {
  attempted += o.attempted;
  errors += o.errors;
  overloads += o.overloads;
  lost_connections += o.lost_connections;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::CheckFailed(const std::string& what) {
  ++check_failures_;
  if (first_failures_.size() < 5) first_failures_.push_back(what);
}

void Report::Print(const RunConfig& config) const {
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              config.workload.c_str(), config.seed, config.seconds,
              config.trace ? 1 : 0);
  for (const Entry& m : metrics_) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // A metric without samples (NaN) is left out of the JSON line, so a
  // caller expecting it sees it missing rather than a fabricated value.
  const Outcomes& o = outcomes_;
  std::printf(
      "  statements attempted=%" PRIu64 " failed=%" PRIu64
      " (errors=%" PRIu64 " overloads=%" PRIu64 " lost_connections=%" PRIu64
      ") failed_share=%.6f\n",
      o.attempted, o.failed(), o.errors, o.overloads, o.lost_connections,
      o.attempted ? static_cast<double>(o.failed()) / o.attempted : 0.0);
  std::printf("  output checks failed=%" PRIu64 "\n", check_failures_);
  for (const std::string& f : first_failures_) {
    std::printf("    check failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct() ? "true" : "false", o.attempted, o.failed());
  const char* sep = "";
  for (const Entry& m : metrics_) {
    if (!std::isfinite(m.value)) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Read statements
// ---------------------------------------------------------------------------

uint64_t ReadStmt::limit() const {
  switch (kind) {
    case ReadKind::kEstimate256:
      return 256;
    case ReadKind::kSample100:
      return 100;
    default:
      return std::numeric_limits<uint64_t>::max();
  }
}

ReadStmt ReadMix::Next() {
  const MixEntry& e = pattern_[next_++ % pattern_.size()];
  // Whole-number bounds keep the statement text exact.
  const double lo = static_cast<double>(
      rng_.Below(static_cast<uint64_t>(kDayDomain - e.width) + 1));
  ReadStmt s{e.kind, lo, lo + e.width, ""};
  const std::string where =
      Fmt(" FROM v WHERE day BETWEEN %.0f AND %.0f", s.lo, s.hi);
  switch (s.kind) {
    case ReadKind::kEstimate256:
      s.text = "ESTIMATE AVG(amount)" + where + " SAMPLES 256;";
      break;
    case ReadKind::kEstimateWithin:
      s.text = "ESTIMATE AVG(amount)" + where + " WITHIN 5%;";
      break;
    case ReadKind::kSample100:
      s.text = "SAMPLE" + where + " LIMIT 100;";
      break;
    case ReadKind::kDrain:
      // More samples than the table has rows: the stream runs to its end.
      s.text = "ESTIMATE AVG(amount)" + where + " SAMPLES 1000000000;";
      break;
  }
  return s;
}

std::vector<ReadStmt> ReadMix::Take(size_t n) {
  std::vector<ReadStmt> out;
  for (size_t i = 0; i < n; ++i) out.push_back(Next());
  return out;
}

// ---------------------------------------------------------------------------
// Oracle and answer checks
// ---------------------------------------------------------------------------

msv::Result<Oracle> Oracle::Scan(msv::io::Env* env, const std::string& file) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<msv::storage::HeapFile> heap,
                       msv::storage::HeapFile::Open(env, file));
  std::vector<std::pair<double, double>> rows;
  rows.reserve(heap->record_count());
  auto scanner = heap->NewScanner();
  for (;;) {
    MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
    if (rec == nullptr) break;
    const auto r = msv::storage::SaleRecord::DecodeFrom(rec);
    rows.emplace_back(r.day, r.amount);
  }
  std::sort(rows.begin(), rows.end());
  Oracle o;
  o.days_.reserve(rows.size());
  o.prefix_.reserve(rows.size() + 1);
  o.prefix_.push_back(0.0L);
  for (const auto& [day, amount] : rows) {
    o.days_.push_back(day);
    o.prefix_.push_back(o.prefix_.back() + amount);
  }
  return o;
}

std::pair<size_t, size_t> Oracle::Range(double lo, double hi) const {
  const auto first = std::lower_bound(days_.begin(), days_.end(), lo);
  const auto last = std::upper_bound(days_.begin(), days_.end(), hi);
  return {static_cast<size_t>(first - days_.begin()),
          static_cast<size_t>(last - days_.begin())};
}

uint64_t Oracle::Count(double lo, double hi) const {
  const auto [first, last] = Range(lo, hi);
  return last - first;
}

double Oracle::Avg(double lo, double hi) const {
  const auto [first, last] = Range(lo, hi);
  if (last == first) return 0.0;
  return static_cast<double>((prefix_[last] - prefix_[first]) /
                             static_cast<long double>(last - first));
}

msv::Result<uint64_t> CheckAnswer(const ReadStmt& stmt,
                                  const std::string& output,
                                  const Oracle& oracle, bool count_is_floor) {
  const uint64_t count = oracle.Count(stmt.lo, stmt.hi);
  if (stmt.kind == ReadKind::kSample100) {
    return CheckSample(stmt, output, count, count_is_floor);
  }
  const double exact =
      stmt.kind == ReadKind::kDrain ? oracle.Avg(stmt.lo, stmt.hi) : 0.0;
  return CheckEstimate(stmt, output, count, exact, count_is_floor);
}

// ---------------------------------------------------------------------------
// Set-up, loops and end-to-end metrics
// ---------------------------------------------------------------------------

msv::Result<std::unique_ptr<Database>> SetUpDatabase(
    const EnvFactory& new_env, uint64_t rows, uint64_t seed,
    const std::vector<ReadStmt>& warmup, Report* report) {
  std::vector<double> total, generate, build;
  std::unique_ptr<Database> db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    db = std::make_unique<Database>();
    MSV_ASSIGN_OR_RETURN(db->base, new_env());
    db->env = std::make_unique<CountingEnv>(db->base.get());
    MSV_ASSIGN_OR_RETURN(db->executor,
                         msv::query::Executor::Open(db->env.get()));
    const auto start = Clock::now();
    MSV_RETURN_IF_ERROR(db->executor
                            ->Run("GENERATE TABLE sale ROWS " +
                                  std::to_string(rows) + " SEED " +
                                  std::to_string(seed) + ";")
                            .status());
    generate.push_back(SecondsSince(start));
    const auto built = Clock::now();
    MSV_RETURN_IF_ERROR(
        db->executor
            ->Run("CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
                  "INDEX ON day;")
            .status());
    build.push_back(SecondsSince(built));
    for (const ReadStmt& s : warmup) {
      MSV_RETURN_IF_ERROR(db->executor->Run(s.text).status());
    }
    total.push_back(SecondsSince(start));
  }
  report->Metric("setup_s", Median(total), "s");
  report->Metric("relation.generate_s", Median(generate), "s");
  report->Metric("core.build_s", Median(build), "s");
  return db;
}

uint64_t NextStatementId() { return g_next_statement.fetch_add(1); }

void LoopStats::Add(const LoopStats& o) {
  read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
  write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
  rows += o.rows;
  inserted_rows += o.inserted_rows;
  outcomes.Add(o.outcomes);
  elapsed_s = std::max(elapsed_s, o.elapsed_s);
  traced_reads.insert(traced_reads.end(), o.traced_reads.begin(),
                      o.traced_reads.end());
}

LoopStats RunReadLoop(msv::query::Executor* executor, ReadMix* mix,
                      const Oracle& oracle, bool count_is_floor,
                      double seconds, SpanLog* log, Report* report) {
  LoopStats stats;
  const auto start = Clock::now();
  while (SecondsSince(start) < seconds) {
    const ReadStmt stmt = mix->Next();
    const uint64_t id = NextStatementId();
    const auto sent = Clock::now();
    msv::Result<std::string> out = [&] {
      ScopedSpan span(log, "stmt.read", id);
      return executor->Run(stmt.text);
    }();
    const double ms = MillisSince(sent);
    ++stats.outcomes.attempted;
    if (!out.ok()) {
      ++stats.outcomes.errors;
      report->CheckFailed(stmt.text + " -> " + out.status().ToString());
      continue;
    }
    stats.read_ms.push_back(ms);
    msv::Result<uint64_t> rows =
        CheckAnswer(stmt, *out, oracle, count_is_floor);
    if (!rows.ok()) {
      report->CheckFailed(stmt.text + " -> " + rows.status().ToString());
      continue;
    }
    stats.rows += *rows;
    if (log != nullptr) stats.traced_reads.emplace_back(id, stmt);
  }
  stats.elapsed_s = SecondsSince(start);
  return stats;
}

msv::Result<double> SpaceAmp(msv::io::Env* env, uint64_t user_records) {
  MSV_ASSIGN_OR_RETURN(std::vector<std::string> files, env->ListFiles());
  uint64_t bytes = 0;
  for (const std::string& f : files) {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<msv::io::File> file,
                         env->OpenFile(f, /*create=*/false));
    MSV_ASSIGN_OR_RETURN(uint64_t size, file->Size());
    bytes += size;
  }
  return static_cast<double>(bytes) /
         static_cast<double>(user_records * msv::storage::SaleRecord::kSize);
}

msv::Status WaitForCompactionIdle(msv::io::Env* env,
                                  const std::string& view_file) {
  const std::string prefix = view_file + ".";
  const auto start = Clock::now();
  std::vector<std::string> last;
  int stable = 0;
  while (SecondsSince(start) < 60.0) {
    MSV_ASSIGN_OR_RETURN(std::vector<std::string> files, env->ListFiles());
    std::sort(files.begin(), files.end());
    int bases = 0;
    bool busy = false;
    for (const std::string& f : files) {
      if (f.rfind(prefix, 0) != 0) continue;
      const std::string suffix = f.substr(prefix.size());
      if (suffix.rfind("base.g", 0) == 0) ++bases;
      if (suffix == "scratch" ||
          (suffix.size() > 4 && suffix.compare(suffix.size() - 4, 4, ".tmp") ==
                                    0)) {
        busy = true;
      }
    }
    if (bases == 1 && !busy && files == last) {
      // The compactor polls every 50 ms (and is woken at once when an
      // insert crosses its trigger); a file set unchanged across several
      // of its polls means it has nothing left to do.
      if (++stable >= 10) return msv::Status::OK();
    } else {
      stable = 0;
    }
    last = std::move(files);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  return msv::Status::Internal("compaction of " + view_file +
                               " did not go idle within 60 s");
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Counters the traced half reads at its start and end.
struct CounterSnapshot {
  CountingEnv::Counts io;
  uint64_t leaf_reads = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
};

CounterSnapshot TakeCounters(const CountingEnv& env) {
  msv::obs::MetricRegistry& reg = msv::obs::MetricRegistry::Global();
  CounterSnapshot s;
  s.io = env.counts();
  s.leaf_reads = reg.GetCounter("ace.leaf_reads")->Value();
  s.flushes = reg.GetCounter("ingest.flushes")->Value();
  s.compactions = reg.GetCounter("ingest.compactions")->Value();
  return s;
}

/// read_p50_ms, the tail percentile the sample supports, reads_per_s and
/// rows_per_s; write_p50/p99_ms and inserted_rows_per_s when the loop
/// wrote.
void ReportLoop(const LoopStats& stats, Report* report) {
  const double reads = static_cast<double>(stats.read_ms.size());
  report->Metric("read_p50_ms", Median(stats.read_ms), "ms");
  // The tail percentile the sample supports (>= 10 samples beyond it),
  // capped at p99; none when only the median is supported.
  const double tail = HighestSupportedPercentile(stats.read_ms.size());
  if (tail > 50.0) {
    char name[32];
    std::snprintf(name, sizeof(name), "read_p%g_ms", tail);
    report->Metric(name, Percentile(stats.read_ms, tail), "ms");
  }
  report->Metric("reads", reads, "count");
  report->Metric("reads_per_s", reads / stats.elapsed_s, "1/s");
  report->Metric("rows_per_s",
                 static_cast<double>(stats.rows) / stats.elapsed_s, "1/s");
  if (!stats.write_ms.empty()) {
    report->Metric("write_p50_ms", Median(stats.write_ms), "ms");
    const double wtail = HighestSupportedPercentile(stats.write_ms.size());
    if (wtail > 50.0) {
      char name[32];
      std::snprintf(name, sizeof(name), "write_p%g_ms", wtail);
      report->Metric(name, Percentile(stats.write_ms, wtail), "ms");
    }
    report->Metric("writes", static_cast<double>(stats.write_ms.size()),
                   "count");
    report->Metric("inserted_rows_per_s",
                   static_cast<double>(stats.inserted_rows) / stats.elapsed_s,
                   "1/s");
  }
}

/// Per-layer metrics of the traced half: io.* per read statement,
/// core.leaves_per_read, and the tracing overhead (traced against
/// untraced read_p50_ms). Write-path counters when the half wrote.
void ReportTracedPhase(const CounterSnapshot& before,
                       const CounterSnapshot& after, const LoopStats& untraced,
                       const LoopStats& traced, Report* report) {
  const double reads = std::max<double>(1.0, traced.read_ms.size());
  report->Metric("io.reads",
                 static_cast<double>(after.io.reads - before.io.reads) / reads,
                 "1/read");
  report->Metric(
      "io.read_bytes",
      static_cast<double>(after.io.read_bytes - before.io.read_bytes) / reads,
      "B/read");
  report->Metric(
      "io.read_us",
      static_cast<double>(after.io.read_ns - before.io.read_ns) / 1e3 / reads,
      "us/read");
  report->Metric(
      "core.leaves_per_read",
      static_cast<double>(after.leaf_reads - before.leaf_reads) / reads,
      "1/read");
  const double p50_untraced = Median(untraced.read_ms);
  const double p50_traced = Median(traced.read_ms);
  report->Metric("trace.untraced_read_p50_ms", p50_untraced, "ms");
  report->Metric("trace.traced_read_p50_ms", p50_traced, "ms");
  report->Metric("trace.overhead_ratio", p50_traced / p50_untraced, "ratio");
  if (traced.inserted_rows > 0) {
    const double user_bytes = static_cast<double>(
        traced.inserted_rows * msv::storage::SaleRecord::kSize);
    report->Metric(
        "io.write_bytes_per_user_byte",
        static_cast<double>(after.io.write_bytes - before.io.write_bytes) /
            user_bytes,
        "ratio");
    report->Metric("io.syncs",
                   static_cast<double>(after.io.syncs - before.io.syncs) /
                       static_cast<double>(traced.write_ms.size()),
                   "1/write");
    report->Metric("core.flushes",
                   static_cast<double>(after.flushes - before.flushes),
                   "count");
    report->Metric("core.compactions",
                   static_cast<double>(after.compactions - before.compactions),
                   "count");
  }
}

}  // namespace

msv::Result<LoopStats> RunMeasured(const RunConfig& config, CountingEnv* env,
                                   SpanLog* log, const Loop& loop,
                                   Report* report) {
  if (!config.trace) {
    MSV_ASSIGN_OR_RETURN(LoopStats stats, loop(config.seconds, nullptr));
    report->AddOutcomes(stats.outcomes);
    ReportLoop(stats, report);
    return stats;
  }
  MSV_ASSIGN_OR_RETURN(LoopStats untraced, loop(config.seconds / 2, nullptr));
  env->set_enabled(true);
  const CounterSnapshot before = TakeCounters(*env);
  MSV_ASSIGN_OR_RETURN(LoopStats traced, loop(config.seconds / 2, log));
  const CounterSnapshot after = TakeCounters(*env);
  report->AddOutcomes(untraced.outcomes);
  report->AddOutcomes(traced.outcomes);
  ReportTracedPhase(before, after, untraced, traced, report);
  return traced;
}

}  // namespace perfbench
