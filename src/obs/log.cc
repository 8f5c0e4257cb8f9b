#include "obs/log.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace msv::obs {

namespace {

const char* Basename(const char* file) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* LevelNameLower(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "?";
}

/// Compact rendering of a Json scalar for the human "key=value" suffix.
std::string FieldText(const Json& v) {
  if (v.type() == Json::Type::kString) return v.AsString();
  return v.Dump();
}

void SinkTrampoline(LogLevel level, const char* file, int line,
                    const std::string& message) {
  StructuredLogger::Global().Log(level, file, line, message);
}

std::atomic<bool> g_logging_initialized{false};

/// Any binary linking msv_obs routes MSV_LOG through the structured
/// logger from static-init on.
struct LoggingRegistrar {
  LoggingRegistrar() { InitLogging(); }
};
LoggingRegistrar g_logging_registrar;

}  // namespace

uint64_t WallTimeUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

StructuredLogger& StructuredLogger::Global() {
  // Leaked singleton: log statements run in static destructors.
  static StructuredLogger* logger =
      new StructuredLogger();  // NOLINT(msv-naked-new)
  return *logger;
}

void InitLogging() {
  bool expected = false;
  if (!g_logging_initialized.compare_exchange_strong(expected, true)) return;
  // Read-only env lookups; the process never calls setenv concurrently.
  const char* lvl = std::getenv("MSV_LOG_LEVEL");  // NOLINT(concurrency-mt-unsafe)
  if (lvl && *lvl) {
    std::string s = lvl;
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    if (s == "debug") {
      SetLogLevel(LogLevel::kDebug);
    } else if (s == "info") {
      SetLogLevel(LogLevel::kInfo);
    } else if (s == "warn" || s == "warning") {
      SetLogLevel(LogLevel::kWarn);
    } else if (s == "error") {
      SetLogLevel(LogLevel::kError);
    }
  }
  const char* path = std::getenv("MSV_LOG_FILE");  // NOLINT(concurrency-mt-unsafe)
  if (path && *path) {
    // Best-effort: an unopenable path must not take the process down.
    StructuredLogger::Global().OpenJsonSink(path).IgnoreError();
  }
  SetLogSink(&SinkTrampoline);
}

bool StructuredLogger::AdmitSite(const std::string& site, uint64_t now_us,
                                 uint64_t* carry_suppressed) {
  *carry_suppressed = 0;
  MutexLock lock(mu_);
  SiteState& s = sites_[site];
  if (s.window_start_us == 0 || now_us < s.window_start_us ||
      now_us - s.window_start_us >= kSiteWindowUs) {
    *carry_suppressed = s.suppressed;
    s.window_start_us = now_us;
    s.count = 0;
    s.suppressed = 0;
  }
  if (s.count >= kSiteLimit) {
    ++s.suppressed;
    return false;
  }
  ++s.count;
  return true;
}

void StructuredLogger::Log(LogLevel level, const char* file, int line,
                           const std::string& message,
                           const LogFields& fields) {
  const char* base = Basename(file);
  std::string site = std::string(base) + ":" + std::to_string(line);
  uint64_t now_us = WallTimeUs();
  uint64_t carry = 0;
  if (!AdmitSite(site, now_us, &carry)) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  emitted_.fetch_add(1, std::memory_order_relaxed);

  std::string text = "[" + std::string(LevelName(level)) + " " + site + "] " +
                     message;
  for (const auto& [k, v] : fields) {
    text += " " + k + "=" + FieldText(v);
  }
  if (carry > 0) text += " suppressed=" + std::to_string(carry);
  // The one sanctioned raw-stderr write: this IS the logger.
  std::fprintf(stderr, "%s\n", text.c_str());  // NOLINT(msv-raw-logging)

  MutexLock lock(mu_);
  if (!json_file_) return;
  Json rec = Json::Object();
  rec["ts_us"] = now_us;
  rec["level"] = LevelNameLower(level);
  rec["site"] = site;
  rec["msg"] = message;
  for (const auto& [k, v] : fields) {
    rec[k] = v;
  }
  if (carry > 0) rec["suppressed"] = carry;
  std::string out = rec.Dump();
  out.push_back('\n');
  std::fwrite(out.data(), 1, out.size(), json_file_);
  std::fflush(json_file_);
}

Status StructuredLogger::OpenJsonSink(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ae");
  if (!f) {
    return Status::IOError("cannot open log sink " + path);
  }
  MutexLock lock(mu_);
  if (json_file_) std::fclose(json_file_);
  json_file_ = f;
  return Status::OK();
}

void StructuredLogger::CloseJsonSink() {
  MutexLock lock(mu_);
  if (json_file_) {
    std::fclose(json_file_);
    json_file_ = nullptr;
  }
}

bool StructuredLogger::json_sink_open() const {
  MutexLock lock(mu_);
  return json_file_ != nullptr;
}

void StructuredLogger::ResetSites() {
  MutexLock lock(mu_);
  sites_.clear();
}

void LogEvent(LogLevel level, const char* file, int line,
              const std::string& message, const LogFields& fields) {
  if (static_cast<int>(level) < static_cast<int>(GetLogLevel())) return;
  StructuredLogger::Global().Log(level, file, line, message, fields);
}

// ---------------------------------------------------------------------------
// Slow-query ledger
// ---------------------------------------------------------------------------

Json SlowQueryRecord::ToJson() const {
  Json j = Json::Object();
  j["ts_us"] = ts_us;
  j["wall_us"] = wall_us;
  j["disk_us"] = disk_us;
  j["leaves"] = leaves;
  j["samples"] = samples;
  j["ci_half_width"] = ci_half_width;
  j["statement"] = statement;
  j["session"] = session;
  j["ok"] = ok;
  if (!ok) j["error"] = error;
  return j;
}

SlowQueryLog& SlowQueryLog::Global() {
  // Leaked singleton: recorded from executor paths that may run during
  // static destruction of test fixtures.
  static SlowQueryLog* log = new SlowQueryLog();  // NOLINT(msv-naked-new)
  return *log;
}

void SlowQueryLog::ArmFromEnv() {
  // Read-only env lookup; the process never calls setenv concurrently.
  const char* us = std::getenv("MSV_SLOW_QUERY_US");  // NOLINT(concurrency-mt-unsafe)
  if (!us || !*us) return;
  char* end = nullptr;
  unsigned long long v = std::strtoull(us, &end, 10);
  if (end == us) return;
  set_threshold_us(v);
}

void SlowQueryLog::Record(SlowQueryRecord rec) {
  total_.fetch_add(1, std::memory_order_relaxed);
  LogEvent(LogLevel::kWarn, __FILE__, __LINE__, "slow query",
           {{"statement", rec.statement},
            {"session", rec.session},
            {"wall_us", rec.wall_us},
            {"disk_us", rec.disk_us},
            {"leaves", rec.leaves},
            {"samples", rec.samples},
            {"ci_half_width", rec.ci_half_width},
            {"ok", rec.ok}});
  MutexLock lock(mu_);
  ring_.push_back(std::move(rec));
  if (ring_.size() > kCapacity) ring_.pop_front();
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  MutexLock lock(mu_);
  return std::vector<SlowQueryRecord>(ring_.begin(), ring_.end());
}

size_t SlowQueryLog::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

void SlowQueryLog::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
}

Json SlowQueryLog::ToJson() const {
  Json arr = Json::Array();
  for (const SlowQueryRecord& rec : Snapshot()) {
    arr.Append(rec.ToJson());
  }
  return arr;
}

StatementLedger& ThreadStatementLedger() {
  static thread_local StatementLedger ledger;
  return ledger;
}

}  // namespace msv::obs
