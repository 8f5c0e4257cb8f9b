#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "btree/ranked_btree.h"
#include "core/ace_builder.h"
#include "obs/metrics.h"
#include "permuted/permuted_file.h"
#include "relation/sale_generator.h"
#include "rtree/rtree.h"
#include "util/logging.h"

namespace msv::bench {

namespace {

/// Where WriteCsv and WriteBenchJson put their files: bench_results/,
/// whose records are committed, or bench_results/smoke/ (ignored by git)
/// once Flags has parsed a nonzero --smoke, so a smoke run never
/// overwrites a committed record with CI-sized numbers.
std::string& ResultsDir() {
  static std::string dir = "bench_results";
  return dir;
}

}  // namespace

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

Flags::Flags(int argc, char** argv,
             std::map<std::string, std::string> defaults_and_help) {
  values_ = std::move(defaults_and_help);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "flags (--key=value):\n");
      for (const auto& [key, value] : values_) {
        std::fprintf(stderr, "  --%s (default: %s)\n", key.c_str(),
                     value.c_str());
      }
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      std::exit(2);
    }
    // `--key=value`, or bare `--key` as shorthand for `--key=1` (boolean
    // flags such as --smoke).
    size_t eq = arg.find('=');
    std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    if (values_.find(key) == values_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      std::exit(2);
    }
    values_[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  auto smoke = values_.find("smoke");
  if (smoke != values_.end() &&
      std::strtoull(smoke->second.c_str(), nullptr, 10) != 0) {
    ResultsDir() = "bench_results/smoke";
  }
}

uint64_t Flags::GetInt(const std::string& key) const {
  return std::strtoull(values_.at(key).c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& key) const {
  return std::strtod(values_.at(key).c_str(), nullptr);
}

std::string Flags::GetString(const std::string& key) const {
  return values_.at(key);
}

// ---------------------------------------------------------------------------
// Series
// ---------------------------------------------------------------------------

double StepSeries::ValueAt(double x) const {
  double y = 0.0;
  for (const auto& [px, py] : points_) {
    if (px > x) break;
    y = py;
  }
  return y;
}

Aggregate AggregateAt(const std::vector<StepSeries>& series, double x) {
  Aggregate agg;
  if (series.empty()) return agg;
  agg.min = 1e300;
  agg.max = -1e300;
  for (const StepSeries& s : series) {
    double v = s.ValueAt(x);
    agg.mean += v;
    agg.min = std::min(agg.min, v);
    agg.max = std::max(agg.max, v);
  }
  agg.mean /= static_cast<double>(series.size());
  return agg;
}

RunResult RunTimed(sampling::SampleStream* stream,
                   const io::DiskDevice& device, double max_ms,
                   const std::function<uint64_t()>& gauge_fn) {
  RunResult result;
  result.samples.Add(0.0, 0.0);
  while (!stream->done() && device.clock().NowMs() < max_ms) {
    auto batch = stream->NextBatch();
    MSV_CHECK_MSG(batch.ok(), std::string(batch.status().message()));
    double now = device.clock().NowMs();
    result.samples.Add(now, static_cast<double>(stream->samples_returned()));
    if (gauge_fn) {
      result.gauge.Add(now, static_cast<double>(gauge_fn()));
    }
  }
  result.total_samples = stream->samples_returned();
  result.completed = stream->done();
  return result;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void WriteCsv(const std::string& name,
              const std::vector<std::string>& header,
              const std::vector<std::vector<double>>& rows) {
  std::filesystem::create_directories(ResultsDir());
  const std::string path = ResultsDir() + "/" + name;
  std::ofstream out(path);
  for (size_t i = 0; i < header.size(); ++i) {
    out << (i ? "," : "") << header[i];
  }
  out << "\n";
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i ? "," : "") << row[i];
    }
    out << "\n";
  }
  std::fprintf(stderr, "[wrote %s]\n", path.c_str());
}

namespace {
/// Best-effort `git describe --always --dirty --abbrev=7` of the source
/// tree the bench was built from (MSV_SOURCE_DIR, set at configure time),
/// so every BENCH_*.json pins the revision it measured, "-dirty" when the
/// tree had uncommitted changes, wherever the bench runs from. "unknown"
/// when the source tree is not a git checkout, even one nested inside
/// another repository.
std::string GitDescribeOrUnknown() {
  const std::string source_dir = MSV_SOURCE_DIR;
  std::error_code ec;
  if (!std::filesystem::exists(source_dir + "/.git", ec)) return "unknown";
  const std::string cmd = "git -C '" + source_dir +
                          "' describe --always --dirty --abbrev=7 2>/dev/null";
  std::string sha = "unknown";
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) sha = line;
    }
    ::pclose(pipe);
  }
  return sha;
}
}  // namespace

void WriteBenchJson(const std::string& name, const obs::Json& numbers) {
  obs::Json record = obs::Json::Object();
  record["bench"] = obs::Json(name);
  record["git_sha"] = obs::Json(GitDescribeOrUnknown());
  record["numbers"] = numbers;
  record["metrics"] = obs::MetricRegistry::Global().Snapshot();
  std::filesystem::create_directories(ResultsDir());
  const std::string path = ResultsDir() + "/BENCH_" + name + ".json";
  std::ofstream out(path);
  out << record.Dump(2) << "\n";
  std::fprintf(stderr, "[wrote %s]\n", path.c_str());
}

void PrintTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<double>>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& h : header) std::printf("%16s", h.c_str());
  std::printf("\n");
  for (const auto& row : rows) {
    for (double v : row) std::printf("%16.6g", v);
    std::printf("\n");
  }
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// BenchEnv
// ---------------------------------------------------------------------------

BenchEnv::BenchEnv(Options options)
    : options_(options), env_(io::NewMemEnv()) {
  layout_ = options_.dims == 1 ? storage::SaleRecord::Layout1D()
                               : storage::SaleRecord::Layout2D();
  relation::SaleGenOptions gen;
  gen.num_records = options_.records;
  gen.seed = options_.seed;
  gen.day_max = options_.day_max;
  gen.amount_max = options_.amount_max;
  std::fprintf(stderr, "[generating %llu records...]\n",
               static_cast<unsigned long long>(options_.records));
  Status st = relation::GenerateSaleRelation(env_.get(), kSale, gen);
  MSV_CHECK_MSG(st.ok(), st.ToString());
}

uint64_t BenchEnv::relation_bytes() const {
  return options_.records * storage::SaleRecord::kSize;
}

double BenchEnv::ScanMs() const {
  io::DiskDevice probe;  // default (paper) parameters
  return probe.SequentialScanMs(relation_bytes());
}

size_t BenchEnv::PoolPages() const {
  double bytes = options_.buffer_fraction *
                 static_cast<double>(relation_bytes());
  return std::max<size_t>(
      4, static_cast<size_t>(bytes / static_cast<double>(options_.page_size)));
}

void BenchEnv::BuildPermuted() {
  if (env_->FileExists(kPermuted).value_or(false)) return;
  std::fprintf(stderr, "[building randomly permuted file...]\n");
  permuted::PermuteOptions options;
  options.seed = options_.seed + 1;
  Status st = permuted::BuildPermutedFile(env_.get(), kSale, kPermuted,
                                          options);
  MSV_CHECK_MSG(st.ok(), st.ToString());
}

void BenchEnv::BuildBTree() {
  if (env_->FileExists(kBTree).value_or(false)) return;
  std::fprintf(stderr, "[building ranked B+-tree...]\n");
  btree::BTreeOptions options;
  options.page_size = options_.page_size;
  Status st = btree::BuildRankedBTree(env_.get(), kSale, kBTree, layout_,
                                      options);
  MSV_CHECK_MSG(st.ok(), st.ToString());
}

void BenchEnv::BuildRTree() {
  if (env_->FileExists(kRTree).value_or(false)) return;
  std::fprintf(stderr, "[building STR R-tree...]\n");
  rtree::RTreeOptions options;
  options.page_size = options_.page_size;
  Status st = rtree::BuildRTree(env_.get(), kSale, kRTree, layout_, options);
  MSV_CHECK_MSG(st.ok(), st.ToString());
}

void BenchEnv::BuildAce(uint32_t height) {
  if (env_->FileExists(kAce).value_or(false)) return;
  std::fprintf(stderr, "[building ACE tree...]\n");
  core::AceBuildOptions options;
  options.page_size = options_.page_size;
  options.height = height;
  options.key_dims = options_.dims;
  options.seed = options_.seed + 2;
  Status st = core::BuildAceTree(env_.get(), kSale, kAce, layout_, options);
  MSV_CHECK_MSG(st.ok(), st.ToString());
}

std::shared_ptr<io::DiskDevice> BenchEnv::NewDevice() {
  return std::make_shared<io::DiskDevice>(io::DiskModelOptions{});
}

std::unique_ptr<io::Env> BenchEnv::TimedEnv(
    std::shared_ptr<io::DiskDevice> device) {
  return io::NewSimEnv(env_.get(), std::move(device));
}

}  // namespace msv::bench
