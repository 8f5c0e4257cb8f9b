// Shared benchmark harness for reproducing the paper's figures.
//
// Every figure plots "% of the relation's records retrieved as samples"
// against "% of the time required to scan the relation", averaged over 10
// random range queries of a fixed selectivity. The harness:
//
//   * generates the SALE relation in a private in-memory Env,
//   * builds each competitor's structure (ACE tree / ranked B+-tree /
//     STR R-tree / randomly permuted file),
//   * runs each query against each structure through a fresh simulated
//     disk (paper-grade 15k-RPM parameters) and a buffer pool sized at 5%
//     of the relation (the paper's 1 GB RAM : 20 GB data ratio),
//   * records (simulated time, cumulative samples) step series, averages
//     them across queries at fixed checkpoints, prints the table the
//     figure plots and writes a CSV under bench_results/.
//
// Curve shapes in these normalized coordinates are nearly independent of
// the absolute relation size (see EXPERIMENTS.md), so the default 1M
// records reproduce the shape of the paper's 200M-record experiments.

#ifndef MSV_BENCH_HARNESS_H_
#define MSV_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/buffer_pool.h"
#include "io/disk_model.h"
#include "io/env.h"
#include "obs/json.h"
#include "sampling/range_query.h"
#include "sampling/sample_stream.h"
#include "storage/record.h"

namespace msv::bench {

/// Tiny --key=value flag parser (unknown flags are fatal; every bench
/// documents its flags via --help).
class Flags {
 public:
  Flags(int argc, char** argv,
        std::map<std::string, std::string> defaults_and_help);

  uint64_t GetInt(const std::string& key) const;
  double GetDouble(const std::string& key) const;
  std::string GetString(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// A non-decreasing step function sampled as (x, y) points; y holds
/// between consecutive x's.
class StepSeries {
 public:
  void Add(double x, double y) { points_.emplace_back(x, y); }

  /// Value of the step function at `x` (0 before the first point).
  double ValueAt(double x) const;

  bool empty() const { return points_.empty(); }
  double max_x() const { return points_.empty() ? 0.0 : points_.back().first; }

 private:
  std::vector<std::pair<double, double>> points_;
};

/// Mean / min / max of several series evaluated at one checkpoint.
struct Aggregate {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Aggregate AggregateAt(const std::vector<StepSeries>& series, double x);

/// Runs `stream` until the simulated clock passes `max_ms` (or the stream
/// finishes), recording cumulative samples (and optionally a second
/// gauge such as buffered records) after every pull.
struct RunResult {
  StepSeries samples;   // x = sim ms, y = cumulative samples
  StepSeries gauge;     // x = sim ms, y = gauge value (if gauge_fn given)
  uint64_t total_samples = 0;
  bool completed = false;
};

RunResult RunTimed(sampling::SampleStream* stream,
                   const io::DiskDevice& device, double max_ms,
                   const std::function<uint64_t()>& gauge_fn = nullptr);

/// Writes a CSV file under bench_results/ in the cwd, or under
/// bench_results/smoke/ when the bench was run with --smoke.
void WriteCsv(const std::string& name,
              const std::vector<std::string>& header,
              const std::vector<std::vector<double>>& rows);

/// Writes bench_results/BENCH_<name>.json (bench_results/smoke/ with
/// --smoke, like WriteCsv): a self-describing record
/// holding the bench's headline numbers plus a full dump of the process
/// metrics registry, so CI can track the perf trajectory without
/// scraping tables. The format round-trips through obs::Json::Parse
/// (pinned by the obs golden test).
void WriteBenchJson(const std::string& name, const obs::Json& numbers);

/// Pretty-prints a table to stdout.
void PrintTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<double>>& rows);

/// The benchmark environment: relation + structures, all in memory, plus
/// helpers to open any structure through a fresh simulated disk.
class BenchEnv {
 public:
  struct Options {
    uint64_t records = 1'000'000;
    size_t page_size = 64 << 10;
    uint64_t seed = 42;
    uint32_t dims = 1;           // 1: ACE+B+tree; 2: kd-ACE+R-tree
    double buffer_fraction = 0.05;
    double day_max = 100000.0;
    double amount_max = 10000.0;
  };

  explicit BenchEnv(Options options);

  const Options& options() const { return options_; }
  io::Env* raw_env() { return env_.get(); }
  const storage::RecordLayout& layout() const { return layout_; }
  uint64_t relation_bytes() const;
  /// Sequential-scan time of the relation under the disk model (ms).
  double ScanMs() const;

  /// Buffer-pool capacity implied by buffer_fraction.
  size_t PoolPages() const;

  /// Names of the structure files inside the env.
  static constexpr const char* kSale = "sale";
  static constexpr const char* kPermuted = "sale.permuted";
  static constexpr const char* kBTree = "sale.btree";
  static constexpr const char* kRTree = "sale.rtree";
  static constexpr const char* kAce = "sale.ace";

  /// Builds the requested structures (idempotent).
  void BuildPermuted();
  void BuildBTree();
  void BuildRTree();
  void BuildAce(uint32_t height = 0);

  /// A fresh simulated device with paper-grade parameters.
  static std::shared_ptr<io::DiskDevice> NewDevice();

  /// Opens env through a timing decorator bound to `device`.
  std::unique_ptr<io::Env> TimedEnv(std::shared_ptr<io::DiskDevice> device);

 private:
  Options options_;
  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
};

}  // namespace msv::bench

#endif  // MSV_BENCH_HARNESS_H_
