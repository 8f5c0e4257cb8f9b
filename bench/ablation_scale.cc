// Scale-trend ablation (not a paper figure; documents the reproduction's
// one scale-dependent distortion).
//
// The ACE tree's early sampling rate relative to the permuted file grows
// with relation size: after m leaf retrievals the tree has emitted roughly
// (mu/2) * m * log2(m) samples, and in normalized coordinates the
// amortization factor log2(m)/h grows with scale (the paper's 200M-record
// experiments sit near log2(m)/h ~ 0.56; a 2M-record laptop run sits near
// 0.3). This bench sweeps the relation size and reports the ACE-to-
// permuted sampling ratio at fixed fractions of scan time, demonstrating
// the trend toward the paper's magnitudes.

#include <cstdio>
#include <memory>

#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "harness.h"
#include "permuted/permuted_file.h"
#include "relation/workload.h"
#include "storage/heap_file.h"
#include "util/logging.h"

namespace msv::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"selectivity", "0.025"},
               {"queries", "5"},
               {"seed", "42"},
               {"max_records", "4000000"}});
  const double selectivity = flags.GetDouble("selectivity");
  const size_t num_queries = flags.GetInt("queries");
  const uint64_t max_records = flags.GetInt("max_records");

  std::vector<std::vector<double>> rows;
  for (uint64_t n = 250'000; n <= max_records; n *= 2) {
    BenchEnv::Options options;
    options.records = n;
    options.seed = flags.GetInt("seed");
    BenchEnv env(options);
    env.BuildAce();
    env.BuildPermuted();
    const double scan_ms = env.ScanMs();

    relation::WorkloadGenerator workload({{0.0, options.day_max}},
                                         options.seed + 9);
    auto queries = workload.Queries(selectivity, 1, num_queries);

    double ace_at[2] = {0, 0};   // samples at 2% and 4% of scan
    double perm_at[2] = {0, 0};
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      {
        auto device = BenchEnv::NewDevice();
        auto timed = env.TimedEnv(device);
        auto tree = std::move(core::AceTree::Open(timed.get(), BenchEnv::kAce,
                                                  env.layout()))
                        .value();
        core::AceSampler sampler(tree.get(), queries[qi], qi);
        device->clock().Reset();
        RunResult r = RunTimed(&sampler, *device, scan_ms * 0.04);
        ace_at[0] += r.samples.ValueAt(scan_ms * 0.02);
        ace_at[1] += r.samples.ValueAt(scan_ms * 0.04);
      }
      {
        auto device = BenchEnv::NewDevice();
        auto timed = env.TimedEnv(device);
        auto file = std::move(storage::HeapFile::Open(timed.get(),
                                                      BenchEnv::kPermuted))
                        .value();
        permuted::PermutedFileSampler sampler(file.get(), env.layout(),
                                              queries[qi]);
        device->clock().Reset();
        RunResult r = RunTimed(&sampler, *device, scan_ms * 0.04);
        perm_at[0] += r.samples.ValueAt(scan_ms * 0.02);
        perm_at[1] += r.samples.ValueAt(scan_ms * 0.04);
      }
    }
    rows.push_back({static_cast<double>(n),
                    perm_at[0] > 0 ? ace_at[0] / perm_at[0] : 0,
                    perm_at[1] > 0 ? ace_at[1] / perm_at[1] : 0});
  }
  std::vector<std::string> header{"records", "ace_over_permuted_at_2pct",
                                  "ace_over_permuted_at_4pct"};
  PrintTable(
      "scale ablation: ACE-tree advantage over the permuted file grows "
      "with relation size (selectivity " +
          std::to_string(selectivity) + ")",
      header, rows);
  WriteCsv("ablation_scale.csv", header, rows);
  return 0;
}

}  // namespace
}  // namespace msv::bench

int main(int argc, char** argv) { return msv::bench::Main(argc, argv); }
