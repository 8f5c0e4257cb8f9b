// Batched-I/O A/B study: what coalesced multi-page reads buy under the
// simulated disk.
//
// Runs the AceSampler's two leaf I/O policies over a fig14-style
// full-drain workload (2.5% selectivity, run to completion). The
// leaf-at-a-time policy reads one leaf per NextBatch; the drain policy
// fetches the whole stab order in one elevator-ordered batched read, so
// runs of physically adjacent leaves collapse into single modeled
// accesses. The emitted sample stream is byte-identical under both
// (pinned by determinism_test); only the I/O schedule — and therefore
// the modeled time — changes.
//
// The ">= 2x modeled disk-time reduction" acceptance criterion for the
// drain policy is asserted in-process: the bench aborts if batching
// stops paying for itself.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "harness.h"
#include "relation/workload.h"
#include "util/logging.h"

namespace msv::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"records", "500000"},
               {"queries", "3"},
               {"page", "65536"},
               {"seed", "42"},
               {"selectivity", "0.025"},
               {"smoke", "0"}});
  const bool smoke = flags.GetInt("smoke") != 0;

  BenchEnv::Options options;
  options.records = smoke ? 100'000 : flags.GetInt("records");
  options.page_size = flags.GetInt("page");
  options.seed = flags.GetInt("seed");
  options.dims = 1;
  BenchEnv env(options);
  env.BuildAce();

  const double scan_ms = env.ScanMs();
  const size_t num_queries = smoke ? 2 : flags.GetInt("queries");
  relation::WorkloadGenerator workload(
      {{0.0, options.day_max}, {0.0, options.amount_max}}, options.seed + 9);
  auto queries =
      workload.Queries(flags.GetDouble("selectivity"), 1, num_queries);

  // ---- Leaf-at-a-time vs drain, each to completion.
  struct SweepPoint {
    bool drain;
    double mean_completion_ms = 0;
    uint64_t busy_us = 0;
    uint64_t seeks = 0;
    uint64_t batched_accesses = 0;
    uint64_t batched_pages = 0;
  };
  std::vector<SweepPoint> sweep;
  for (bool drain : {false, true}) {
    SweepPoint point;
    point.drain = drain;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto device = BenchEnv::NewDevice();
      auto timed = env.TimedEnv(device);
      auto tree_or =
          core::AceTree::Open(timed.get(), BenchEnv::kAce, env.layout());
      MSV_CHECK(tree_or.ok());
      auto tree = std::move(tree_or).value();
      core::AceSamplerOptions sampler_options;
      sampler_options.drain = drain;
      core::AceSampler sampler(tree.get(), queries[qi], options.seed + qi,
                               sampler_options);
      device->clock().Reset();
      const io::DiskStats before = device->stats();
      RunResult r = RunTimed(&sampler, *device, /*max_ms=*/1e15);
      MSV_CHECK(r.completed);
      point.mean_completion_ms += device->clock().NowMs();
      const io::DiskStats stats = device->stats() - before;
      point.busy_us += stats.busy_us;
      point.seeks += stats.seeks;
      point.batched_accesses += stats.batched_accesses;
      point.batched_pages += stats.batched_pages;
    }
    point.mean_completion_ms /= static_cast<double>(queries.size());
    sweep.push_back(point);
  }

  std::vector<std::vector<double>> sweep_rows;
  for (const SweepPoint& p : sweep) {
    double coalesce =
        p.batched_accesses
            ? static_cast<double>(p.batched_pages) /
                  static_cast<double>(p.batched_accesses)
            : 0.0;
    sweep_rows.push_back({p.drain ? 1.0 : 0.0,
                          p.mean_completion_ms,
                          p.mean_completion_ms / scan_ms * 100.0,
                          static_cast<double>(p.busy_us) / 1000.0,
                          static_cast<double>(p.seeks), coalesce});
  }
  std::vector<std::string> sweep_header{"drain",        "completion_ms",
                                        "pct_scan",     "disk_busy_ms",
                                        "seeks",        "coalesce_ratio"};
  PrintTable("ACE to completion: leaf-at-a-time (drain 0) vs drain (1)",
             sweep_header, sweep_rows);
  WriteCsv("io_batching_sweep.csv", sweep_header, sweep_rows);

  // ---- Machine-readable record.
  obs::Json numbers = obs::Json::Object();
  numbers["records"] = obs::Json(options.records);
  numbers["queries"] = obs::Json(static_cast<uint64_t>(queries.size()));
  numbers["selectivity"] = obs::Json(flags.GetDouble("selectivity"));
  numbers["page"] = obs::Json(static_cast<uint64_t>(options.page_size));
  numbers["scan_ms"] = obs::Json(scan_ms);
  numbers["smoke"] = obs::Json(smoke);
  obs::Json sweep_json = obs::Json::Array();
  for (size_t i = 0; i < sweep.size(); ++i) {
    obs::Json entry = obs::Json::Object();
    for (size_t c = 0; c < sweep_header.size(); ++c) {
      entry[sweep_header[c]] = obs::Json(sweep_rows[i][c]);
    }
    sweep_json.Append(std::move(entry));
  }
  numbers["policy_sweep"] = std::move(sweep_json);
  WriteBenchJson("io_batching", numbers);

  // ---- Acceptance criterion: the drain policy must at least halve the
  // modeled disk time of the leaf-at-a-time path on this workload.
  const uint64_t scalar_us = sweep.front().busy_us;  // leaf-at-a-time
  const uint64_t full_us = sweep.back().busy_us;     // drain
  std::printf("\nfull-drain disk time %.1f ms vs leaf-at-a-time %.1f ms "
              "(%.1fx)\n",
              static_cast<double>(full_us) / 1000.0,
              static_cast<double>(scalar_us) / 1000.0,
              static_cast<double>(scalar_us) /
                  static_cast<double>(full_us ? full_us : 1));
  MSV_CHECK_MSG(2 * full_us <= scalar_us,
                "batched full drain did not halve modeled disk time");
  return 0;
}

}  // namespace
}  // namespace msv::bench

int main(int argc, char** argv) { return msv::bench::Main(argc, argv); }
