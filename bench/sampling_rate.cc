#include "sampling_rate.h"

#include <cstdio>
#include <memory>

#include "btree/btree_sampler.h"
#include "btree/ranked_btree.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "harness.h"
#include "permuted/permuted_file.h"
#include "relation/workload.h"
#include "rtree/rtree.h"
#include "rtree/rtree_sampler.h"
#include "storage/heap_file.h"
#include "util/logging.h"

namespace msv::bench {

namespace {

struct MethodResult {
  std::string name;
  std::vector<StepSeries> series;  // one per query, x in sim-ms
  std::vector<double> completion_ms;
  bool all_completed = true;
};

// RunTimed plus a per-returned-record CPU charge on the device clock
// (record-at-a-time retrieval cost; see the comment at record_cpu_ms).
RunResult RunTimedWithCpu(sampling::SampleStream* stream,
                          io::DiskDevice* device, double max_ms,
                          double record_cpu_ms) {
  RunResult result;
  result.samples.Add(0.0, 0.0);
  while (!stream->done() && device->clock().NowMs() < max_ms) {
    auto batch = stream->NextBatch();
    MSV_CHECK(batch.ok());
    device->clock().AdvanceMs(record_cpu_ms *
                              static_cast<double>(batch.value().count()));
    result.samples.Add(device->clock().NowMs(),
                       static_cast<double>(stream->samples_returned()));
  }
  result.total_samples = stream->samples_returned();
  result.completed = stream->done();
  return result;
}

}  // namespace

int RunSamplingRateBench(int argc, char** argv,
                         const SamplingRateConfig& config) {
  Flags flags(argc, argv,
              {{"records", "2000000"},
               {"queries", "10"},
               {"page", "65536"},
               {"seed", "42"},
               {"buffer_fraction", "0.05"},
               {"pull_records", "4"},
               {"record_cpu_ms", "0.15"},
               {"smoke", "0"}});
  // --smoke: CI-sized run (seconds, not minutes) that still exercises
  // every competitor and emits the BENCH_*.json record.
  const bool smoke = flags.GetInt("smoke") != 0;

  BenchEnv::Options options;
  options.records = smoke ? 100'000 : flags.GetInt("records");
  options.page_size = flags.GetInt("page");
  options.seed = flags.GetInt("seed");
  options.dims = config.dims;
  options.buffer_fraction = flags.GetDouble("buffer_fraction");
  BenchEnv env(options);

  env.BuildPermuted();
  env.BuildAce();
  if (config.dims == 1) {
    env.BuildBTree();
  } else {
    env.BuildRTree();
  }

  const double scan_ms = env.ScanMs();
  const double max_ms =
      config.to_completion ? 1e15 : scan_ms * config.max_x_pct / 100.0;
  const size_t num_queries = smoke ? 2 : flags.GetInt("queries");
  const size_t pull_records = flags.GetInt("pull_records");
  // One-record-at-a-time retrieval (Algorithm 1 and its R-tree analogue)
  // pays a per-draw CPU cost — a root-to-leaf descent plus page search —
  // even on buffer hits. The paper's B+-tree curves plateau at a few
  // thousand records/second once the relevant pages are buffered, which
  // corresponds to ~0.15 ms/record; bulk consumers (ACE section copies,
  // permuted-file scan) have this folded into the effective scan rate.
  const double record_cpu_ms = flags.GetDouble("record_cpu_ms");

  relation::WorkloadGenerator workload(
      {{0.0, options.day_max}, {0.0, options.amount_max}}, options.seed + 9);
  auto queries =
      workload.Queries(config.selectivity, config.dims, num_queries);

  std::vector<MethodResult> methods(3);
  methods[0].name = config.dims == 1 ? "ace" : "kd-ace";
  methods[1].name = config.dims == 1 ? "btree" : "rtree";
  methods[2].name = "permuted";

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& q = queries[qi];
    std::fprintf(stderr, "[query %zu/%zu %s]\n", qi + 1, queries.size(),
                 q.ToString().c_str());

    // --- ACE tree (or k-d ACE tree).
    {
      auto device = BenchEnv::NewDevice();
      auto timed = env.TimedEnv(device);
      auto tree_or = core::AceTree::Open(timed.get(), BenchEnv::kAce,
                                         env.layout());
      MSV_CHECK(tree_or.ok());
      auto tree = std::move(tree_or).value();
      core::AceSampler sampler(tree.get(), q, options.seed + qi);
      // Metadata (superblock, internal nodes, directory) is resident in a
      // warm DBMS and negligible at the paper's scale; measure from here.
      device->clock().Reset();
      RunResult r = RunTimed(&sampler, *device, max_ms);
      methods[0].series.push_back(std::move(r.samples));
      methods[0].completion_ms.push_back(device->clock().NowMs());
      methods[0].all_completed &= r.completed;
    }

    // --- Ranked B+-tree (1-d) or ranked R-tree (2-d).
    {
      auto device = BenchEnv::NewDevice();
      auto timed = env.TimedEnv(device);
      io::BufferPool pool(options.page_size, env.PoolPages());
      if (config.dims == 1) {
        auto tree_or = btree::RankedBTree::Open(timed.get(), BenchEnv::kBTree,
                                                env.layout(), &pool, 1);
        MSV_CHECK(tree_or.ok());
        auto tree = std::move(tree_or).value();
        btree::BTreeSampler sampler(tree.get(), q, options.seed + qi,
                                    pull_records);
        // Warm start: the two rank descents touch only internal pages,
        // which are buffer-resident in a warm DBMS (and a negligible
        // fraction of the paper's 10 s window). Initialize, then measure.
        MSV_CHECK(sampler.NextBatch().ok());
        device->clock().Reset();
        RunResult r = RunTimedWithCpu(&sampler, device.get(), max_ms,
                                      record_cpu_ms);
        methods[1].series.push_back(std::move(r.samples));
        methods[1].completion_ms.push_back(device->clock().NowMs());
        methods[1].all_completed &= r.completed;
      } else {
        auto tree_or = rtree::RTree::Open(timed.get(), BenchEnv::kRTree,
                                          env.layout(), &pool, 1);
        MSV_CHECK(tree_or.ok());
        auto tree = std::move(tree_or).value();
        rtree::RTreeSampler sampler(tree.get(), q, options.seed + qi,
                                    pull_records);
        // Warm start symmetrical to the B+-tree: candidate collection
        // touches only internal pages.
        MSV_CHECK(sampler.NextBatch().ok());
        device->clock().Reset();
        RunResult r = RunTimedWithCpu(&sampler, device.get(), max_ms,
                                      record_cpu_ms);
        methods[1].series.push_back(std::move(r.samples));
        methods[1].completion_ms.push_back(device->clock().NowMs());
        methods[1].all_completed &= r.completed;
      }
    }

    // --- Randomly permuted file.
    {
      auto device = BenchEnv::NewDevice();
      auto timed = env.TimedEnv(device);
      auto file_or = storage::HeapFile::Open(timed.get(), BenchEnv::kPermuted);
      MSV_CHECK(file_or.ok());
      auto file = std::move(file_or).value();
      permuted::PermutedFileSampler sampler(file.get(), env.layout(), q);
      device->clock().Reset();
      RunResult r = RunTimed(&sampler, *device, max_ms);
      methods[2].series.push_back(std::move(r.samples));
      methods[2].completion_ms.push_back(device->clock().NowMs());
      methods[2].all_completed &= r.completed;
    }
  }

  // ---- Report.
  std::vector<double> checkpoints = config.checkpoints;
  if (checkpoints.empty()) {
    if (config.to_completion) {
      double worst = 0;
      for (const auto& m : methods) {
        for (double ms : m.completion_ms) worst = std::max(worst, ms);
      }
      double worst_pct = worst / scan_ms * 100.0;
      for (double x = 6.25; x < worst_pct * 1.05; x *= 2) {
        checkpoints.push_back(x);
      }
      checkpoints.push_back(worst_pct * 1.001);
    } else {
      for (double x = 0.25; x <= config.max_x_pct + 1e-9; x += 0.25) {
        checkpoints.push_back(x);
      }
    }
  }

  const double n = static_cast<double>(options.records);
  std::vector<std::vector<double>> rows;
  for (double x : checkpoints) {
    std::vector<double> row{x};
    for (const auto& m : methods) {
      row.push_back(AggregateAt(m.series, x / 100.0 * scan_ms).mean / n *
                    100.0);
    }
    rows.push_back(std::move(row));
  }
  std::vector<std::string> header{"pct_scan_time"};
  for (const auto& m : methods) header.push_back("pct_records_" + m.name);

  PrintTable(config.figure + ": " + config.caption, header, rows);
  WriteCsv(config.figure + ".csv", header, rows);

  // Machine-readable record: headline numbers plus the full metrics
  // registry (io.disk.*, io.pool.*, ace.* counters accumulated across
  // all queries), for CI artifact tracking.
  obs::Json numbers = obs::Json::Object();
  numbers["records"] = obs::Json(options.records);
  numbers["queries"] = obs::Json(static_cast<uint64_t>(queries.size()));
  numbers["selectivity"] = obs::Json(config.selectivity);
  numbers["dims"] = obs::Json(static_cast<uint64_t>(config.dims));
  numbers["scan_ms"] = obs::Json(scan_ms);
  numbers["smoke"] = obs::Json(smoke);
  auto mean_completion_ms = [](const MethodResult& m) {
    double sum = 0;
    for (double ms : m.completion_ms) sum += ms;
    return sum / static_cast<double>(m.completion_ms.size());
  };
  obs::Json per_method = obs::Json::Object();
  const double last_x = checkpoints.back();
  for (const auto& m : methods) {
    obs::Json entry = obs::Json::Object();
    entry["pct_records_at_last_checkpoint"] =
        obs::Json(AggregateAt(m.series, last_x / 100.0 * scan_ms).mean / n *
                  100.0);
    entry["mean_completion_ms"] = obs::Json(mean_completion_ms(m));
    entry["all_completed"] = obs::Json(m.all_completed);
    per_method[m.name] = std::move(entry);
  }
  numbers["methods"] = std::move(per_method);
  WriteBenchJson(config.figure, numbers);

  if (config.to_completion) {
    std::printf("\ncompletion time (%% of scan), averaged over queries:\n");
    for (const auto& m : methods) {
      std::printf("  %-10s %8.1f%%%s\n", m.name.c_str(),
                  mean_completion_ms(m) / scan_ms * 100.0,
                  m.all_completed ? "" : "  (not all queries completed)");
    }
    // Crossover guard (the paper's Fig. 14, Sec. 8.2): reading one leaf
    // per stab, the ACE tree leads at the first checkpoint and the
    // B+-tree still finishes before it. Fetching the whole stab order up
    // front instead delivers nothing early and completes first.
    const double ace_first = rows.front()[1];
    const double btree_first = rows.front()[2];
    std::fprintf(stderr,
                 "[crossover guard: at %.2f%% of scan ACE %.4f%% vs %s "
                 "%.4f%% of records; completion ACE %.1f ms vs %s %.1f ms]\n",
                 checkpoints.front(), ace_first, methods[1].name.c_str(),
                 btree_first, mean_completion_ms(methods[0]),
                 methods[1].name.c_str(), mean_completion_ms(methods[1]));
    MSV_CHECK_MSG(ace_first > btree_first,
                  "ACE does not lead at the first checkpoint");
    MSV_CHECK_MSG(
        mean_completion_ms(methods[1]) < mean_completion_ms(methods[0]),
        "the B+-tree does not complete before ACE");
  }
  return 0;
}

}  // namespace msv::bench
