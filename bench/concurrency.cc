// Concurrent-serving benchmark: one shared view, N threads.
//
// Sweeps thread counts (1, 2, 4, ... up to --threads) over two phases,
// all against shared structures:
//
//   pool      N threads pin/read/unpin pages of the SALE heap file
//             through ONE shared BufferPool (accounting cross-checked).
//   samplers  N concurrent AceSamplers, one query each, on ONE shared
//             ACE tree and ONE simulated disk arm. The per-thread
//             level_disk_us attributions must reconcile EXACTLY with the
//             device's busy-time delta — the end-to-end check that
//             thread-local I/O attribution loses nothing.
//
// Writes bench_results/BENCH_concurrency.json with per-thread-count
// timings and throughput so CI can track scaling.

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "harness.h"
#include "io/buffer_pool.h"
#include "relation/workload.h"
#include "util/logging.h"
#include "util/random.h"

namespace msv::bench {
namespace {

double WallMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Sum of a sampler's per-level disk attribution across all levels.
uint64_t TotalLevelDiskUs(const core::AceSampler& sampler, uint32_t height) {
  uint64_t sum = 0;
  for (uint32_t level = 1; level <= height; ++level) {
    sum += sampler.level_disk_us(level);
  }
  return sum;
}

struct PhaseResult {
  double wall_ms = 0;
  uint64_t samples = 0;
  uint64_t busy_us = 0;
};

}  // namespace

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"records", "500000"},
               {"threads", "8"},
               {"page", "65536"},
               {"seed", "42"},
               {"selectivity", "0.05"},
               {"smoke", "0"}});
  const bool smoke = flags.GetInt("smoke") != 0;
  const size_t max_threads = flags.GetInt("threads");
  MSV_CHECK_MSG(max_threads >= 1, "--threads must be >= 1");

  BenchEnv::Options options;
  options.records = smoke ? 50'000 : flags.GetInt("records");
  options.page_size = flags.GetInt("page");
  options.seed = flags.GetInt("seed");
  options.dims = 1;
  BenchEnv env(options);
  env.BuildAce();
  const double selectivity = flags.GetDouble("selectivity");

  std::vector<size_t> sweep;
  for (size_t t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);

  obs::Json per_threads = obs::Json::Object();
  std::vector<std::vector<double>> rows;

  for (size_t threads : sweep) {
    // --- Phase 1: shared buffer pool under contention.
    PhaseResult pool_phase;
    {
      auto device = BenchEnv::NewDevice();
      auto timed = env.TimedEnv(device);
      auto file_or = timed->OpenFile(BenchEnv::kSale, /*create=*/false);
      MSV_CHECK(file_or.ok());
      auto file = std::move(file_or).value();
      auto size_or = file->Size();
      MSV_CHECK(size_or.ok());
      const uint64_t num_pages =
          (size_or.value() + options.page_size - 1) / options.page_size;
      // Pool at 25% of the pages, one lock, so eviction churns.
      io::BufferPool pool(options.page_size,
                          std::max<size_t>(8, num_pages / 4));
      const uint64_t gets_per_thread = smoke ? 2'000 : 20'000;
      auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          Pcg64 rng = DeriveRngStream(options.seed, t);
          for (uint64_t i = 0; i < gets_per_thread; ++i) {
            auto page = pool.Get(file.get(), /*file_id=*/1,
                                 rng.Below(num_pages));
            MSV_CHECK(page.ok());
            // Touch the bytes while pinned.
            MSV_CHECK(page.value().size() > 0);
          }
        });
      }
      for (auto& w : workers) w.join();
      pool_phase.wall_ms = WallMsSince(start);
      pool_phase.samples = threads * gets_per_thread;
      pool_phase.busy_us = device->stats().busy_us;
      std::string violation = pool.CheckAccounting();
      MSV_CHECK_MSG(violation.empty(), "pool accounting: " + violation);
      io::BufferPoolStats s = pool.stats();
      MSV_CHECK_MSG(s.hits + s.misses == threads * gets_per_thread,
                    "pool hit+miss must equal the issued Gets");
    }

    // --- Phase 2: N concurrent samplers, one shared tree + disk arm.
    PhaseResult samplers_phase;
    {
      auto device = BenchEnv::NewDevice();
      auto timed = env.TimedEnv(device);
      auto tree_or =
          core::AceTree::Open(timed.get(), BenchEnv::kAce, env.layout());
      MSV_CHECK(tree_or.ok());
      auto tree = std::move(tree_or).value();
      relation::WorkloadGenerator workload(
          {{0.0, options.day_max}, {0.0, options.amount_max}},
          options.seed + 9);
      auto queries = workload.Queries(selectivity, /*dims=*/1, threads);

      const io::DiskStats before = device->stats();
      std::vector<uint64_t> attributed(threads, 0);
      std::vector<uint64_t> returned(threads, 0);
      auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          core::AceSampler sampler(tree.get(), queries[t],
                                   options.seed + 100 + t);
          while (!sampler.done()) {
            auto batch = sampler.NextBatch();
            MSV_CHECK(batch.ok());
          }
          attributed[t] = TotalLevelDiskUs(sampler, tree->meta().height);
          returned[t] = sampler.samples_returned();
        });
      }
      for (auto& w : workers) w.join();
      samplers_phase.wall_ms = WallMsSince(start);
      uint64_t attributed_sum = 0;
      for (size_t t = 0; t < threads; ++t) {
        attributed_sum += attributed[t];
        samplers_phase.samples += returned[t];
      }
      samplers_phase.busy_us = (device->stats() - before).busy_us;
      // The headline invariant: per-query thread-local attribution sums
      // exactly (to the microsecond) to the shared arm's busy time.
      MSV_CHECK_MSG(attributed_sum == samplers_phase.busy_us,
                    "sampler disk attribution must reconcile exactly");
    }

    std::printf(
        "threads=%zu  pool %.1f ms  samplers %.1f ms (%llu samples, "
        "busy %llu us)\n",
        threads, pool_phase.wall_ms, samplers_phase.wall_ms,
        static_cast<unsigned long long>(samplers_phase.samples),
        static_cast<unsigned long long>(samplers_phase.busy_us));

    rows.push_back({static_cast<double>(threads), pool_phase.wall_ms,
                    samplers_phase.wall_ms});

    obs::Json entry = obs::Json::Object();
    entry["pool_wall_ms"] = obs::Json(pool_phase.wall_ms);
    entry["pool_gets"] = obs::Json(pool_phase.samples);
    entry["samplers_wall_ms"] = obs::Json(samplers_phase.wall_ms);
    entry["samplers_samples"] = obs::Json(samplers_phase.samples);
    entry["samplers_busy_us"] = obs::Json(samplers_phase.busy_us);
    entry["samplers_reconciled"] = obs::Json(true);
    per_threads[std::to_string(threads)] = std::move(entry);
  }

  PrintTable("concurrency: wall ms per phase",
             {"threads", "pool_ms", "samplers_ms"}, rows);
  WriteCsv("concurrency.csv", {"threads", "pool_ms", "samplers_ms"}, rows);

  obs::Json numbers = obs::Json::Object();
  numbers["records"] = obs::Json(options.records);
  numbers["selectivity"] = obs::Json(selectivity);
  numbers["smoke"] = obs::Json(smoke);
  numbers["max_threads"] = obs::Json(static_cast<uint64_t>(max_threads));
  numbers["by_threads"] = std::move(per_threads);
  WriteBenchJson("concurrency", numbers);
  return 0;
}

}  // namespace msv::bench

int main(int argc, char** argv) { return msv::bench::Run(argc, argv); }
