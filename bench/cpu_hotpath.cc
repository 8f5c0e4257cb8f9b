// CPU hot-path microbench: wall-clock throughput of the in-memory
// scan→filter→sample→estimate loops, before vs after the DESIGN.md §15
// rework (batched branch-free predicate kernels, arena-backed zero-copy
// emission, compiled field accessors).
//
// Each loop keeps a faithful replica of the pre-change code path callable
// for in-bench A/B:
//
//   filter     baseline: per-record RangeQuery::Matches + std::string
//              append (the old CombineEngine::AddLeaf filter).
//              new:      RangeQuery::MatchBatchAt + one arena gather, at
//              every dispatch level the host can execute.
//   emit       baseline: per-record SampleBatch::Append of a shuffled
//              round with no pre-sizing (the old EmitShuffled).
//              new:      SampleBatch::Reserve then Append.
//   estimate   baseline: the executor's pre-change lambda
//              (TableSchema::Value behind a std::function, one indirect
//              call per record) feeding the per-record Welford fold
//              RunningStats::Add.
//              new:      OnlineAggregator over a compiled
//              storage::FieldAccessor (batch moments + one Chan merge per
//              batch).
//              Both consume the same cache-resident batch — in the real
//              pipeline a batch is consumed right after the combiner
//              wrote it, so the estimate loop is a CPU benchmark, not a
//              memory-bandwidth one.
//
// Times are the min across --reps repetitions (suppresses scheduler
// noise). Writes bench_results/BENCH_cpu_hotpath.json with per-level
// throughput and the filter/estimate speedups; under --smoke (CI) the
// bench additionally asserts both speedups are >= 2x and that every
// kernel level agrees with the scalar reference byte for byte.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "query/catalog.h"
#include "sampling/online_aggregator.h"
#include "sampling/range_query.h"
#include "sampling/sample_stream.h"
#include "storage/record.h"
#include "storage/record_view.h"
#include "util/arena.h"
#include "util/coding.h"
#include "util/cpu.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"

namespace msv::bench {
namespace {

using sampling::RangeQuery;
using sampling::SampleBatch;
using storage::SaleRecord;

double WallMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Min wall ms of `fn` across `reps` runs.
double MinMs(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    double ms = WallMsSince(start);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

double MRecsPerSec(uint64_t records, double ms) {
  return ms > 0 ? static_cast<double>(records) / (ms * 1e3) : 0.0;
}

/// Densely packed SALE records with uniform keys; `day_hit` fraction land
/// inside the bench query's day interval by construction.
std::string MakeRelation(uint64_t n, uint64_t seed) {
  std::string data(n * SaleRecord::kSize, '\0');
  Pcg64 rng(seed);
  for (uint64_t i = 0; i < n; ++i) {
    SaleRecord rec;
    rec.day = rng.DoubleInRange(0.0, 100000.0);
    rec.amount = rng.DoubleInRange(0.0, 10000.0);
    rec.cust = rng.Below(1u << 20);
    rec.part = rng.Below(1u << 20);
    rec.supp = rng.Below(1u << 10);
    rec.row_id = i;
    rec.EncodeTo(data.data() + i * SaleRecord::kSize);
  }
  return data;
}

}  // namespace

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"records", "2000000"},
               {"reps", "5"},
               {"selectivity", "0.5"},
               {"smoke", "0"}});
  const bool smoke = flags.GetInt("smoke") != 0;
  const uint64_t n = smoke ? 400'000 : flags.GetInt("records");
  const int reps = smoke ? 3 : static_cast<int>(flags.GetInt("reps"));
  const double selectivity = flags.GetDouble("selectivity");

  const storage::RecordLayout layout = SaleRecord::Layout1D();
  const size_t record_size = layout.record_size;
  const std::string relation = MakeRelation(n, /*seed=*/42);
  const char* base = relation.data();

  // Query matching ~selectivity of the day domain.
  const RangeQuery query = RangeQuery::OneDim(0.0, 100000.0 * selectivity);

  const util::CpuLevel detected = util::DetectCpuLevel();
  const util::CpuLevel active = util::ActiveCpuLevel();
  std::printf("cpu: detected=%s active=%s  records=%llu reps=%d\n",
              util::CpuLevelName(detected), util::CpuLevelName(active),
              static_cast<unsigned long long>(n), reps);

  obs::Json numbers = obs::Json::Object();
  numbers["records"] = obs::Json(n);
  numbers["reps"] = obs::Json(static_cast<uint64_t>(reps));
  numbers["selectivity"] = obs::Json(selectivity);
  numbers["smoke"] = obs::Json(smoke);
  numbers["cpu_detected"] = obs::Json(std::string(util::CpuLevelName(detected)));
  numbers["cpu_active"] = obs::Json(std::string(util::CpuLevelName(active)));

  // ---------------------------------------------------------------- filter
  // Baseline: the pre-change CombineEngine filter — per-record Matches,
  // matching bytes appended to a std::string.
  uint64_t baseline_matches = 0;
  std::string baseline_bytes;  // NOLINT(msv-hot-path-alloc) baseline replica
  double filter_base_ms = MinMs(reps, [&] {
    std::string filtered;
    for (uint64_t i = 0; i < n; ++i) {
      const char* rec = base + i * record_size;
      if (query.Matches(layout, rec)) filtered.append(rec, record_size);
    }
    baseline_matches = filtered.size() / record_size;
    baseline_bytes = std::move(filtered);
  });
  std::printf("filter  baseline(scalar+string)  %8.1f ms  %7.1f Mrec/s\n",
              filter_base_ms, MRecsPerSec(n, filter_base_ms));
  numbers["filter_baseline_mrecs"] =
      obs::Json(MRecsPerSec(n, filter_base_ms));

  // New path at every level the host can run: batched kernel into an
  // index buffer, then one arena gather (what FilterSection does).
  std::vector<uint32_t> idx(n);
  double filter_active_ms = 0.0;
  for (int l = 0; l <= static_cast<int>(detected); ++l) {
    const util::CpuLevel level = static_cast<util::CpuLevel>(l);
    util::Arena arena;
    uint64_t matches = 0;
    const char* gathered = nullptr;
    double ms = MinMs(reps, [&] {
      arena.Reset();
      matches = query.MatchBatchAt(level, layout, base, n, idx.data());
      char* dst = arena.Allocate(matches * record_size, alignof(double));
      for (uint64_t m = 0; m < matches; ++m) {
        std::memcpy(dst + m * record_size,
                    base + static_cast<size_t>(idx[m]) * record_size,
                    record_size);
      }
      gathered = dst;
    });
    MSV_CHECK_MSG(matches == baseline_matches,
                  "kernel match count diverged from scalar reference");
    MSV_CHECK_MSG(matches == 0 ||
                      std::memcmp(gathered, baseline_bytes.data(),
                                  matches * record_size) == 0,
                  "kernel match bytes diverged from scalar reference");
    std::printf("filter  batch/%-6s             %8.1f ms  %7.1f Mrec/s\n",
                util::CpuLevelName(level), ms, MRecsPerSec(n, ms));
    numbers[std::string("filter_batch_") + util::CpuLevelName(level) +
            "_mrecs"] = obs::Json(MRecsPerSec(n, ms));
    if (level == active) filter_active_ms = ms;
  }
  const double filter_speedup =
      filter_active_ms > 0 ? filter_base_ms / filter_active_ms : 0.0;
  std::printf("filter  speedup (active level)   %8.2fx\n", filter_speedup);
  numbers["filter_speedup"] = obs::Json(filter_speedup);

  // ------------------------------------------------------------------ emit
  // Round emission: shuffled order over the filtered records. Baseline is
  // the old EmitShuffled (growing appends); new path pre-sizes.
  const uint64_t matches = baseline_matches;
  std::vector<uint32_t> order(matches);
  for (uint64_t i = 0; i < matches; ++i) order[i] = static_cast<uint32_t>(i);
  {
    Pcg64 rng(7);
    Shuffle(&order, &rng);
  }
  double emit_base_ms = MinMs(reps, [&] {
    SampleBatch out;
    out.record_size = record_size;
    for (uint32_t i : order) {
      out.Append(baseline_bytes.data() +
                 static_cast<size_t>(i) * record_size);
    }
    MSV_CHECK(out.count() == matches);
  });
  double emit_new_ms = MinMs(reps, [&] {
    SampleBatch out;
    out.record_size = record_size;
    out.Reserve(matches);
    for (uint32_t i : order) {
      out.Append(baseline_bytes.data() +
                 static_cast<size_t>(i) * record_size);
    }
    MSV_CHECK(out.count() == matches);
  });
  std::printf("emit    baseline(append)         %8.1f ms  %7.1f Mrec/s\n",
              emit_base_ms, MRecsPerSec(matches, emit_base_ms));
  std::printf("emit    reserve+append           %8.1f ms  %7.1f Mrec/s\n",
              emit_new_ms, MRecsPerSec(matches, emit_new_ms));
  numbers["emit_baseline_mrecs"] = obs::Json(MRecsPerSec(matches, emit_base_ms));
  numbers["emit_reserve_mrecs"] = obs::Json(MRecsPerSec(matches, emit_new_ms));

  // -------------------------------------------------------------- estimate
  // A cache-resident batch of filtered records, consumed repeatedly until
  // `n` records have been folded (mirrors streamed consumption of
  // combiner-fresh batches; reps take the min on top).
  const uint64_t est_batch_records = std::min<uint64_t>(matches, 20'000);
  SampleBatch batch;
  batch.record_size = record_size;
  batch.data.assign(baseline_bytes.data(), est_batch_records * record_size);
  const uint64_t est_rounds =
      est_batch_records ? (n + est_batch_records - 1) / est_batch_records : 0;
  const uint64_t est_total = est_rounds * est_batch_records;

  // Pre-change path: the executor's schema lambda behind std::function,
  // folded one record at a time.
  const query::TableSchema& schema = query::TableSchema::Sale();
  const query::Column* amount = schema.Find("amount");
  MSV_CHECK(amount != nullptr);
  const std::function<double(const char*)> expression =
      [&schema, amount](const char* rec) { return schema.Value(rec, *amount); };
  double base_avg = 0.0, new_avg = 0.0;
  double est_base_ms = MinMs(reps, [&] {
    RunningStats stats;
    for (uint64_t r = 0; r < est_rounds; ++r) {
      for (size_t i = 0; i < batch.count(); ++i) {
        stats.Add(expression(batch.record(i)));
      }
    }
    base_avg = stats.mean();
  });
  double est_new_ms = MinMs(reps, [&] {
    sampling::OnlineAggregator agg(
        storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
        /*population=*/est_total);
    for (uint64_t r = 0; r < est_rounds; ++r) agg.Consume(batch);
    new_avg = agg.Avg().value;
  });
  // The two folds accumulate the same moments in a different association:
  // equal to rounding error, not bit-for-bit.
  MSV_CHECK_MSG(std::abs(base_avg - new_avg) <=
                    1e-9 * std::max(1.0, std::abs(base_avg)),
                "accessor estimate diverged from the std::function fold");
  const double est_speedup = est_new_ms > 0 ? est_base_ms / est_new_ms : 0.0;
  std::printf("estimate baseline(std::function) %8.1f ms  %7.1f Mrec/s\n",
              est_base_ms, MRecsPerSec(est_total, est_base_ms));
  std::printf("estimate accessor                %8.1f ms  %7.1f Mrec/s\n",
              est_new_ms, MRecsPerSec(est_total, est_new_ms));
  std::printf("estimate speedup                 %8.2fx\n", est_speedup);
  numbers["estimate_baseline_mrecs"] =
      obs::Json(MRecsPerSec(est_total, est_base_ms));
  numbers["estimate_accessor_mrecs"] =
      obs::Json(MRecsPerSec(est_total, est_new_ms));
  numbers["estimate_speedup"] = obs::Json(est_speedup);

  WriteBenchJson("cpu_hotpath", numbers);

  if (smoke) {
    MSV_CHECK_MSG(filter_speedup >= 2.0,
                  "smoke: filter loop is not >=2x over the scalar baseline");
    MSV_CHECK_MSG(est_speedup >= 2.0,
                  "smoke: estimate loop is not >=2x over std::function");
  }
  return 0;
}

}  // namespace msv::bench

int main(int argc, char** argv) { return msv::bench::Run(argc, argv); }
