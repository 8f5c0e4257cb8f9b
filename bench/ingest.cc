// Online-ingest benchmark: sustained insert rate while serving samples.
//
// One updatable view per memtable configuration, background compaction
// on. A writer thread streams fresh SALE records through Insert() in
// small batches (the LSM write path: WAL append, memtable, inline flush
// to sorted runs, background folds into the ACE tree) while reader
// threads continuously open samplers and drain short prefixes — the
// mixed workload the write path exists to serve. Sweeps the memtable
// size to expose the flush-frequency / insert-latency trade-off.
//
// After the writer finishes, a final Rebuild() folds everything into
// the tree and a full drain recounts the view: every acknowledged
// insert must be present exactly once — the bench doubles as an
// end-to-end loss check. Writes bench_results/BENCH_ingest.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/sample_view.h"
#include "harness.h"
#include "obs/metrics.h"
#include "relation/sale_generator.h"
#include "sampling/range_query.h"
#include "storage/record.h"
#include "util/logging.h"
#include "util/random.h"

namespace msv::bench {
namespace {

using storage::SaleRecord;

double WallMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Encodes `count` fresh records with row ids starting at `first_id`.
std::string MakeBatch(Pcg64& rng, uint64_t first_id, uint64_t count) {
  std::string out;
  char buf[SaleRecord::kSize];
  for (uint64_t i = 0; i < count; ++i) {
    SaleRecord rec;
    rec.day = rng.DoubleInRange(0, 100000);
    rec.amount = rng.DoubleInRange(0, 10000);
    rec.row_id = first_id + i;
    rec.EncodeTo(buf);
    out.append(buf, sizeof(buf));
  }
  return out;
}

struct ConfigResult {
  uint64_t memtable_records = 0;
  double insert_wall_ms = 0;
  double inserts_per_sec = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t queries_served = 0;
  uint64_t samples_served = 0;
  double recount_ms = 0;
};

}  // namespace

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"records", "100000"},
               {"inserts", "200000"},
               {"batch", "64"},
               {"readers", "2"},
               {"seed", "42"},
               {"smoke", "0"}});
  const bool smoke = flags.GetInt("smoke") != 0;
  const uint64_t base_records = smoke ? 20'000 : flags.GetInt("records");
  const uint64_t total_inserts = smoke ? 20'000 : flags.GetInt("inserts");
  const uint64_t batch_records = flags.GetInt("batch");
  const size_t readers = flags.GetInt("readers");
  const uint64_t seed = flags.GetInt("seed");
  MSV_CHECK_MSG(batch_records >= 1, "--batch must be >= 1");

  std::vector<uint64_t> memtable_sweep = {1024, 4096, 16384};
  if (smoke) memtable_sweep = {1024, 4096};

  auto* c_flushes = obs::MetricRegistry::Global().GetCounter("ingest.flushes");
  auto* c_compactions =
      obs::MetricRegistry::Global().GetCounter("ingest.compactions");

  obs::Json per_config = obs::Json::Object();
  std::vector<std::vector<double>> rows;

  for (uint64_t memtable_records : memtable_sweep) {
    auto env = io::NewMemEnv();
    relation::SaleGenOptions gen;
    gen.num_records = base_records;
    gen.seed = seed;
    MSV_CHECK(relation::GenerateSaleRelation(env.get(), "sale", gen).ok());

    core::MaterializedSampleView::Options options;
    options.build.page_size = 4096;
    options.build.key_dims = 1;
    options.build.seed = seed;
    options.ingest.memtable_max_records = memtable_records;
    options.ingest.background_compaction = true;
    auto view_or = core::MaterializedSampleView::Create(
        env.get(), "v", "sale", SaleRecord::Layout1D(), options);
    MSV_CHECK(view_or.ok());
    auto view = std::move(view_or).value();

    const uint64_t flushes_before = c_flushes->Value();
    const uint64_t compactions_before = c_compactions->Value();

    // Readers sample short prefixes in a loop until the writer finishes.
    std::atomic<bool> writing{true};
    std::vector<uint64_t> reader_queries(readers, 0);
    std::vector<uint64_t> reader_samples(readers, 0);
    std::vector<std::thread> reader_threads;
    reader_threads.reserve(readers);
    for (size_t r = 0; r < readers; ++r) {
      reader_threads.emplace_back([&, r] {
        Pcg64 rng = DeriveRngStream(seed + 101, r);
        while (writing.load(std::memory_order_relaxed)) {
          double lo = rng.DoubleInRange(0, 60000);
          auto query = sampling::RangeQuery::OneDim(lo, lo + 40000);
          auto sampler = view->Sample(query, rng.Next());
          MSV_CHECK(sampler.ok());
          uint64_t pulled = 0;
          while (!sampler.value()->done() && pulled < 256) {
            auto batch = sampler.value()->NextBatch();
            MSV_CHECK(batch.ok());
            pulled += batch.value().count();
          }
          ++reader_queries[r];
          reader_samples[r] += pulled;
        }
      });
    }

    // The writer streams the full insert workload in small batches.
    Pcg64 write_rng(seed + 7);
    auto start = std::chrono::steady_clock::now();
    uint64_t inserted = 0;
    while (inserted < total_inserts) {
      uint64_t n = std::min(batch_records, total_inserts - inserted);
      std::string batch = MakeBatch(write_rng, base_records + inserted, n);
      MSV_CHECK(view->Insert(batch.data(), n).ok());
      inserted += n;
    }
    ConfigResult result;
    result.memtable_records = memtable_records;
    result.insert_wall_ms = WallMsSince(start);
    result.inserts_per_sec =
        1000.0 * static_cast<double>(total_inserts) / result.insert_wall_ms;

    writing.store(false, std::memory_order_relaxed);
    for (auto& t : reader_threads) t.join();
    for (size_t r = 0; r < readers; ++r) {
      result.queries_served += reader_queries[r];
      result.samples_served += reader_samples[r];
    }
    // Fold everything into the tree, then recount: a full drain must
    // return base + inserts distinct records — nothing lost, nothing
    // duplicated by the flush/compaction machinery under concurrency.
    MSV_CHECK(view->Rebuild().ok());
    result.flushes = c_flushes->Value() - flushes_before;
    result.compactions = c_compactions->Value() - compactions_before;
    auto recount_start = std::chrono::steady_clock::now();
    auto all = sampling::RangeQuery::OneDim(-1.0, 2e9);
    auto sampler = view->Sample(all, seed + 3);
    MSV_CHECK(sampler.ok());
    std::set<uint64_t> ids;
    uint64_t returned = 0;
    while (!sampler.value()->done()) {
      auto batch = sampler.value()->NextBatch();
      MSV_CHECK(batch.ok());
      for (uint64_t i = 0; i < batch.value().count(); ++i) {
        ids.insert(SaleRecord::DecodeFrom(batch.value().record(i)).row_id);
      }
      returned += batch.value().count();
    }
    result.recount_ms = WallMsSince(recount_start);
    MSV_CHECK_MSG(returned == base_records + total_inserts,
                  "full drain must return every record exactly once");
    MSV_CHECK_MSG(ids.size() == base_records + total_inserts,
                  "recount lost or duplicated inserted records");

    std::printf(
        "memtable=%llu  %.0f inserts/s (%.1f ms)  flushes=%llu "
        "compactions=%llu  reads: %llu queries / %llu samples  "
        "recount %.1f ms\n",
        static_cast<unsigned long long>(memtable_records),
        result.inserts_per_sec, result.insert_wall_ms,
        static_cast<unsigned long long>(result.flushes),
        static_cast<unsigned long long>(result.compactions),
        static_cast<unsigned long long>(result.queries_served),
        static_cast<unsigned long long>(result.samples_served),
        result.recount_ms);

    rows.push_back({static_cast<double>(memtable_records),
                    result.inserts_per_sec,
                    static_cast<double>(result.flushes),
                    static_cast<double>(result.compactions),
                    static_cast<double>(result.queries_served)});

    obs::Json entry = obs::Json::Object();
    entry["insert_wall_ms"] = obs::Json(result.insert_wall_ms);
    entry["inserts_per_sec"] = obs::Json(result.inserts_per_sec);
    entry["flushes"] = obs::Json(result.flushes);
    entry["compactions"] = obs::Json(result.compactions);
    entry["reader_queries"] = obs::Json(result.queries_served);
    entry["reader_samples"] = obs::Json(result.samples_served);
    entry["recount_ms"] = obs::Json(result.recount_ms);
    entry["recount_exact"] = obs::Json(true);
    per_config[std::to_string(memtable_records)] = std::move(entry);

    // Smoke gate: the write path must sustain a sane floor on an
    // in-memory env even while serving readers. Real rates are ~100x
    // this; the floor only catches pathological regressions (e.g. a
    // full tree rebuild per batch).
    if (smoke) {
      MSV_CHECK_MSG(result.inserts_per_sec > 10'000.0,
                    "smoke: insert rate collapsed");
    }
  }

  PrintTable("ingest: sustained insert rate under concurrent reads",
             {"memtable", "inserts_per_s", "flushes", "compactions",
              "queries"},
             rows);
  WriteCsv("ingest.csv",
           {"memtable", "inserts_per_s", "flushes", "compactions",
            "queries"},
           rows);

  obs::Json numbers = obs::Json::Object();
  numbers["base_records"] = obs::Json(base_records);
  numbers["inserts"] = obs::Json(total_inserts);
  numbers["batch_records"] = obs::Json(batch_records);
  numbers["readers"] = obs::Json(static_cast<uint64_t>(readers));
  numbers["smoke"] = obs::Json(smoke);
  numbers["by_memtable_records"] = std::move(per_config);
  WriteBenchJson("ingest", numbers);
  return 0;
}

}  // namespace msv::bench

int main(int argc, char** argv) { return msv::bench::Run(argc, argv); }
