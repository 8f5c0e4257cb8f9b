// ingest_mixed: one writer thread inserting while one reader runs short
// SAMPLE / ESTIMATE ... SAMPLES 256 statements, both through one
// in-process Executor over MemEnv, from a 200k-row base.
//
// The view runs with the Executor's default ingest options: memtable of
// 4096 records, WAL sync on every insert (a no-op on MemEnv, so the
// flush policy is "sync per INSERT, free"), background compaction on.
// Reads scan every run and copy the delta, and writers take the
// exclusive statement lock, so a read-path gain that costs delta reads,
// or a write-path gain that costs reads, shows here. Threads: the writer,
// the reader (this thread) and the view's compactor.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "workload.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kRows = 200000;
/// Rows per INSERT. Small batches keep the view's growth (and memory)
/// modest over a run while memtable flushes and compactions still cycle
/// several times.
constexpr uint64_t kInsertRows = 16;
/// The writer's think time between an answer and its next INSERT. With
/// none, the writer re-took the exclusive statement lock back to back in
/// some runs and not in others, which tripled the insert count and cut
/// reads by 40% in those runs.
constexpr std::chrono::milliseconds kWriterThinkTime{1};
/// INSERT batches the write-path probe replays: 8 flushes of half a
/// memtable each, hence 2 compactions.
constexpr size_t kProbeInserts = 8 * 2048 / kInsertRows;

std::vector<MixEntry> Mix() {
  const double width = kDayDomain / 10;
  return {{ReadKind::kSample100, width}, {ReadKind::kEstimate256, width}};
}

/// Distinct seed of the writer's i-th INSERT in a run with `seed`.
uint64_t InsertSeed(uint64_t seed, uint64_t i) { return seed * 1000000 + i; }

struct WriterResult {
  LoopStats stats;
  std::vector<uint64_t> acked_seeds;
};

/// Closed loop of INSERT statements for `seconds`, numbering them from
/// `*next` (advanced past the last one sent).
WriterResult RunWriter(msv::query::Executor* executor, uint64_t seed,
                       uint64_t* next, double seconds, SpanLog* log) {
  WriterResult out;
  const auto start = Clock::now();
  while (std::chrono::duration<double>(Clock::now() - start).count() <
         seconds) {
    const uint64_t insert_seed = InsertSeed(seed, (*next)++);
    const std::string text = "INSERT INTO v ROWS " +
                             std::to_string(kInsertRows) + " SEED " +
                             std::to_string(insert_seed) + ";";
    const auto sent = Clock::now();
    msv::Result<std::string> result = [&] {
      ScopedSpan span(log, "stmt.write", NextStatementId());
      return executor->Run(text);
    }();
    ++out.stats.outcomes.attempted;
    if (!result.ok()) {
      ++out.stats.outcomes.errors;
      continue;
    }
    out.stats.write_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - sent).count());
    out.stats.inserted_rows += kInsertRows;
    out.acked_seeds.push_back(insert_seed);
    std::this_thread::sleep_for(kWriterThinkTime);
  }
  out.stats.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

/// One phase: the writer thread and the reader loop side by side.
LoopStats RunPhase(msv::query::Executor* executor, ReadMix* mix,
                   const Oracle& oracle, uint64_t seed, uint64_t* next_insert,
                   double seconds, SpanLog* log, Report* report,
                   std::vector<uint64_t>* acked_seeds) {
  WriterResult writer;
  std::thread thread([&] {
    writer = RunWriter(executor, seed, next_insert, seconds, log);
  });
  LoopStats stats =
      RunReadLoop(executor, mix, oracle, true, seconds, log, report);
  thread.join();
  for (uint64_t s = 0; s < writer.stats.outcomes.errors; ++s) {
    report->CheckFailed("INSERT failed");
  }
  stats.Add(writer.stats);
  acked_seeds->insert(acked_seeds->end(), writer.acked_seeds.begin(),
                      writer.acked_seeds.end());
  return stats;
}

/// Full drain of the view: every row id from 0 to rows - 1 exactly once.
void CheckFullDrain(msv::query::Executor* executor, uint64_t rows,
                    Report* report) {
  msv::Result<std::string> out = executor->Run("SAMPLE FROM v LIMIT " +
                                               std::to_string(rows + 1) + ";");
  if (!out.ok()) {
    report->CheckFailed("full drain: " + out.status().ToString());
    return;
  }
  std::vector<uint8_t> seen(rows, 0);
  uint64_t returned = 0;
  uint64_t bad = 0;
  size_t pos = out->find('\n');  // skip the header row
  while (pos != std::string::npos && pos + 1 < out->size() &&
         (*out)[pos + 1] != '(') {
    const size_t eol = out->find('\n', pos + 1);
    const size_t bar = out->rfind('|', eol);
    const uint64_t id = std::strtoull(out->c_str() + bar + 1, nullptr, 10);
    ++returned;
    if (id >= rows || seen[id]++ != 0) ++bad;
    pos = eol;
  }
  if (returned != rows || bad != 0) {
    report->CheckFailed("full drain after REBUILD returned " +
                        std::to_string(returned) + " rows, expected " +
                        std::to_string(rows) + "; " + std::to_string(bad) +
                        " row ids out of range or repeated");
  }
}

}  // namespace

msv::Status RunIngestMixed(const RunConfig& config, Report* report) {
  MSV_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> db,
      SetUpDatabase([] { return msv::io::NewMemEnv(); }, kRows, config.seed,
                    ReadMix(config.seed ^ kWarmupSeed, Mix()).Take(30),
                    report));
  MSV_ASSIGN_OR_RETURN(Oracle oracle, Oracle::Scan(db->env.get(), kTableFile));
  msv::query::Executor* executor = db->executor.get();

  ReadMix mix(config.seed, Mix());
  uint64_t next_insert = 0;
  std::vector<uint64_t> acked;
  SpanLog log;
  MSV_ASSIGN_OR_RETURN(
      LoopStats stats,
      RunMeasured(config, db->env.get(), &log,
                  [&](double seconds, SpanLog* span_log) {
                    return RunPhase(executor, &mix, oracle, config.seed,
                                    &next_insert, seconds, span_log, report,
                                    &acked);
                  },
                  report));
  if (config.trace) {
    // Probe the read path with the runs and memtable the phase left, once
    // the compactor has nothing in flight.
    MSV_RETURN_IF_ERROR(WaitForCompactionIdle(db->base.get(), kViewFile));
    {
      MSV_ASSIGN_OR_RETURN(auto view, OpenProbeView(db->env.get()));
      const ProbeTarget target{executor, db->env.get(), &log, view.get(),
                               nullptr};
      MSV_RETURN_IF_ERROR(ProbeReads(target, stats.traced_reads,
                                     config.seconds / 4, 30, report));
    }
    const std::vector<uint64_t> probe_seeds(
        acked.begin(),
        acked.begin() + std::min<size_t>(kProbeInserts, acked.size()));
    MSV_RETURN_IF_ERROR(
        ProbeWritePath(config.seed, probe_seeds, kInsertRows, &log, report));
    MSV_RETURN_IF_ERROR(
        log.WriteJson(config.workdir + "/trace-ingest_mixed.json"));
  }

  // Space is read only after REBUILD, once compaction is idle, so it does
  // not depend on where a background compaction happened to be.
  MSV_RETURN_IF_ERROR(executor->Run("REBUILD v;").status());
  MSV_RETURN_IF_ERROR(WaitForCompactionIdle(db->base.get(), kViewFile));
  const uint64_t view_rows = kRows + acked.size() * kInsertRows;
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  MSV_ASSIGN_OR_RETURN(double amp,
                       SpaceAmp(db->base.get(), kRows + view_rows));
  report->Metric("space_amp", amp, "ratio");
  CheckFullDrain(executor, view_rows, report);
  return msv::Status::OK();
}

}  // namespace perfbench
