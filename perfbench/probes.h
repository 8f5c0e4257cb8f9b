// Layer probes for the traced run.
//
// After the traced phase, each read statement it executed is replayed
// layer by layer from the benchmark's own code, every call under a span
// tagged with that statement's id: query::ParseOne, Executor::Execute,
// serve::Client::Call (serve_mix), the view's sampler set-up, its
// NextBatch calls and the aggregator, a ViewSampler drain against a bare
// AceSampler drain, and the statement's leaves read again through
// AceTree::ReadLeaves with the filter kernel and CRC32C replayed over
// them. Nothing inside the library is instrumented.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/sample_view.h"
#include "counting_env.h"
#include "query/executor.h"
#include "serve/client.h"
#include "span_log.h"
#include "workload.h"

namespace perfbench {

struct ProbeTarget {
  msv::query::Executor* executor = nullptr;
  CountingEnv* env = nullptr;  ///< the Env the executor was opened on
  SpanLog* log = nullptr;
  /// A second handle on the executor's view (see OpenProbeView).
  const msv::core::MaterializedSampleView* view = nullptr;
  msv::serve::Client* client = nullptr;  ///< serve_mix only
};

/// Opens view "v" in `env` a second time, without a compactor thread.
/// Only while no statement writes and compaction is idle: opening runs
/// the view's recovery and orphan clean-up.
msv::Result<std::unique_ptr<msv::core::MaterializedSampleView>> OpenProbeView(
    msv::io::Env* env);

/// Replays `reads` in order until `budget_s` has passed, but at least
/// `min_count` of them (or all, if fewer), then reports the per-layer
/// metrics: medians over statements of each statement's total time in a
/// layer. A leaf whose CRC32C does not verify fails the run's checks.
msv::Status ProbeReads(const ProbeTarget& target,
                       const std::vector<std::pair<uint64_t, ReadStmt>>& reads,
                       double budget_s, size_t min_count, Report* report);

/// Write-path probe: a private 200k-row view opened with the Executor's
/// ingest options (compaction driven explicitly instead of by the
/// background thread) takes `insert_seeds.size()` INSERT batches of
/// `rows` rows; Insert, Flush and Compact are timed. Reports
/// core.insert_us, core.flush_us and core.compact_us.
msv::Status ProbeWritePath(uint64_t seed,
                           const std::vector<uint64_t>& insert_seeds,
                           uint64_t rows, SpanLog* log, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
