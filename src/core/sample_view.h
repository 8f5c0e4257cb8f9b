// MaterializedSampleView: the managed, updatable form of a sample view.
//
// The ACE tree is bulk-built and not incrementally updatable; the paper
// (Sec. 9) prescribes the classic differential-file remedy: keep new
// records outside the tree and, when sampling, draw from each partition
// with the appropriate hypergeometric probability (citing Brown & Haas
// for multi-partition sampling). This module productionizes that remedy
// with LSM structuring:
//
//   view "V" = V.base.g<N>  the live ACE tree generation
//            + runs         sealed memtables, sorted, in memory
//            + memtable     the in-memory insert buffer
//            + V.wal.<i>    one WAL per memtable; a run's stays until
//                           compaction folds the run into the tree
//            + V.manifest   checksummed; names the live tree and the
//                           highest WAL id folded into it
//
// Insert() appends to the WAL (durable before acknowledgement) and the
// memtable; a full memtable is sealed into a run by syncing its WAL and
// opening the next one — no file is written and the manifest is not
// touched. A background compaction thread folds base + runs into a fresh
// tree generation with BuildAceTree and commits the swap by atomically
// rewriting the manifest — the old generation and the folded WALs are
// deleted only after the new one is durably committed, so a crash at any
// point leaves an openable view and every acknowledged insert.
//
// Sampling interleaves the base tree's online sampler with in-memory
// shuffles of each run's and the memtable's matching records: each
// emitted record comes from a partition with probability proportional to
// that partition's remaining matching count, which keeps every prefix of
// the unified stream a uniform without-replacement sample of the whole
// view (P-partition hypergeometric interleave). Samplers snapshot the
// partition set under the view mutex, so concurrent inserts, flushes and
// compactions never disturb a running stream.

#ifndef MSV_CORE_SAMPLE_VIEW_H_
#define MSV_CORE_SAMPLE_VIEW_H_

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "core/ingest.h"
#include "io/env.h"
#include "obs/metrics.h"
#include "sampling/sample_stream.h"
#include "util/result.h"
#include "util/sync.h"

namespace msv::core {

/// A unified online sampler over base tree + runs + memtable. Single-use,
/// like every SampleStream. The sampler owns a snapshot of its partition
/// set (shared tree handle, copied run/memtable matches), so it stays
/// valid while the view compacts or flushes concurrently.
class ViewSampler : public sampling::SampleStream {
 public:
  Result<sampling::SampleBatch> NextBatch() override;
  bool done() const override;
  uint64_t samples_returned() const override { return returned_; }
  std::string name() const override { return "sample-view"; }

  /// Number of partitions in the interleave (base + runs + memtable).
  size_t partitions() const { return 1 + exact_.size(); }
  /// Matching records in the sampled snapshot: the base count the
  /// interleave uses plus the exact run and memtable matches. The
  /// population SUM and COUNT estimates scale by.
  uint64_t population() const { return population_; }
  /// Leaf pages the base partition has read (I/O visibility for tests).
  uint64_t base_leaves_read() const { return base_->leaves_read(); }

 private:
  friend class MaterializedSampleView;

  /// One fully in-memory partition: a run's or the memtable's matches,
  /// packed, emitted in a pre-shuffled order of record indices; `next`
  /// records have been emitted.
  struct ExactPartition {
    sampling::SampleBatch records;
    std::vector<uint32_t> order;
    size_t next = 0;
  };

  ViewSampler(std::shared_ptr<const AceTree> tree,
              std::unique_ptr<AceSampler> base, uint64_t base_estimate,
              bool base_exact, std::vector<ExactPartition> exact,
              size_t record_size, uint64_t seed, size_t records_per_pull);

  /// Remaining matching records believed to be in the base partition.
  uint64_t BaseRemaining() const;

  std::shared_ptr<const AceTree> tree_;  // keeps the sampled generation alive
  std::unique_ptr<AceSampler> base_;
  /// The last pulled base batch; its first base_left_ records are not yet
  /// emitted and go out from the back.
  sampling::SampleBatch base_batch_;
  size_t base_left_ = 0;
  uint64_t base_estimate_;               // matching count (estimate or exact)
  bool base_exact_;                      // caller vouched for base_estimate_
  uint64_t base_emitted_ = 0;

  std::vector<ExactPartition> exact_;  // runs (oldest first), then memtable
  uint64_t exact_remaining_ = 0;
  uint64_t population_ = 0;

  size_t record_size_;
  Pcg64 rng_;
  size_t records_per_pull_;
  uint64_t returned_ = 0;
  obs::Counter* c_samples_;  // view.samples_emitted
};

/// Catalog-level handle to one named sample view. Thread-safe: Insert(),
/// Sample(), the accessors and the background compaction may run
/// concurrently from different threads.
class MaterializedSampleView {
 public:
  struct Options {
    AceBuildOptions build;
    /// Write-path knobs (memtable size, background compaction).
    IngestOptions ingest;
  };

  /// Creates view `name` over the records of heap file `relation_name`.
  static Result<std::unique_ptr<MaterializedSampleView>> Create(
      io::Env* env, const std::string& name, const std::string& relation_name,
      const storage::RecordLayout& layout, const Options& options);
  static Result<std::unique_ptr<MaterializedSampleView>> Create(
      io::Env* env, const std::string& name, const std::string& relation_name,
      const storage::RecordLayout& layout) {
    return Create(env, name, relation_name, layout, Options());
  }

  /// Opens an existing view, replaying WALs and completing any structural
  /// change the manifest doesn't name (crash recovery). NotFound when the
  /// view has no manifest.
  static Result<std::unique_ptr<MaterializedSampleView>> Open(
      io::Env* env, const std::string& name,
      const storage::RecordLayout& layout, const Options& options);
  static Result<std::unique_ptr<MaterializedSampleView>> Open(
      io::Env* env, const std::string& name,
      const storage::RecordLayout& layout) {
    return Open(env, name, layout, Options());
  }

  ~MaterializedSampleView();

  /// Appends new records (record_size bytes each). Durable (WAL) and
  /// visible to samplers created afterwards when this returns OK. May
  /// flush the memtable inline when it reaches its threshold; an inline
  /// flush failure does NOT fail the insert (the records are already
  /// durable — failing here would invite a duplicating retry). It is
  /// counted in ingest.flush_errors and retried on the next crossing.
  /// An error return means the records were not acknowledged durable and
  /// it is safe to retry the batch.
  Status Insert(const char* records, size_t count) MSV_EXCLUDES(mu_);

  /// Seals the memtable (if non-empty) into an immutable sorted run.
  Status Flush() MSV_EXCLUDES(mu_);

  /// Folds all current runs into a fresh base tree generation. No-op when
  /// there are no runs. Safe to call while inserts proceed: the run set
  /// is sealed at the start; records inserted afterwards go to the
  /// memtable and later runs, and are never lost.
  Status Compact() MSV_EXCLUDES(mu_);

  /// Flush() + Compact(): folds everything inserted so far into the tree.
  Status Rebuild() MSV_EXCLUDES(mu_);

  /// Records in the base ACE tree / outside it (runs + memtable).
  uint64_t base_records() const MSV_EXCLUDES(mu_);
  uint64_t delta_records() const MSV_EXCLUDES(mu_);
  /// base_records() + delta_records(), read under one lock hold, so a
  /// compaction moving run records into the base never shows in the sum.
  uint64_t total_records() const MSV_EXCLUDES(mu_);
  uint64_t memtable_records() const MSV_EXCLUDES(mu_);
  uint64_t run_count() const MSV_EXCLUDES(mu_);
  bool NeedsRebuild() const MSV_EXCLUDES(mu_);

  /// Starts a unified online sampler for `query`. `exact_base_count`,
  /// when provided, overrides the internal-node estimate of the base
  /// match count — callers that know it (e.g. from a prior completed
  /// stream) get an exactly hypergeometric interleave, including the
  /// zero-match case that skips base I/O entirely. The caller's count
  /// must be correct; a low-ball ends the base stream early.
  Result<std::unique_ptr<ViewSampler>> Sample(
      const sampling::RangeQuery& query, uint64_t seed,
      std::optional<uint64_t> exact_base_count = std::nullopt) const
      MSV_EXCLUDES(mu_);

  /// The live base tree generation. Callers hold a shared snapshot that
  /// survives concurrent compaction.
  std::shared_ptr<const AceTree> tree() const MSV_EXCLUDES(mu_);

  /// Deletes every file belonging to view `name` (base generations, WALs,
  /// manifest, scratch). Best-effort; missing files are fine.
  static Status DropFiles(io::Env* env, const std::string& name);

 private:
  MaterializedSampleView(io::Env* env, std::string name,
                         storage::RecordLayout layout, Options options);

  std::string ManifestName() const { return name_ + ".manifest"; }
  std::string BaseGenName(uint64_t id) const {
    return name_ + ".base.g" + std::to_string(id);
  }
  std::string WalName(uint64_t id) const {
    return name_ + ".wal." + std::to_string(id);
  }
  std::string ScratchName() const { return name_ + ".scratch"; }

  /// The inputs of one compaction, sealed under mu_ and processed
  /// without it (all inputs are immutable).
  struct CompactionPlan {
    std::shared_ptr<const AceTree> base;
    std::vector<std::shared_ptr<const Memtable>> runs;
    std::string output_file;
    uint64_t build_seed = 0;
  };

  Status RecoverLocked() MSV_REQUIRES(mu_);
  Status FlushLocked() MSV_REQUIRES(mu_);
  bool CompactionTriggeredLocked() const MSV_REQUIRES(mu_);
  uint64_t DeltaRecordsLocked() const MSV_REQUIRES(mu_);
  void UpdateGaugesLocked() MSV_REQUIRES(mu_);

  /// One compaction cycle: seal the run set, build the new generation
  /// (unlocked), commit via the manifest, delete obsolete files.
  Status CompactOnce() MSV_EXCLUDES(mu_);
  Status BuildCompactedBase(const CompactionPlan& plan);

  void CompactorMain() MSV_EXCLUDES(mu_);

  io::Env* const env_;
  const std::string name_;
  const storage::RecordLayout layout_;
  const Options options_;

  mutable Mutex mu_;
  /// Signaled on: compaction trigger, compaction completion, shutdown.
  mutable CondVar cv_;

  std::shared_ptr<const AceTree> tree_ MSV_GUARDED_BY(mu_);
  std::string base_file_ MSV_GUARDED_BY(mu_);
  std::unique_ptr<Memtable> memtable_ MSV_GUARDED_BY(mu_);
  std::unique_ptr<WalWriter> wal_ MSV_GUARDED_BY(mu_);
  /// Sealed memtables, oldest first; each is backed by its WAL.
  std::vector<std::shared_ptr<const Memtable>> runs_ MSV_GUARDED_BY(mu_);
  uint64_t run_records_ MSV_GUARDED_BY(mu_) = 0;
  uint64_t next_id_ MSV_GUARDED_BY(mu_) = 1;
  /// True while one compaction is between seal and commit; compactions
  /// are serialized through this flag (the builder runs unlocked).
  bool compacting_ MSV_GUARDED_BY(mu_) = false;

  bool stop_requested_ MSV_GUARDED_BY(mu_) = false;

  // Process-wide ingest metrics (registry-owned).
  obs::Counter* const c_inserted_records_;
  obs::Counter* const c_flushes_;
  obs::Counter* const c_compactions_;
  obs::Counter* const c_compacted_records_;
  obs::Counter* const c_compaction_errors_;
  obs::Counter* const c_flush_errors_;
  obs::Counter* const c_wal_bytes_;
  obs::Gauge* const g_memtable_records_;
  obs::Gauge* const g_run_count_;
  obs::Gauge* const g_run_records_;
  obs::Gauge* const g_base_records_;
  obs::LogHistogram* const h_flush_us_;
  obs::LogHistogram* const h_compact_us_;

  /// Runs CompactorMain(). Started at the end of Create()/Open() and
  /// joined by the destructor; no other code touches it. Declared last,
  /// after everything the thread uses.
  std::thread compactor_thread_;
};

}  // namespace msv::core

#endif  // MSV_CORE_SAMPLE_VIEW_H_
