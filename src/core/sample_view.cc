#include "core/sample_view.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <numeric>
#include <string_view>

#include "obs/log.h"
#include "obs/trace.h"
#include "storage/heap_file.h"
#include "util/logging.h"

namespace msv::core {

// ---------------------------------------------------------------------------
// ViewSampler
// ---------------------------------------------------------------------------

ViewSampler::ViewSampler(std::shared_ptr<const AceTree> tree,
                         std::unique_ptr<AceSampler> base,
                         uint64_t base_estimate, bool base_exact,
                         std::vector<ExactPartition> exact, size_t record_size,
                         uint64_t seed, size_t records_per_pull)
    : tree_(std::move(tree)),
      base_(std::move(base)),
      base_estimate_(base_estimate),
      base_exact_(base_exact),
      exact_(std::move(exact)),
      record_size_(record_size),
      rng_(seed),
      records_per_pull_(records_per_pull),
      c_samples_(obs::MetricRegistry::Global().GetCounter(
          "view.samples_emitted")) {
  for (ExactPartition& p : exact_) {
    // Shuffling indices draws exactly what shuffling the records would.
    p.order.resize(p.records.count());
    std::iota(p.order.begin(), p.order.end(), 0u);
    Shuffle(&p.order, &rng_);
    exact_remaining_ += p.order.size();
  }
  population_ = base_estimate_ + exact_remaining_;
}

uint64_t ViewSampler::BaseRemaining() const {
  if (base_->done()) return base_left_;
  uint64_t estimated =
      base_estimate_ > base_emitted_ ? base_estimate_ - base_emitted_ : 0;
  if (base_exact_) {
    // The caller vouched for the count; records already pulled into the
    // batch are matches in hand, so never report below them.
    return std::max<uint64_t>(estimated, base_left_);
  }
  // At least one more than the batch holds (the stream is not done), but
  // never below what we can see; otherwise trust the estimate.
  uint64_t seen_floor = base_left_ + 1;
  return std::max<uint64_t>(estimated, seen_floor);
}

bool ViewSampler::done() const {
  bool base_done = base_->done() ? base_left_ == 0
                                 : (base_exact_ && BaseRemaining() == 0);
  return base_done && exact_remaining_ == 0;
}

Result<sampling::SampleBatch> ViewSampler::NextBatch() {
  sampling::SampleBatch batch;
  batch.record_size = record_size_;
  size_t emitted = 0;
  while (emitted < records_per_pull_) {
    uint64_t rb = BaseRemaining();
    uint64_t total = rb + exact_remaining_;
    if (total == 0) break;
    // P-partition hypergeometric choice: the next unified sample comes
    // from a partition with probability proportional to its remaining
    // matching count, so every prefix stays a uniform without-replacement
    // sample of the union (Brown & Haas).
    uint64_t draw = rng_.Below(total);
    if (draw < rb) {
      while (base_left_ == 0 && !base_->done()) {
        MSV_ASSIGN_OR_RETURN(base_batch_, base_->NextBatch());
        base_left_ = base_batch_.count();
      }
      if (base_left_ == 0) continue;  // base finished under estimate
      batch.Append(base_batch_.record(--base_left_));
      ++base_emitted_;
    } else {
      // Walk the in-memory partitions by their remaining counts; within
      // the chosen partition the pre-shuffled order makes the head a
      // uniform draw of its remainder.
      uint64_t offset = draw - rb;
      bool taken = false;
      for (ExactPartition& p : exact_) {
        uint64_t remaining = p.order.size() - p.next;
        if (offset < remaining) {
          batch.Append(p.records.record(p.order[p.next]));
          ++p.next;
          --exact_remaining_;
          taken = true;
          break;
        }
        offset -= remaining;
      }
      if (!taken) continue;  // unreachable: counts always cover the draw
    }
    ++emitted;
    ++returned_;
  }
  c_samples_->Add(emitted);
  return batch;
}

// ---------------------------------------------------------------------------
// MaterializedSampleView: construction, open, recovery
// ---------------------------------------------------------------------------

namespace {

/// Pause after a failed background compaction before the next attempt.
constexpr std::chrono::seconds kCompactionRetryBackoff{1};

/// Compaction/rebuild is due once the out-of-tree record count exceeds
/// this fraction of the base.
constexpr double kMaxDeltaFraction = 0.10;

/// Background compaction also runs once this many sealed runs exist.
constexpr size_t kCompactTriggerRuns = 4;

/// Hands the heap pages a compaction just freed back to the OS. A
/// compaction frees tens of megabytes at once (the old generation, the
/// scratch file, the sort buffers), and glibc keeps freed chunks in the
/// arena of whichever thread allocated them; without a trim, the resident
/// size after a compaction depends on how the threads happened to
/// interleave rather than on the view's live data.
void ReleaseFreedHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Parses `text` as `<stem><id>`, where <id> is spelled exactly as
/// std::to_string writes a uint64_t: decimal digits, no sign, no leading
/// zero, no overflow. Anything else ("wal.007", an id past 2^64 - 1) is
/// not a name the view wrote.
bool ParseSuffixId(std::string_view text, std::string_view stem,
                   uint64_t* id) {
  if (!text.starts_with(stem)) return false;
  const std::string_view digits = text.substr(stem.size());
  if (digits.size() > 1 && digits.front() == '0') return false;
  const char* end = digits.data() + digits.size();
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(digits.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *id = value;
  return true;
}

/// The kinds of file a view owns, told apart by the suffix after
/// "<view>.". kScratch covers compaction scratch and any torn atomic
/// write (".tmp"); kBase and kWal carry an id.
enum class ViewFile { kNotOurs, kManifest, kScratch, kBase, kWal };

ViewFile ClassifyViewFile(std::string_view file, const std::string& name,
                          uint64_t* id) {
  if (file.size() <= name.size() || !file.starts_with(name) ||
      file[name.size()] != '.') {
    return ViewFile::kNotOurs;
  }
  const std::string_view suffix = file.substr(name.size() + 1);
  if (suffix == "manifest") return ViewFile::kManifest;
  if (suffix == "scratch" || suffix.ends_with(".tmp")) {
    return ViewFile::kScratch;
  }
  if (ParseSuffixId(suffix, "base.g", id)) return ViewFile::kBase;
  if (ParseSuffixId(suffix, "wal.", id)) return ViewFile::kWal;
  return ViewFile::kNotOurs;
}

}  // namespace

MaterializedSampleView::MaterializedSampleView(io::Env* env, std::string name,
                                               storage::RecordLayout layout,
                                               Options options)
    : env_(env),
      name_(std::move(name)),
      layout_(std::move(layout)),
      options_(options),
      c_inserted_records_(obs::MetricRegistry::Global().GetCounter(
          "ingest.inserted_records")),
      c_flushes_(obs::MetricRegistry::Global().GetCounter("ingest.flushes")),
      c_compactions_(
          obs::MetricRegistry::Global().GetCounter("ingest.compactions")),
      c_compacted_records_(obs::MetricRegistry::Global().GetCounter(
          "ingest.compacted_records")),
      c_compaction_errors_(obs::MetricRegistry::Global().GetCounter(
          "ingest.compaction_errors")),
      c_flush_errors_(obs::MetricRegistry::Global().GetCounter(
          "ingest.flush_errors")),
      c_wal_bytes_(
          obs::MetricRegistry::Global().GetCounter("ingest.wal_bytes")),
      g_memtable_records_(obs::MetricRegistry::Global().GetGauge(
          "ingest.memtable_records")),
      g_run_count_(obs::MetricRegistry::Global().GetGauge("ingest.runs")),
      g_run_records_(
          obs::MetricRegistry::Global().GetGauge("ingest.run_records")),
      g_base_records_(
          obs::MetricRegistry::Global().GetGauge("ingest.base_records")),
      h_flush_us_(
          obs::MetricRegistry::Global().GetHistogram("ingest.flush_us")),
      h_compact_us_(
          obs::MetricRegistry::Global().GetHistogram("ingest.compact_us")) {}

MaterializedSampleView::~MaterializedSampleView() {
  {
    MutexLock lock(mu_);
    stop_requested_ = true;
    cv_.SignalAll();
  }
  if (compactor_thread_.joinable()) compactor_thread_.join();
}

Result<std::unique_ptr<MaterializedSampleView>> MaterializedSampleView::Create(
    io::Env* env, const std::string& name, const std::string& relation_name,
    const storage::RecordLayout& layout, const Options& options) {
  std::unique_ptr<MaterializedSampleView> view(
      new MaterializedSampleView(env, name, layout, options));
  {
    MutexLock lock(view->mu_);
    // Generation 1 is the paper's bulk build over the source relation.
    const std::string base = view->BaseGenName(1);
    MSV_RETURN_IF_ERROR(
        BuildAceTree(env, relation_name, base, layout, options.build));
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<AceTree> tree,
                         AceTree::Open(env, base, layout));
    view->tree_ = std::move(tree);
    view->base_file_ = base;
    view->next_id_ = 2;
    const uint64_t memtable_id = view->next_id_++;
    // The manifest commit makes the view exist; a crash before it leaves
    // only orphans that DropFiles/recovery clean up.
    MSV_RETURN_IF_ERROR(SaveManifest(env, view->ManifestName(),
                                     ViewManifest{base, view->next_id_, 0}));
    view->memtable_ =
        std::make_unique<Memtable>(memtable_id, layout.record_size);
    MSV_ASSIGN_OR_RETURN(view->wal_,
                         WalWriter::Open(env, view->WalName(memtable_id),
                                         layout.record_size));
    view->UpdateGaugesLocked();
  }
  if (options.ingest.background_compaction) {
    view->compactor_thread_ =
        std::thread(&MaterializedSampleView::CompactorMain, view.get());
  }
  return view;
}

Result<std::unique_ptr<MaterializedSampleView>> MaterializedSampleView::Open(
    io::Env* env, const std::string& name, const storage::RecordLayout& layout,
    const Options& options) {
  std::unique_ptr<MaterializedSampleView> view(
      new MaterializedSampleView(env, name, layout, options));
  {
    MutexLock lock(view->mu_);
    MSV_RETURN_IF_ERROR(view->RecoverLocked());
  }
  if (options.ingest.background_compaction) {
    view->compactor_thread_ =
        std::thread(&MaterializedSampleView::CompactorMain, view.get());
  }
  return view;
}

Status MaterializedSampleView::RecoverLocked() {
  MSV_ASSIGN_OR_RETURN(bool have_manifest,
                       env_->FileExists(ManifestName()));
  if (!have_manifest) {
    return Status::NotFound("no such sample view: " + name_);
  }
  MSV_ASSIGN_OR_RETURN(ViewManifest manifest,
                       LoadManifest(env_, ManifestName()));

  MSV_ASSIGN_OR_RETURN(std::unique_ptr<AceTree> tree,
                       AceTree::Open(env_, manifest.base_file, layout_));
  tree_ = std::move(tree);
  base_file_ = manifest.base_file;
  next_id_ = manifest.next_id;

  // One pass over the view's files: collect the WALs the base lacks,
  // move next_id_ above every id in use so no name is ever reused, and
  // drop what no commit names (scratch, torn writes, stale generations,
  // folded WALs).
  MSV_ASSIGN_OR_RETURN(std::vector<std::string> files, env_->ListFiles());
  std::vector<uint64_t> wal_ids;
  for (const std::string& f : files) {
    uint64_t id = 0;
    bool drop = false;
    switch (ClassifyViewFile(f, name_, &id)) {
      case ViewFile::kNotOurs:
      case ViewFile::kManifest:
        continue;
      case ViewFile::kScratch:
        drop = true;
        break;
      case ViewFile::kBase:
        drop = f != base_file_;
        break;
      case ViewFile::kWal:
        drop = id <= manifest.folded;
        if (!drop) wal_ids.push_back(id);
        break;
    }
    next_id_ = std::max(next_id_, id + 1);
    if (drop) env_->DeleteFile(f).IgnoreError();
  }

  // Every WAL but the newest belongs to a sealed memtable: replay it into
  // a run. The newest becomes the live memtable again.
  std::sort(wal_ids.begin(), wal_ids.end());
  for (size_t i = 0; i < wal_ids.size(); ++i) {
    MSV_ASSIGN_OR_RETURN(std::string data,  // NOLINT(msv-hot-path-alloc) WAL replay, recovery-time cold path
                         ReadWal(env_, WalName(wal_ids[i]),
                                 layout_.record_size));
    auto replay =
        std::make_unique<Memtable>(wal_ids[i], layout_.record_size);
    replay->Append(data.data(), data.size() / layout_.record_size);
    if (i + 1 == wal_ids.size()) {
      memtable_ = std::move(replay);
    } else if (!replay->empty()) {
      run_records_ += replay->count();
      runs_.push_back(replay->Sealed(layout_));
    }
  }
  if (memtable_ == nullptr) {
    memtable_ = std::make_unique<Memtable>(next_id_++, layout_.record_size);
  }
  MSV_ASSIGN_OR_RETURN(wal_, WalWriter::Open(env_, WalName(memtable_->id()),
                                             layout_.record_size));
  UpdateGaugesLocked();
  return Status::OK();
}

Status MaterializedSampleView::DropFiles(io::Env* env,
                                         const std::string& name) {
  MSV_ASSIGN_OR_RETURN(std::vector<std::string> files, env->ListFiles());
  for (const std::string& f : files) {
    uint64_t id = 0;
    if (ClassifyViewFile(f, name, &id) != ViewFile::kNotOurs) {
      env->DeleteFile(f).IgnoreError();
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path: Insert, Flush
// ---------------------------------------------------------------------------

Status MaterializedSampleView::Insert(const char* records, size_t count) {
  if (count == 0) return Status::OK();
  MutexLock lock(mu_);
  // WAL first: the insert is acknowledged only once it would survive a
  // crash, then it becomes visible via the memtable.
  MSV_RETURN_IF_ERROR(wal_->Append(records, layout_.record_size, count));
  memtable_->Append(records, count);
  c_inserted_records_->Add(count);
  c_wal_bytes_->Add(count * layout_.record_size);
  if (memtable_->count() >= options_.ingest.memtable_max_records) {
    // Once the records are WAL-durable and memtable-visible the insert
    // has succeeded; an inline flush failure must not be surfaced as
    // "insert failed" — a caller retrying on that error would duplicate
    // records. The failure is counted and logged, the memtable stays
    // intact, and the flush retries at the next threshold crossing (or
    // an explicit Flush(), which does report errors).
    Status flushed = FlushLocked();
    if (!flushed.ok()) {
      c_flush_errors_->Add(1);
      MSV_LOG(Warn) << "view " << name_
                    << " inline flush: " << flushed.ToString();
    }
  }
  UpdateGaugesLocked();
  if (CompactionTriggeredLocked()) cv_.SignalAll();
  return Status::OK();
}

Status MaterializedSampleView::Flush() {
  MutexLock lock(mu_);
  Status st = FlushLocked();
  UpdateGaugesLocked();
  if (CompactionTriggeredLocked()) cv_.SignalAll();
  return st;
}

Status MaterializedSampleView::FlushLocked() {
  if (memtable_->empty()) return Status::OK();
  const uint64_t start_us = obs::WallTimeUs();
  const uint64_t new_memtable_id = next_id_;

  // Both fallible steps come first, so a failure backs out with the live
  // memtable and WAL intact. The sealed memtable's WAL stays as the run's
  // only durable copy, so it gets a durability flush of its own (every
  // append already synced). Once the next WAL exists, recovery reads the
  // old one as a sealed run.
  MSV_RETURN_IF_ERROR(wal_->Sync());
  auto new_wal = WalWriter::Open(env_, WalName(new_memtable_id),
                                 layout_.record_size);
  if (!new_wal.ok()) {
    env_->DeleteFile(WalName(new_memtable_id)).IgnoreError();
    return new_wal.status();
  }

  next_id_ = new_memtable_id + 1;
  run_records_ += memtable_->count();
  runs_.push_back(memtable_->Sealed(layout_));
  memtable_ = std::make_unique<Memtable>(new_memtable_id, layout_.record_size);
  wal_ = std::move(new_wal).value();
  c_flushes_->Add(1);
  h_flush_us_->Record(obs::WallTimeUs() - start_us);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

bool MaterializedSampleView::CompactionTriggeredLocked() const {
  if (runs_.empty()) return false;
  if (runs_.size() >= kCompactTriggerRuns) return true;
  return static_cast<double>(run_records_) >
         kMaxDeltaFraction * static_cast<double>(tree_->meta().num_records);
}

Status MaterializedSampleView::Compact() { return CompactOnce(); }

Status MaterializedSampleView::Rebuild() {
  MSV_RETURN_IF_ERROR(Flush());
  return CompactOnce();
}

Status MaterializedSampleView::BuildCompactedBase(const CompactionPlan& plan) {
  // Dump the sealed inputs — base leaves in order (a sequential read of
  // the data region) plus every sealed run from memory, oldest first —
  // into a scratch heap file, then rebuild from it. The build consumes the
  // dump: a 1-d build sorts it in place instead of into a sorted copy, and
  // the dump is deleted once phase 2a has read it. All inputs are
  // immutable; no lock is held.
  const std::string scratch = ScratchName();
  auto write_scratch = [&]() -> Status {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<storage::HeapFileWriter> writer,
                         storage::HeapFileWriter::Create(
                             env_, scratch, layout_.record_size));
    const uint32_t height = plan.base->meta().height;
    for (uint64_t leaf = 0; leaf < plan.base->meta().num_leaves; ++leaf) {
      MSV_ASSIGN_OR_RETURN(LeafData data, plan.base->ReadLeaf(leaf, height));
      for (uint32_t s = 1; s <= height; ++s) {
        for (size_t i = 0; i < data.SectionCount(s); ++i) {
          MSV_RETURN_IF_ERROR(writer->Append(data.SectionRecord(s, i)));
        }
      }
    }
    for (const std::shared_ptr<const Memtable>& run : plan.runs) {
      for (uint64_t i = 0; i < run->count(); ++i) {
        MSV_RETURN_IF_ERROR(writer->Append(run->record(i)));
      }
    }
    return writer->Finish();
  };
  Status st = write_scratch();
  if (st.ok()) {
    AceBuildOptions build = options_.build;
    build.seed = plan.build_seed;  // fresh section/leaf randomness
    st = BuildAceTreeFromScratch(env_, scratch, plan.output_file, layout_,
                                 build);
  }
  // The build deletes the dump once read; this covers a failure before.
  env_->DeleteFile(scratch).IgnoreError();  // best-effort scratch cleanup
  return st;
}

Status MaterializedSampleView::CompactOnce() {
  CompactionPlan plan;
  {
    MutexLock lock(mu_);
    while (compacting_) cv_.Wait(mu_);
    if (runs_.empty()) return Status::OK();
    compacting_ = true;
    plan.base = tree_;
    plan.runs = runs_;
    plan.output_file = BaseGenName(next_id_);
    plan.build_seed = options_.build.seed ^ (0x517cc1b727220a95ULL * next_id_);
    ++next_id_;
  }
  const uint64_t start_us = obs::WallTimeUs();
  Status result = BuildCompactedBase(plan);

  bool committed = false;
  std::vector<std::string> obsolete;
  {
    MutexLock lock(mu_);
    if (result.ok()) {
      auto opened = AceTree::Open(env_, plan.output_file, layout_);
      if (!opened.ok()) {
        result = opened.status();
      } else {
        // Commit: the manifest swap retires the old generation and the
        // folded runs' WALs in one atomic step. The plan's runs are the
        // oldest runs_, so the newest of them bounds `folded`; runs sealed
        // while we built stay live. The old base file and WALs are
        // deleted only after the commit — never before — so a crash
        // anywhere leaves an openable tree and every record.
        ViewManifest m;
        m.base_file = plan.output_file;
        m.next_id = next_id_;
        m.folded = plan.runs.back()->id();
        Status saved = SaveManifest(env_, ManifestName(), m);
        if (!saved.ok()) {
          result = saved;
        } else {
          committed = true;
          obsolete.push_back(base_file_);
          uint64_t folded_records = 0;
          for (const std::shared_ptr<const Memtable>& run : plan.runs) {
            obsolete.push_back(WalName(run->id()));
            folded_records += run->count();
          }
          MSV_DCHECK(runs_.size() >= plan.runs.size() &&
                     runs_.front() == plan.runs.front());
          runs_.erase(runs_.begin(), runs_.begin() + plan.runs.size());
          run_records_ -= folded_records;
          base_file_ = plan.output_file;
          tree_ = std::shared_ptr<const AceTree>(std::move(opened.value()));
          c_compactions_->Add(1);
          c_compacted_records_->Add(folded_records);
          h_compact_us_->Record(obs::WallTimeUs() - start_us);
          UpdateGaugesLocked();
        }
      }
    }
    compacting_ = false;
    cv_.SignalAll();
  }
  if (!committed) {
    env_->DeleteFile(plan.output_file).IgnoreError();
  }
  // Old generation: open handles (live samplers, MemEnv shared file data,
  // POSIX fd semantics) keep its data readable. Folded runs stay in
  // memory for as long as a sampler's snapshot holds them.
  for (const std::string& f : obsolete) env_->DeleteFile(f).IgnoreError();
  // The plan may hold the last handles on the old generation and the
  // folded runs; drop them before trimming so their memory goes too.
  plan = CompactionPlan();
  ReleaseFreedHeap();
  return result;
}

// ---------------------------------------------------------------------------
// Background compactor
// ---------------------------------------------------------------------------

void MaterializedSampleView::CompactorMain() {
  obs::SetThreadLabel("view-compactor");
  for (;;) {
    {
      MutexLock lock(mu_);
      // Every change that can fire the trigger signals cv_: Insert,
      // Flush, the end of CompactOnce and the destructor.
      while (!stop_requested_ &&
             !(CompactionTriggeredLocked() && !compacting_)) {
        cv_.Wait(mu_);
      }
      if (stop_requested_) return;
    }
    Status st = CompactOnce();
    if (!st.ok()) {
      c_compaction_errors_->Add(1);
      MSV_LOG(Warn) << "view " << name_ << " compaction: " << st.ToString();
      // Back off so a persistently failing compaction doesn't spin.
      MutexLock lock(mu_);
      if (stop_requested_) return;
      cv_.WaitFor(mu_, kCompactionRetryBackoff);
    }
  }
}

// ---------------------------------------------------------------------------
// Read path: accessors, Sample
// ---------------------------------------------------------------------------

uint64_t MaterializedSampleView::base_records() const {
  MutexLock lock(mu_);
  return tree_->meta().num_records;
}

uint64_t MaterializedSampleView::DeltaRecordsLocked() const {
  return run_records_ + memtable_->count();
}

uint64_t MaterializedSampleView::delta_records() const {
  MutexLock lock(mu_);
  return DeltaRecordsLocked();
}

uint64_t MaterializedSampleView::total_records() const {
  MutexLock lock(mu_);
  return tree_->meta().num_records + DeltaRecordsLocked();
}

uint64_t MaterializedSampleView::memtable_records() const {
  MutexLock lock(mu_);
  return memtable_->count();
}

uint64_t MaterializedSampleView::run_count() const {
  MutexLock lock(mu_);
  return runs_.size();
}

bool MaterializedSampleView::NeedsRebuild() const {
  MutexLock lock(mu_);
  return static_cast<double>(DeltaRecordsLocked()) >
         kMaxDeltaFraction * static_cast<double>(tree_->meta().num_records);
}

std::shared_ptr<const AceTree> MaterializedSampleView::tree() const {
  MutexLock lock(mu_);
  return tree_;
}

void MaterializedSampleView::UpdateGaugesLocked() {
  g_memtable_records_->Set(static_cast<double>(memtable_->count()));
  g_run_count_->Set(static_cast<double>(runs_.size()));
  g_run_records_->Set(static_cast<double>(run_records_));
  g_base_records_->Set(static_cast<double>(tree_->meta().num_records));
}

Result<std::unique_ptr<ViewSampler>> MaterializedSampleView::Sample(
    const sampling::RangeQuery& query, uint64_t seed,
    std::optional<uint64_t> exact_base_count) const {
  MSV_RETURN_IF_ERROR(query.Validate(layout_));

  // Under the lock, take only a consistent snapshot: the tree handle,
  // the shared runs, and a copy of the memtable's matches (the memtable
  // mutates under mu_, but it is small — bounded by the flush threshold).
  // Runs are immutable, so their matches are collected after release and
  // a sampler never stalls Insert/Flush. Partition order: runs oldest
  // first, then the memtable.
  std::shared_ptr<const AceTree> tree;
  std::vector<std::shared_ptr<const Memtable>> runs;
  ViewSampler::ExactPartition memtable_matches;
  {
    MutexLock lock(mu_);
    tree = tree_;
    runs = runs_;
    memtable_->CollectMatches(layout_, query, &memtable_matches.records);
  }
  std::vector<ViewSampler::ExactPartition> exact(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i]->CollectMatches(layout_, query, &exact[i].records);
  }
  exact.push_back(std::move(memtable_matches));

  uint64_t base_estimate;
  bool base_exact = exact_base_count.has_value();
  if (base_exact) {
    base_estimate = *exact_base_count;
  } else {
    MSV_ASSIGN_OR_RETURN(base_estimate, tree->EstimateMatchCount(query));
  }
  auto base = std::make_unique<AceSampler>(tree.get(), query, seed);
  return std::unique_ptr<ViewSampler>(new ViewSampler(
      tree, std::move(base), base_estimate, base_exact, std::move(exact),
      layout_.record_size, seed ^ 0x9e3779b97f4a7c15ULL, 64));
}

}  // namespace msv::core
