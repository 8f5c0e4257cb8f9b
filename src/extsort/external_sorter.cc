#include "extsort/external_sorter.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "extsort/loser_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/heap_file.h"
#include "util/logging.h"

namespace msv::extsort {

namespace {

using storage::HeapFile;
using storage::HeapFileWriter;
using storage::TwoBlockChunk;

std::string RunName(const std::string& prefix, uint64_t id) {
  return prefix + "." + std::to_string(id);
}

// Reads the input sequentially, sorts chunks in memory, writes sorted runs.
// When the whole input fits in one chunk, that one run is written straight
// to `output_name` and no run file is made; it is written only after the
// input has been read to its end, so `output_name` may name the input.
Result<std::vector<std::string>> FormRuns(io::Env* env, const HeapFile& input,
                                          const std::string& output_name,
                                          const RecordLess& less,
                                          const SortOptions& options,
                                          uint64_t* next_run_id) {
  const size_t record_size = input.record_size();
  const size_t chunk_records =
      std::max<size_t>(1, options.memory_budget_bytes / record_size);
  const bool one_run = input.record_count() <= chunk_records;

  // Buffers hold at most the input, so a small sort gets small buffers;
  // run boundaries and write sizes follow chunk_records, not the buffers.
  const size_t held_records = static_cast<size_t>(
      std::min<uint64_t>(chunk_records, input.record_count()));
  std::vector<std::string> runs;
  std::vector<char> chunk(held_records * record_size);
  std::vector<const char*> ptrs;
  ptrs.reserve(held_records);

  auto scanner = input.NewScanner(TwoBlockChunk(4 << 20, record_size));
  uint64_t remaining = input.record_count();
  while (remaining > 0) {
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(chunk_records, remaining));
    for (size_t i = 0; i < n; ++i) {
      MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
      MSV_CHECK(rec != nullptr);
      std::memcpy(chunk.data() + i * record_size, rec, record_size);
    }
    remaining -= n;

    ptrs.clear();
    for (size_t i = 0; i < n; ++i) {
      ptrs.push_back(chunk.data() + i * record_size);
    }
    std::sort(ptrs.begin(), ptrs.end(),
              [&less](const char* a, const char* b) { return less(a, b); });

    std::string run_name = one_run
                               ? output_name
                               : RunName(options.temp_prefix, (*next_run_id)++);
    // Batched run writes: a bigger writer buffer turns the run dump into
    // fewer, larger accesses interleaving less with the input scan.
    const size_t writer_buffer = std::min(
        std::max<size_t>(1 << 20, options.memory_budget_bytes / 8),
        n * record_size);
    MSV_ASSIGN_OR_RETURN(
        std::unique_ptr<HeapFileWriter> writer,
        HeapFileWriter::Create(env, run_name, record_size, writer_buffer));
    for (const char* p : ptrs) {
      MSV_RETURN_IF_ERROR(writer->Append(p));
    }
    MSV_RETURN_IF_ERROR(writer->Finish());
    runs.push_back(std::move(run_name));
  }
  return runs;
}

// Merges `run_names` into the heap file `output_name`.
Status MergeRuns(io::Env* env, const std::vector<std::string>& run_names,
                 const std::string& output_name, const RecordLess& less,
                 const SortOptions& options) {
  const size_t k = run_names.size();
  MSV_CHECK(k >= 1);

  std::vector<std::unique_ptr<HeapFile>> files;
  std::vector<std::unique_ptr<HeapFile::Scanner>> scanners;
  std::vector<const char*> current(k, nullptr);
  files.reserve(k);
  scanners.reserve(k);

  size_t record_size = 0;
  uint64_t total = 0;
  const size_t per_input_buffer =
      std::max<size_t>(64 << 10, options.memory_budget_bytes / (k + 1));
  for (const std::string& name : run_names) {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> f, HeapFile::Open(env, name));
    record_size = f->record_size();
    total += f->record_count();
    // A run that fits in one block is still fetched by one read, so the
    // block shrinks to the run without changing any device access.
    const size_t run_bytes =
        static_cast<size_t>(f->record_count()) * record_size;
    scanners.push_back(std::make_unique<HeapFile::Scanner>(f->NewScanner(
        TwoBlockChunk(std::min(per_input_buffer, run_bytes), record_size))));
    files.push_back(std::move(f));
  }

  // Prime each input.
  for (size_t i = 0; i < k; ++i) {
    MSV_ASSIGN_OR_RETURN(current[i], scanners[i]->Next());
  }

  LoserTree tree(
      k,
      [&](size_t a, size_t b) { return less(current[a], current[b]); },
      [&](size_t i) { return current[i] == nullptr; });

  // Each input refills two blocks per read, and the output writer's
  // buffer is doubled to match. That halves the per-input refill seeks
  // at ~2x the per-input buffer memory. The writer never grows past the
  // records it will hold.
  const size_t writer_buffer = std::min(
      2 * per_input_buffer, static_cast<size_t>(total) * record_size);
  MSV_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileWriter> writer,
      HeapFileWriter::Create(env, output_name, record_size, writer_buffer));

  uint64_t written = 0;
  while (tree.Top() != LoserTree::kInvalid) {
    size_t i = tree.Top();
    MSV_RETURN_IF_ERROR(writer->Append(current[i]));
    ++written;
    MSV_ASSIGN_OR_RETURN(current[i], scanners[i]->Next());
    tree.Advance();
  }
  MSV_RETURN_IF_ERROR(writer->Finish());
  if (written != total) {
    return Status::Internal("merge lost records: wrote " +
                            std::to_string(written) + " of " +
                            std::to_string(total));
  }
  return Status::OK();
}

}  // namespace

Status SortOptions::Validate(size_t record_size) const {
  if (memory_budget_bytes < record_size) {
    return Status::InvalidArgument(
        "memory budget smaller than one record");
  }
  if (max_fanin < 2) {
    return Status::InvalidArgument("max_fanin must be at least 2");
  }
  return Status::OK();
}

Status ExternalSort(io::Env* env, const std::string& input_name,
                    const std::string& output_name, const RecordLess& less,
                    const SortOptions& options, SortMetrics* metrics) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> input,
                       HeapFile::Open(env, input_name));
  MSV_RETURN_IF_ERROR(options.Validate(input->record_size()));

  SortMetrics local;
  local.records = input->record_count();

  // Empty input: write an empty output directly.
  if (input->record_count() == 0) {
    MSV_ASSIGN_OR_RETURN(
        std::unique_ptr<HeapFileWriter> writer,
        HeapFileWriter::Create(env, output_name, input->record_size()));
    MSV_RETURN_IF_ERROR(writer->Finish());
    if (metrics != nullptr) *metrics = local;
    return Status::OK();
  }

  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  reg.GetCounter("extsort.records")->Add(local.records);

  uint64_t next_run_id = 0;
  std::vector<std::string> runs;
  {
    obs::Span span = obs::StartTraceSpan("extsort.form_runs");
    MSV_ASSIGN_OR_RETURN(runs, FormRuns(env, *input, output_name, less,
                                        options, &next_run_id));
    span.AddAttr("runs", static_cast<uint64_t>(runs.size()));
  }
  input.reset();
  local.initial_runs = runs.size();
  reg.GetCounter("extsort.runs")->Add(runs.size());
  if (runs.front() == output_name) {  // one run, already the output
    if (metrics != nullptr) *metrics = local;
    return Status::OK();
  }
  local.run_files_written = runs.size();

  // Merge passes until at most max_fanin runs remain, then one final merge
  // into the output.
  std::vector<std::string> to_delete = runs;
  while (runs.size() > options.max_fanin) {
    obs::Span span = obs::StartTraceSpan("extsort.merge_pass");
    span.AddAttr("inputs", static_cast<uint64_t>(runs.size()));
    std::vector<std::string> next;
    for (size_t i = 0; i < runs.size(); i += options.max_fanin) {
      size_t end = std::min(runs.size(), i + options.max_fanin);
      std::vector<std::string> group(runs.begin() + i, runs.begin() + end);
      std::string merged = RunName(options.temp_prefix, next_run_id++);
      MSV_RETURN_IF_ERROR(MergeRuns(env, group, merged, less, options));
      next.push_back(merged);
      to_delete.push_back(merged);
      ++local.run_files_written;
    }
    runs = std::move(next);
    ++local.merge_passes;
  }

  {
    obs::Span span = obs::StartTraceSpan("extsort.final_merge");
    span.AddAttr("inputs", static_cast<uint64_t>(runs.size()));
    MSV_RETURN_IF_ERROR(MergeRuns(env, runs, output_name, less, options));
  }
  ++local.merge_passes;
  reg.GetCounter("extsort.merge_passes")->Add(local.merge_passes);

  for (const std::string& name : to_delete) {
    // Best-effort cleanup; a failure to delete a temp run is not a sort
    // failure.
    env->DeleteFile(name).IgnoreError();  // best-effort scratch cleanup
  }
  if (metrics != nullptr) *metrics = local;
  return Status::OK();
}

}  // namespace msv::extsort
