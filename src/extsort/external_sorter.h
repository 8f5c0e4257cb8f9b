// Two-phase multi-way merge sort (TPMMS) over heap files of fixed-size
// records, following Garcia-Molina, Ullman & Widom.
//
// Phase 1 reads the input in memory-budget-sized chunks, sorts each chunk
// in memory and writes it back as a sorted run. Phase 2 merges runs with a
// loser-tree k-way merger; when the number of runs exceeds the fan-in the
// merge recurses in passes. An input that fits in one run is sorted in
// memory and written straight to the output: one read and one write, no
// run file and no merge. The ACE Tree bulk-construction algorithm calls
// this twice (Sec. 5 of the paper: "two external sorts"), and the
// randomly-permuted-file baseline calls it once.

#ifndef MSV_EXTSORT_EXTERNAL_SORTER_H_
#define MSV_EXTSORT_EXTERNAL_SORTER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "io/env.h"
#include "util/result.h"

namespace msv::extsort {

/// Strict weak ordering over raw record bytes.
using RecordLess = std::function<bool(const char*, const char*)>;

struct SortOptions {
  /// In-memory working set for run formation and merge buffers.
  size_t memory_budget_bytes = 64 << 20;
  /// Maximum runs merged in one pass.
  size_t max_fanin = 64;
  /// Name prefix for temporary run files (deleted on success).
  std::string temp_prefix = "extsort_run";

  Status Validate(size_t record_size) const;
};

/// What one sort did. A one-run sort (the input fits in the memory
/// budget) reports initial_runs 1, merge_passes 0 and run_files_written 0:
/// its single run is the output. An empty input reports all zeros.
struct SortMetrics {
  uint64_t records = 0;
  uint64_t initial_runs = 0;
  /// Merge passes, the final merge into the output included.
  uint64_t merge_passes = 0;
  /// Temporary run files written (initial runs plus intermediate merges).
  uint64_t run_files_written = 0;
};

/// Sorts heap file `input_name` into heap file `output_name` using the
/// given ordering. Both live in `env`. `output_name` may equal
/// `input_name`: the input is read to its end before the output is
/// truncated, so a caller whose input is scratch can sort it in place and
/// hold one copy instead of two. On success temp files are removed and
/// metrics (if non-null) describe the work done.
Status ExternalSort(io::Env* env, const std::string& input_name,
                    const std::string& output_name, const RecordLess& less,
                    const SortOptions& options = {},
                    SortMetrics* metrics = nullptr);

}  // namespace msv::extsort

#endif  // MSV_EXTSORT_EXTERNAL_SORTER_H_
