// Randomly permuted file baseline (paper Sec. 2.1).
//
// Build: assign each record a uniform 64-bit key, external-sort on it, and
// strip the key — one external sort, exactly the TPMMS procedure the paper
// describes. Sample: scan the file sequentially and return the records
// matching the predicate; because the stored order is a uniform random
// permutation, every scan prefix yields a true online random sample.

#ifndef MSV_PERMUTED_PERMUTED_FILE_H_
#define MSV_PERMUTED_PERMUTED_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "extsort/external_sorter.h"
#include "io/env.h"
#include "sampling/sample_stream.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "util/result.h"

namespace msv::permuted {

struct PermuteOptions {
  uint64_t seed = 1;
  extsort::SortOptions sort;
};

/// Permutes heap file `input_name` into heap file `output_name` (same
/// record size, same multiset of records, uniformly random order).
Status BuildPermutedFile(io::Env* env, const std::string& input_name,
                         const std::string& output_name,
                         const PermuteOptions& options = {});

/// Online sampler over a permuted file: sequential scan + filter.
class PermutedFileSampler : public sampling::SampleStream {
 public:
  /// Bytes scanned per NextBatch() pull.
  static constexpr size_t kChunkBytes = 128 << 10;

  PermutedFileSampler(const storage::HeapFile* file,
                      storage::RecordLayout layout,
                      sampling::RangeQuery query);

  Result<sampling::SampleBatch> NextBatch() override;
  bool done() const override { return done_; }
  uint64_t samples_returned() const override { return returned_; }
  std::string name() const override { return "permuted"; }

  /// Records scanned so far (matching or not).
  uint64_t records_scanned() const { return scanned_; }

 private:
  const storage::HeapFile* file_;
  storage::RecordLayout layout_;
  sampling::RangeQuery query_;
  storage::HeapFile::Scanner scanner_;
  size_t records_per_pull_;
  uint64_t scanned_ = 0;
  uint64_t returned_ = 0;
  bool done_ = false;
};

}  // namespace msv::permuted

#endif  // MSV_PERMUTED_PERMUTED_FILE_H_
