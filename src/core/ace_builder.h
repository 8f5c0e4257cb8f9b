// Bulk construction of an ACE Tree (paper Sec. 5).
//
// Phase 1 determines split points: for one-dimensional keys the input is
// external-sorted by key and split keys are the exact recursive medians
// read off rank boundaries in one sequential pass. For k-d trees (Sec. 7)
// exact per-partition medians of alternating dimensions would require a
// pass per level, so split points are computed from a large uniform
// reservoir sample (exact when the sample covers the whole input); the
// substitution is recorded in DESIGN.md.
//
// Phase 2 assigns each record a uniform section number s in [1, h] and a
// uniform leaf among the leaves below its level-s ancestor, then
// external-sorts by (leaf, section) and streams the result into leaf
// nodes, the leaf directory, and the internal-node array. Exact subtree
// counts (cnt_l / cnt_r) are accumulated during the assignment pass.
//
// Total cost: two external sorts plus sequential passes — the paper's
// claimed construction cost.

#ifndef MSV_CORE_ACE_BUILDER_H_
#define MSV_CORE_ACE_BUILDER_H_

#include <cstdint>
#include <string>

#include "extsort/external_sorter.h"
#include "io/env.h"
#include "storage/record.h"
#include "util/result.h"

namespace msv::core {

struct AceBuildOptions {
  /// Target disk block size; the height is chosen so the *expected* leaf
  /// size is the largest that does not exceed one block (paper footnote 2).
  size_t page_size = 64 << 10;
  /// Explicit tree height; 0 selects it automatically from page_size.
  uint32_t height = 0;
  /// Number of indexed dimensions (1 = classic ACE Tree, >=2 = k-d).
  uint32_t key_dims = 1;
  /// Seed for section/leaf assignment randomness.
  uint64_t seed = 7;
  extsort::SortOptions sort;

  Status Validate(const storage::RecordLayout& layout) const;
};

struct AceBuildMetrics {
  uint64_t records = 0;
  uint32_t height = 0;
  uint64_t leaves = 0;
  extsort::SortMetrics phase1_sort;
  extsort::SortMetrics phase2_sort;
  /// Bytes of index overhead beyond the raw records (superblock +
  /// internal nodes + directory + leaf headers).
  uint64_t overhead_bytes = 0;
};

/// Builds an ACE Tree file `output_name` over heap file `input_name`.
Status BuildAceTree(io::Env* env, const std::string& input_name,
                    const std::string& output_name,
                    const storage::RecordLayout& layout,
                    const AceBuildOptions& options = {},
                    AceBuildMetrics* metrics = nullptr);

/// BuildAceTree for a caller whose input is its own scratch, which the
/// build consumes: the 1-d build sorts `scratch_input` onto itself in
/// phase 1 rather than into a separate sorted copy, so its peak holds one
/// input-sized file fewer, and every build deletes the input once phase
/// 2a has read it. The tree is the one BuildAceTree builds from the same
/// bytes. After an error the input may be gone, or reordered.
Status BuildAceTreeFromScratch(io::Env* env, const std::string& scratch_input,
                               const std::string& output_name,
                               const storage::RecordLayout& layout,
                               const AceBuildOptions& options = {},
                               AceBuildMetrics* metrics = nullptr);

/// Smallest height whose expected leaf size fits in `page_size` (exposed
/// for tests and capacity planning).
uint32_t ChooseHeight(uint64_t num_records, size_t record_size,
                      size_t page_size);

}  // namespace msv::core

#endif  // MSV_CORE_ACE_BUILDER_H_
