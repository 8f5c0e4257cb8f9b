// The section combine/append engine (paper Sec. 6, Algorithm 4,
// generalized).
//
// For a query Q and section level i, the level-i nodes whose boxes
// intersect Q form the *covering set* C_i: the section-i contributions of
// leaves under these nodes jointly span Q. Arriving leaf sections are
// filtered against Q and queued per covering node; whenever every node in
// C_i has at least one queued contribution, one contribution per node is
// popped, appended (appendability), and emitted (combinability).
//
// Emitting in such "rounds" is exactly the condition under which the
// running output is an unbiased sample: a record matching Q is emitted at
// level i with probability (1/h) * rounds_i / 2^(h-i), independent of
// where in the query range it lies, because every covering node has
// contributed the same number of leaf sections. Leftover contributions
// stay buffered (the paper's buckets[]; their size is the Fig. 15
// experiment) until the final flush, which runs only when every relevant
// leaf has been consumed — at that point the output is the complete match
// set and unbiasedness is trivial.
//
// CPU hot path (DESIGN.md §15): sections are filtered straight from the
// leaf's page (LeafData::sections are views into it) with the batched
// branch-free RangeQuery::MatchBatch kernel instead of a per-record
// Matches call, matching records are copied once into a per-query bump
// arena, and everything queued/emitted from then on is a zero-copy
// {ptr,count} RecordSpan — no per-section std::string, no round
// concatenation, no reallocating per-record appends. The arena rewinds
// whenever the buffers fully drain, so held memory tracks the high-water
// mark of *buffered* records, as the string version's live bytes did.

#ifndef MSV_CORE_COMBINE_ENGINE_H_
#define MSV_CORE_COMBINE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ace_tree.h"
#include "sampling/range_query.h"
#include "sampling/sample_stream.h"
#include "storage/record.h"
#include "storage/record_view.h"
#include "util/arena.h"
#include "util/random.h"

namespace msv::core {

class CombineEngine {
 public:
  /// `covering` is SplitTree::CoveringSets(query): per level (index i-1),
  /// the heap ids of level-i nodes intersecting the query.
  CombineEngine(const storage::RecordLayout* layout,
                const sampling::RangeQuery& query,
                const std::vector<std::vector<uint64_t>>& covering,
                size_t record_size, uint32_t height);

  /// Feeds one retrieved leaf; appends any newly emittable samples to
  /// `out` (shuffled so consumers see exchangeable order). Every section
  /// whose level-i ancestor is in C_i must have been read (level <=
  /// leaf.levels_read); the engine checks this and aborts otherwise.
  void AddLeaf(uint64_t leaf_heap_id, const LeafData& leaf,
               sampling::SampleBatch* out, Pcg64* rng);

  /// Emits everything still buffered. Only valid once every relevant leaf
  /// has been fed (the caller — the sampler — guarantees this).
  void Flush(sampling::SampleBatch* out, Pcg64* rng);

  /// Matching records currently buffered (paper Fig. 15 metric).
  uint64_t buffered_records() const { return buffered_; }

  /// Completed combine rounds at section level `level` (1-based).
  uint64_t rounds(uint32_t level) const { return levels_[level - 1].rounds; }

  /// Records emitted from section level `level` (1-based), including the
  /// final flush. Drives the per-level sample-progress trace spans.
  uint64_t emitted(uint32_t level) const { return levels_[level - 1].emitted; }

  /// Block capacity held by the per-query arena (diagnostics).
  size_t arena_bytes() const { return arena_.bytes_reserved(); }

 private:
  struct LevelState {
    /// queue index by covering-node heap id.
    std::unordered_map<uint64_t, size_t> node_pos;
    /// One FIFO of filtered, arena-resident section spans per covering
    /// node. Spans may be empty — rounds count sections, not records.
    std::vector<std::deque<storage::RecordSpan>> queues;
    size_t nonempty = 0;
    uint64_t rounds = 0;
    uint64_t emitted = 0;  ///< records emitted from this level
  };

  /// Emits `spans` (already in covering-node order) shuffled into `out`,
  /// consuming `rng` exactly as the historical string-concatenation path
  /// did: one Shuffle over the round's record count. Uses scratch_*
  /// members, hence non-const.
  void EmitShuffled(const std::vector<storage::RecordSpan>& spans,
                    sampling::SampleBatch* out, Pcg64* rng);

  /// Filters one leaf section straight from its view into the leaf's
  /// page with the batched kernel and copies the matching records into
  /// the arena; returns the resulting span, which never points into the
  /// leaf, so no span outlives the page it was filtered from.
  storage::RecordSpan FilterSection(std::string_view raw);

  const storage::RecordLayout* layout_;
  sampling::RangeQuery query_;
  size_t record_size_;
  uint32_t height_;
  std::vector<LevelState> levels_;
  uint64_t buffered_ = 0;

  /// Per-query allocator backing every queued span; rewound whenever the
  /// engine drains (buffered_ == 0, no live spans reference it).
  util::Arena arena_;
  /// Reusable scratch: match indices from the kernel, the spans of the
  /// round being emitted, and the flattened per-record pointers fed to
  /// the shuffle.
  std::vector<uint32_t> scratch_idx_;
  std::vector<storage::RecordSpan> scratch_round_;
  std::vector<const char*> scratch_recs_;
  std::vector<uint32_t> scratch_order_;
};

}  // namespace msv::core

#endif  // MSV_CORE_COMBINE_ENGINE_H_
