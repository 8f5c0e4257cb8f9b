// The ACE Tree online query algorithm (paper Sec. 6, Algorithms 2-4).
//
// Each NextBatch() performs one *stab*: a root-to-leaf traversal that, at
// every internal node with a free choice, takes the child opposite to the
// one taken last time (the per-node `next` toggle bit of the paper's
// lookup table T), always preferring children that overlap the query and
// skipping exhausted subtrees (the `done` flag). The retrieved leaf's
// sections are handed to the CombineEngine, which emits every sample the
// combinability/appendability properties allow. At all times the records
// returned so far are a uniform random sample, without replacement, of
// the records matching the query; when the stream completes it has
// returned exactly the full match set.

#ifndef MSV_CORE_ACE_SAMPLER_H_
#define MSV_CORE_ACE_SAMPLER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/ace_tree.h"
#include "core/combine_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/sample_stream.h"
#include "util/random.h"

namespace msv::core {

/// Deterministic stab cursor: replays the paper's back-and-forth
/// root-to-leaf descents (Fig. 10) over the split tree, yielding the heap
/// id of each leaf in retrieval order. The order depends only on the
/// split tree and the query's covering sets — never on leaf contents —
/// so ComputeStabLeafOrder can list a query's leaf order without reading
/// a leaf. The sampler reads exactly one leaf prefix per stab, in this
/// order.
class StabCursor {
 public:
  StabCursor(const SplitTree* splits,
             const std::vector<std::vector<uint64_t>>& covering);

  /// Heap id of the next leaf to retrieve; marks it consumed and
  /// propagates done-ness toward the root. Returns 0 once every leaf has
  /// been yielded (immediately, if the query misses the whole domain).
  uint64_t NextLeafId();
  bool exhausted() const { return exhausted_; }

  /// Number k of leading section levels of leaf `leaf_heap_id` whose
  /// ancestor intersects the query: the leaf's sections 1..k can hold
  /// matches and the rest cannot. CoveringSets only descends from
  /// intersecting nodes, so the useful levels always form this prefix.
  uint32_t UsefulLevels(uint64_t leaf_heap_id) const;

 private:
  const SplitTree* splits_;
  /// Heap-indexed node state (ids 1..2F-1; index 0 unused).
  std::vector<uint8_t> overlaps_;    // box intersects the query
  std::vector<uint8_t> done_;       // subtree fully consumed
  std::vector<uint8_t> next_right_;  // toggle bit: take right child next
  bool exhausted_ = false;
};

/// Full stab order for `query` as leaf *indices* (not heap ids): the
/// sequence of LeafIndexOf() values an AceSampler on the same tree would
/// produce in leaf_read_order().
std::vector<uint64_t> ComputeStabLeafOrder(const SplitTree& splits,
                                           const sampling::RangeQuery& query);

class AceSampler : public sampling::SampleStream {
 public:
  /// `seed` drives only presentation-order shuffling of emitted rounds —
  /// which records are returned when is fully determined by the tree
  /// contents and the deterministic stab order.
  AceSampler(const AceTree* tree, sampling::RangeQuery query, uint64_t seed);
  ~AceSampler() override;

  Result<sampling::SampleBatch> NextBatch() override;
  bool done() const override { return finished_; }
  uint64_t samples_returned() const override { return returned_; }
  std::string name() const override {
    return tree_->meta().key_dims > 1 ? "kd-ace" : "ace";
  }

  /// Matching records buffered awaiting combination (Fig. 15 metric).
  uint64_t buffered_records() const { return combiner_->buffered_records(); }
  /// Leaf nodes retrieved so far.
  uint64_t leaves_read() const { return leaves_read_; }
  /// Leaf indices in retrieval order (diagnostics; the paper's Fig. 10
  /// back-and-forth stab order is asserted against this in tests).
  const std::vector<uint64_t>& leaf_read_order() const {
    return leaf_read_order_;
  }

  /// Simulated disk microseconds attributed to section level `level`
  /// (1-based). Each stab's disk-µs delta — measured with the calling
  /// thread's io::ThreadDiskBusyUs(), so concurrent samplers never see
  /// each other's I/O — is split across the sections the stab read,
  /// proportionally to section bytes with a largest-remainder split, so
  ///   sum_level level_disk_us(level) == total busy_us of all leaf reads
  /// holds exactly (asserted by the trace end-to-end test).
  uint64_t level_disk_us(uint32_t level) const {
    return level_disk_us_[level - 1];
  }

 private:
  /// One stab: reads the header and useful sections of the cursor's next
  /// leaf and appends the samples they make emittable to `out`.
  Status Stab(sampling::SampleBatch* out);

  /// Closes out the trace: one child span per section level carrying the
  /// level's leaf-section visits, emitted samples and disk µs. Runs once,
  /// when the stream completes or the sampler is destroyed early.
  void EmitLevelSpans();

  const AceTree* tree_;
  sampling::RangeQuery query_;
  Pcg64 rng_;
  std::unique_ptr<CombineEngine> combiner_;
  std::unique_ptr<StabCursor> cursor_;

  uint64_t returned_ = 0;
  uint64_t leaves_read_ = 0;
  std::vector<uint64_t> leaf_read_order_;
  bool finished_ = false;

  /// Per-level (index level-1) disk-µs attribution; see level_disk_us().
  std::vector<uint64_t> level_disk_us_;
  /// Per-level (index level-1) count of leaf sections read.
  std::vector<uint64_t> level_sections_read_;
  obs::Counter* c_leaf_reads_;
  obs::Counter* c_samples_;
  /// Open for the sampler's whole lifetime; level spans nest under it.
  obs::Span span_;
  bool level_spans_emitted_ = false;
};

}  // namespace msv::core

#endif  // MSV_CORE_ACE_SAMPLER_H_
