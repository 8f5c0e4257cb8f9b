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

#include <deque>
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
/// which is what lets the drain policy fetch every leaf in one
/// elevator-ordered read and still feed its combiner in the exact stab
/// sequence.
class StabCursor {
 public:
  StabCursor(const SplitTree* splits,
             const std::vector<std::vector<uint64_t>>& covering);

  /// Heap id of the next leaf to retrieve; marks it consumed and
  /// propagates done-ness toward the root. Returns 0 once every leaf has
  /// been yielded (immediately, if the query misses the whole domain).
  uint64_t NextLeafId();
  bool exhausted() const { return exhausted_; }

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

struct AceSamplerOptions {
  /// Leaf I/O policy. false (the default) reads one leaf per NextBatch,
  /// so the first samples arrive after a single read. true fetches the
  /// query's whole leaf set in one elevator-ordered batched read on the
  /// first NextBatch — the to-completion configuration, which coalesces
  /// seeks but holds every matching leaf in memory. The emitted sample
  /// stream is byte-identical under both policies.
  bool drain = false;
};

class AceSampler : public sampling::SampleStream {
 public:
  /// `seed` drives only presentation-order shuffling of emitted rounds —
  /// which records are returned when is fully determined by the tree
  /// contents and the deterministic stab order.
  AceSampler(const AceTree* tree, sampling::RangeQuery query, uint64_t seed);
  AceSampler(const AceTree* tree, sampling::RangeQuery query, uint64_t seed,
             const AceSamplerOptions& options);
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
  /// (1-based). Each fill's disk-µs delta — measured with the calling
  /// thread's io::ThreadDiskBusyUs(), so concurrent samplers never see
  /// each other's I/O — is split once across every section of every
  /// leaf the fill read, proportionally to section bytes with a
  /// largest-remainder split, so
  ///   sum_level level_disk_us(level) == total busy_us of all leaf reads
  /// holds exactly (asserted by the trace end-to-end test).
  uint64_t level_disk_us(uint32_t level) const {
    return level_disk_us_[level - 1];
  }

 private:
  /// A fetched leaf waiting for its stab turn.
  struct PendingLeaf {
    uint64_t heap_id = 0;
    LeafData leaf;
  };

  /// One stab; appends emitted samples to `out`.
  Status Stab(sampling::SampleBatch* out);

  /// Fetches the next stab position's leaf into pending_ (ReadLeaf) or,
  /// under the drain policy, every remaining one in one elevator-ordered
  /// batched read (ReadLeaves).
  Status FillPending();

  /// Closes out the trace: one child span per section level carrying the
  /// level's leaf-section visits, emitted samples and disk µs. Runs once,
  /// when the stream completes or the sampler is destroyed early.
  void EmitLevelSpans();

  const AceTree* tree_;
  sampling::RangeQuery query_;
  AceSamplerOptions options_;
  Pcg64 rng_;
  std::unique_ptr<CombineEngine> combiner_;
  std::unique_ptr<StabCursor> cursor_;
  std::deque<PendingLeaf> pending_;

  uint64_t returned_ = 0;
  uint64_t leaves_read_ = 0;
  std::vector<uint64_t> leaf_read_order_;
  bool finished_ = false;

  /// Per-level (index level-1) disk-µs attribution; see level_disk_us().
  std::vector<uint64_t> level_disk_us_;
  obs::Counter* c_leaf_reads_;
  obs::Counter* c_samples_;
  /// Open for the sampler's whole lifetime; level spans nest under it.
  obs::Span span_;
  bool level_spans_emitted_ = false;
};

}  // namespace msv::core

#endif  // MSV_CORE_ACE_SAMPLER_H_
