#include "core/ace_sampler.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "io/disk_model.h"
#include "util/logging.h"

namespace msv::core {

StabCursor::StabCursor(const SplitTree* splits,
                       const std::vector<std::vector<uint64_t>>& covering)
    : splits_(splits) {
  const uint64_t num_leaves = splits_->num_leaves();
  overlaps_.assign(2 * num_leaves, 0);
  done_.assign(2 * num_leaves, 0);
  next_right_.assign(2 * num_leaves, 0);
  for (const auto& level_nodes : covering) {
    for (uint64_t id : level_nodes) overlaps_[id] = 1;
  }
  exhausted_ = overlaps_[1] == 0;  // query misses the whole domain
}

uint64_t StabCursor::NextLeafId() {
  if (exhausted_) return 0;
  const uint64_t num_leaves = splits_->num_leaves();
  uint64_t id = 1;
  while (id < num_leaves) {
    uint64_t left = 2 * id;
    uint64_t right = left + 1;
    // Every leaf is relevant (its coarse sections sample ranges that span
    // the query), so only exhausted subtrees are skipped; subtrees whose
    // box overlaps the query are merely *preferred*, which is what makes
    // the early samples arrive fast.
    bool l_ok = !done_[left];
    bool r_ok = !done_[right];
    if (l_ok && r_ok) {
      bool l_ov = overlaps_[left] != 0;
      bool r_ov = overlaps_[right] != 0;
      if (l_ov != r_ov) {
        // Exactly one side overlaps: take it, leaving the toggle bit
        // untouched (the paper's "irrespective of the indicator bit").
        id = l_ov ? left : right;
      } else if (next_right_[id]) {
        // Free choice: alternate (the paper's back-and-forth order, which
        // maximizes the disparity of retrieved sections).
        id = right;
        next_right_[id / 2] = 0;
      } else {
        id = left;
        next_right_[id / 2] = 1;
      }
    } else if (l_ok) {
      id = left;
    } else if (r_ok) {
      id = right;
    } else {
      MSV_CHECK_MSG(false, "stab reached a node with no viable child");
    }
  }

  done_[id] = 1;
  // Propagate done-ness towards the root: a node is done once all leaves
  // beneath it have been accessed (the paper's lookup-table `done` flag).
  for (uint64_t n = id / 2; n >= 1; n /= 2) {
    if (done_[2 * n] && done_[2 * n + 1]) {
      done_[n] = 1;
    } else {
      break;
    }
  }
  exhausted_ = done_[1] != 0;
  return id;
}

uint32_t StabCursor::UsefulLevels(uint64_t leaf_heap_id) const {
  const uint32_t height = splits_->height();
  uint32_t levels = 0;
  while (levels < height &&
         overlaps_[SplitTree::AncestorAtLevel(leaf_heap_id, levels + 1)]) {
    ++levels;
  }
  return levels;
}

std::vector<uint64_t> ComputeStabLeafOrder(
    const SplitTree& splits, const sampling::RangeQuery& query) {
  StabCursor cursor(&splits, splits.CoveringSets(query));
  std::vector<uint64_t> order;
  order.reserve(splits.num_leaves());
  while (!cursor.exhausted()) {
    uint64_t id = cursor.NextLeafId();
    if (id == 0) break;
    order.push_back(splits.LeafIndexOf(id));
  }
  return order;
}

namespace {

/// Splits `total` into integer shares proportional to `weights` with
/// largest-remainder rounding, so the shares sum to exactly `total` and
/// per-level disk-µs attribution reconciles with DiskStats to the
/// microsecond. `weights` is non-empty; with all-zero weights the
/// first share takes it all.
std::vector<uint64_t> SplitLargestRemainder(
    uint64_t total, const std::vector<uint64_t>& weights) {
  std::vector<uint64_t> shares(weights.size(), 0);
  uint64_t weight_sum = 0;
  for (uint64_t w : weights) weight_sum += w;
  if (weight_sum == 0) {
    shares[0] = total;
    return shares;
  }
  uint64_t assigned = 0;
  std::vector<std::pair<uint64_t, size_t>> remainders;  // (remainder, index)
  remainders.reserve(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    uint64_t numer = total * weights[i];
    shares[i] = numer / weight_sum;
    assigned += shares[i];
    remainders.emplace_back(numer % weight_sum, i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (uint64_t r = total - assigned, i = 0; r > 0; --r, ++i) {
    ++shares[remainders[i % remainders.size()].second];
  }
  return shares;
}

}  // namespace

AceSampler::AceSampler(const AceTree* tree, sampling::RangeQuery query,
                       uint64_t seed)
    : tree_(tree), query_(query), rng_(seed) {
  MSV_CHECK_MSG(query_.Validate(tree_->layout()).ok(), "invalid query");
  MSV_CHECK_MSG(query_.dims == tree_->meta().key_dims,
                "query dims must match the tree's indexed dims");

  const SplitTree& splits = tree_->splits();
  const uint64_t num_leaves = splits.num_leaves();
  auto covering = splits.CoveringSets(query_);
  combiner_ = std::make_unique<CombineEngine>(
      &tree_->layout(), query_, covering, tree_->meta().record_size,
      tree_->meta().height);
  cursor_ = std::make_unique<StabCursor>(&splits, covering);
  finished_ = cursor_->exhausted();

  level_disk_us_.assign(tree_->meta().height, 0);
  level_sections_read_.assign(tree_->meta().height, 0);
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  c_leaf_reads_ = reg.GetCounter("ace.leaf_reads");
  c_samples_ = reg.GetCounter("ace.samples_emitted");
  span_ = obs::StartTraceSpan(name() + ".sample");
  span_.AddAttr("leaves", num_leaves);
  span_.AddAttr("height", static_cast<uint64_t>(tree_->meta().height));
}

AceSampler::~AceSampler() { EmitLevelSpans(); }

void AceSampler::EmitLevelSpans() {
  if (level_spans_emitted_) return;
  level_spans_emitted_ = true;
  if (!span_.active()) return;
  for (uint32_t level = 1; level <= tree_->meta().height; ++level) {
    obs::Span s = obs::StartTraceSpan("ace.level");
    s.AddAttr("level", static_cast<uint64_t>(level));
    s.AddMetric("disk_us", static_cast<double>(level_disk_us_[level - 1]));
    s.AddMetric("sections_read",
                static_cast<double>(level_sections_read_[level - 1]));
    s.AddMetric("rounds", static_cast<double>(combiner_->rounds(level)));
    s.AddMetric("samples", static_cast<double>(combiner_->emitted(level)));
  }
  span_.AddAttr("leaves_read", leaves_read_);
  span_.AddAttr("samples", returned_);
  // Block capacity of the combiner's per-query arena (DESIGN.md §15):
  // tracks the high-water mark of buffered-record bytes.
  span_.AddAttr("arena_bytes",
                static_cast<uint64_t>(combiner_->arena_bytes()));
  span_.End();
}

Status AceSampler::Stab(sampling::SampleBatch* out) {
  const uint64_t heap_id = cursor_->NextLeafId();
  if (heap_id == 0) return Status::Internal("stab on an exhausted cursor");
  // The busy delta is the calling thread's own attribution, so concurrent
  // samplers hammering the same arm never inflate each other's levels.
  const uint64_t busy_before = io::ThreadDiskBusyUs();
  // Only sections whose ancestor is in the covering set can contribute
  // (Algorithm 4); they are a prefix of the leaf, read in one piece.
  MSV_ASSIGN_OR_RETURN(LeafData leaf,
                       tree_->ReadLeaf(tree_->splits().LeafIndexOf(heap_id),
                                       cursor_->UsefulLevels(heap_id)));
  // Split the read's disk µs across the sections read by bytes: share k
  // belongs to level k + 1 (sections not read have no bytes).
  std::vector<uint64_t> section_bytes;
  section_bytes.reserve(leaf.sections.size());
  for (std::string_view s : leaf.sections) section_bytes.push_back(s.size());
  std::vector<uint64_t> shares = SplitLargestRemainder(
      io::ThreadDiskBusyUs() - busy_before, section_bytes);
  for (size_t k = 0; k < shares.size(); ++k) level_disk_us_[k] += shares[k];
  for (uint32_t k = 0; k < leaf.levels_read; ++k) ++level_sections_read_[k];

  ++leaves_read_;
  c_leaf_reads_->Add();
  leaf_read_order_.push_back(leaf.leaf_index);
  combiner_->AddLeaf(heap_id, leaf, out, &rng_);
  if (cursor_->exhausted()) {
    // Every leaf consumed. All combine rounds have balanced out (each
    // covering node at level i received exactly 2^(h-i) contributions),
    // so the flush is a no-op safety net completing the match set.
    combiner_->Flush(out, &rng_);
    finished_ = true;
  }
  return Status::OK();
}

Result<sampling::SampleBatch> AceSampler::NextBatch() {
  sampling::SampleBatch batch;
  batch.record_size = tree_->meta().record_size;
  if (finished_) return batch;
  MSV_RETURN_IF_ERROR(Stab(&batch));
  returned_ += batch.count();
  c_samples_->Add(batch.count());
  if (finished_) EmitLevelSpans();
  return batch;
}

}  // namespace msv::core
