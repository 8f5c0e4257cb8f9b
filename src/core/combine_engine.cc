#include "core/combine_engine.h"

#include <cstring>

#include "core/split_tree.h"
#include "util/logging.h"

namespace msv::core {

CombineEngine::CombineEngine(const storage::RecordLayout* layout,
                             const sampling::RangeQuery& query,
                             const std::vector<std::vector<uint64_t>>& covering,
                             size_t record_size, uint32_t height)
    : layout_(layout),
      query_(query),
      record_size_(record_size),
      height_(height) {
  MSV_CHECK(covering.size() == height_);
  levels_.resize(height_);
  for (uint32_t i = 0; i < height_; ++i) {
    LevelState& state = levels_[i];
    state.queues.resize(covering[i].size());
    state.node_pos.reserve(covering[i].size());
    for (size_t j = 0; j < covering[i].size(); ++j) {
      state.node_pos.emplace(covering[i][j], j);
    }
  }
}

storage::RecordSpan CombineEngine::FilterSection(std::string_view raw) {
  const size_t count = raw.size() / record_size_;
  if (count == 0) return storage::RecordSpan{};
  if (scratch_idx_.size() < count) scratch_idx_.resize(count);
  const size_t matches =
      query_.MatchBatch(*layout_, raw.data(), count, scratch_idx_.data());
  if (matches == 0) return storage::RecordSpan{};
  // One arena slab per contribution; matching records are copied exactly
  // once and referenced as zero-copy spans from then on.
  char* dst = arena_.Allocate(matches * record_size_, alignof(double));
  if (matches == count) {
    // Fully covered section (common at coarse levels): one straight copy.
    std::memcpy(dst, raw.data(), count * record_size_);
  } else {
    char* out = dst;
    for (size_t i = 0; i < matches; ++i) {
      std::memcpy(out,
                  raw.data() +
                      static_cast<size_t>(scratch_idx_[i]) * record_size_,
                  record_size_);
      out += record_size_;
    }
  }
  return storage::RecordSpan{dst, matches};
}

void CombineEngine::EmitShuffled(const std::vector<storage::RecordSpan>& spans,
                                 sampling::SampleBatch* out, Pcg64* rng) {
  size_t n = 0;
  for (const storage::RecordSpan& s : spans) n += s.count;
  if (n == 0) return;
  // Flatten to per-record pointers in covering-node order — the same
  // logical concatenation the string path materialized — then shuffle
  // index order with the identical rng consumption (one Below per swap,
  // a function of n only) and gather into the pre-sized output.
  scratch_recs_.clear();
  scratch_recs_.reserve(n);
  for (const storage::RecordSpan& s : spans) {
    const char* rec = s.data;
    for (size_t i = 0; i < s.count; ++i, rec += record_size_) {
      scratch_recs_.push_back(rec);
    }
  }
  scratch_order_.resize(n);
  for (size_t i = 0; i < n; ++i) scratch_order_[i] = static_cast<uint32_t>(i);
  Shuffle(&scratch_order_, rng);
  out->Reserve(n);
  for (uint32_t idx : scratch_order_) out->Append(scratch_recs_[idx]);
}

void CombineEngine::AddLeaf(uint64_t leaf_heap_id, const LeafData& leaf,
                            sampling::SampleBatch* out, Pcg64* rng) {
  MSV_CHECK(leaf.sections.size() == height_);
  for (uint32_t level = 1; level <= height_; ++level) {
    LevelState& state = levels_[level - 1];
    uint64_t ancestor = SplitTree::AncestorAtLevel(leaf_heap_id, level);
    auto it = state.node_pos.find(ancestor);
    if (it == state.node_pos.end()) {
      // The leaf's level-`level` ancestor does not intersect the query,
      // so the section holds no match and the stab did not read it.
      continue;
    }
    // A needed section must never look empty because it was not read.
    MSV_CHECK_MSG(level <= leaf.levels_read,
                  "combine needs a leaf section the read skipped");
    // Filter the section against the query now (the paper buffers only
    // records matching the predicate, Sec. 8.2 / Fig. 15) with the
    // batched branch-free kernel; the surviving records live in the
    // per-query arena until their round emits.
    storage::RecordSpan filtered = FilterSection(leaf.sections[level - 1]);
    buffered_ += filtered.count;
    std::deque<storage::RecordSpan>& queue = state.queues[it->second];
    if (queue.empty()) ++state.nonempty;
    queue.push_back(filtered);

    // Emit complete rounds: one contribution per covering node. (A
    // contribution may be empty after filtering — it still counts, since
    // rounds are about *leaf sections consumed*, not records.)
    while (state.nonempty == state.queues.size()) {
      scratch_round_.clear();
      for (std::deque<storage::RecordSpan>& q : state.queues) {
        scratch_round_.push_back(q.front());
        q.pop_front();
        if (q.empty()) --state.nonempty;
      }
      uint64_t round_records = 0;
      for (const storage::RecordSpan& s : scratch_round_) {
        round_records += s.count;
      }
      buffered_ -= round_records;
      ++state.rounds;
      state.emitted += round_records;
      EmitShuffled(scratch_round_, out, rng);
    }
  }
  // Fully drained: no queued span references the arena any more (empty
  // contributions carry no bytes), so rewind it. This caps arena growth
  // at the high-water mark of simultaneously buffered records.
  if (buffered_ == 0) arena_.Reset();
}

void CombineEngine::Flush(sampling::SampleBatch* out, Pcg64* rng) {
  scratch_round_.clear();
  for (LevelState& state : levels_) {
    uint64_t level_records = 0;
    for (std::deque<storage::RecordSpan>& q : state.queues) {
      while (!q.empty()) {
        level_records += q.front().count;
        scratch_round_.push_back(q.front());
        q.pop_front();
      }
    }
    state.emitted += level_records;
    state.nonempty = 0;
  }
  buffered_ = 0;
  EmitShuffled(scratch_round_, out, rng);
  arena_.Reset();
}

}  // namespace msv::core
