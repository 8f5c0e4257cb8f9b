// AceTree::CheckInvariants: structural verification of a materialized
// sample view on disk.
//
// The checks mirror the paper's correctness claims:
//   * leaf-page integrity — CRC32C checksum and self-identifying header
//     of every leaf blob, and each section's record count and CRC32C
//     against the directory entry that prefix reads trust (format
//     invariants, ace_format.h);
//   * split-tree sanity — split dimensions in range, split keys inside
//     their node's box, persisted cnt_l/cnt_r summing bottom-up to the
//     superblock's record total;
//   * level-i leaf-set partitioning — every record stored in section i
//     of leaf L descends (through the split tree) to L's level-i
//     ancestor, i.e. sections really are samples of the ancestor boxes;
//   * Lemma 2 section sizes — each section's size stays within
//     kSectionSizeSigmas binomial standard deviations of its
//     expectation n_A / (h * F_A);
//   * Lemma 1 without-replacement — the h sections of a leaf are
//     pairwise disjoint record sets (sound because source records are
//     pairwise distinct, which holds for SALE data via row_id);
//   * exact counts — recounting records per finest cell reproduces the
//     persisted per-node counts used for population estimates.
//
// The pass reads every leaf exactly once and is meant to be cheap enough
// to run after every bulk build in tests and via `msv_inspect --verify`.

#include <chrono>
#include <cmath>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/ace_tree.h"
#include "obs/metrics.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace msv::core {

namespace {

/// Slack, in binomial standard deviations, allowed between a section's
/// observed size and its Lemma-2 expectation before the section is
/// reported out of bounds.
constexpr double kSectionSizeSigmas = 6.0;
/// Size bounds are only enforced when the expected section size is at
/// least this large; below it the relative variance makes any fixed-sigma
/// test either vacuous or flaky.
constexpr double kMinExpectedForBound = 32.0;

Status MakeStatus(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kIOError:
      return Status::IOError(std::move(msg));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(msg));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(std::move(msg));
}

/// Collects violations up to InvariantReport::kMaxViolations; callers
/// bail out once the cap is hit.
class ViolationSink {
 public:
  explicit ViolationSink(InvariantReport* report) : report_(report) {}

  void Add(StatusCode code, uint64_t leaf, std::string detail) {
    if (full()) return;
    report_->violations.push_back(
        InvariantViolation{code, leaf, std::move(detail)});
    // Hitting the cap stops the scan, so further violations (if any)
    // would go unseen; flag the report as cut short.
    if (full()) report_->truncated = true;
  }

  bool full() const {
    return report_->violations.size() >= InvariantReport::kMaxViolations;
  }

 private:
  InvariantReport* report_;
};

/// Stamps the duration of each verification phase into the report and
/// into `verify.<phase>_us` registry counters (Finish resets the clock,
/// so phases are measured back to back).
class PhaseTimer {
 public:
  explicit PhaseTimer(InvariantReport* report)
      : report_(report), start_(std::chrono::steady_clock::now()) {}

  void Finish(const char* phase) {
    const auto now = std::chrono::steady_clock::now();
    const uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - start_)
            .count());
    report_->check_us.emplace_back(phase, us);
    obs::MetricRegistry::Global()
        .GetCounter(std::string("verify.") + phase + "_us")
        ->Add(us);
    start_ = now;
  }

 private:
  InvariantReport* report_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

std::string InvariantViolation::ToString() const {
  std::string out(StatusCodeToString(code));
  if (leaf != kNoLeaf) {
    out += " [leaf " + std::to_string(leaf) + "]";
  }
  out += ": " + detail;
  return out;
}

Status InvariantReport::ToStatus() const {
  if (ok()) return Status::OK();
  const InvariantViolation& first = violations.front();
  std::string msg = first.ToString();
  if (violations.size() > 1) {
    msg += " (+" + std::to_string(violations.size() - 1) + " more)";
  }
  return MakeStatus(first.code, std::move(msg));
}

std::string InvariantReport::ToString() const {
  if (ok()) {
    return "OK: " + std::to_string(leaves_checked) + " leaves, " +
           std::to_string(records_checked) + " records, " +
           std::to_string(sections_checked) + " sections verified";
  }
  std::string out = std::to_string(violations.size()) +
                    (truncated ? "+ violations:\n" : " violations:\n");
  for (const InvariantViolation& v : violations) {
    out += "  " + v.ToString() + "\n";
  }
  return out;
}

InvariantReport AceTree::CheckInvariants() const {
  InvariantReport report;
  ViolationSink sink(&report);
  PhaseTimer timer(&report);
  const uint64_t F = meta_.num_leaves;
  const uint32_t h = meta_.height;

  // --- Geometry: the superblock's regions must be ordered and the
  // directory must point inside the data region.
  if (h < 1 || F != (1ull << (h - 1))) {
    sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
             "geometry: num_leaves " + std::to_string(F) +
                 " != 2^(h-1) for height " + std::to_string(h));
    timer.Finish("geometry");
    return report;  // nothing below is meaningful with broken geometry
  }
  const uint64_t internal_end =
      meta_.internal_offset + meta_.num_internal_nodes() * kInternalNodeSize;
  const uint64_t directory_end =
      meta_.directory_offset + F * DirectoryEntrySize(h);
  if (meta_.internal_offset < kSuperblockSize ||
      meta_.directory_offset < internal_end ||
      meta_.data_offset < directory_end) {
    sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
             "geometry: region offsets out of order (internal@" +
                 std::to_string(meta_.internal_offset) + " directory@" +
                 std::to_string(meta_.directory_offset) + " data@" +
                 std::to_string(meta_.data_offset) + ")");
  }
  for (uint64_t leaf = 0; leaf < F && !sink.full(); ++leaf) {
    const LeafLocation& loc = directory_[leaf];
    if (!CheckLeafLocation(leaf).ok() ||
        loc.length < LeafHeaderSize(h) + 4 /* checksum */) {
      sink.Add(StatusCode::kCorruption, leaf,
               "directory entry outside data region: offset " +
                   std::to_string(loc.offset) + " length " +
                   std::to_string(loc.length));
    }
  }
  timer.Finish("geometry");

  // --- Region checksums: re-read the raw internal-node and directory
  // bytes and compare against the superblock's CRCs. Open()
  // already verified these once; re-checking here catches corruption that
  // landed after the tree was opened.
  {
    std::string bytes(meta_.num_internal_nodes() * kInternalNodeSize, '\0');
    Status st = bytes.empty()
                    ? Status::OK()
                    : file_->ReadExact(meta_.internal_offset, bytes.size(),
                                       bytes.data());
    if (!st.ok()) {
      sink.Add(st.code(), InvariantViolation::kNoLeaf,
               "regions: " + std::string(st.message()));
    } else if (MaskCrc(Crc32c(bytes.data(), bytes.size())) !=
               meta_.internal_crc) {
      sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
               "regions: internal region checksum mismatch");
    }
    bytes.assign(F * DirectoryEntrySize(h), '\0');
    st = file_->ReadExact(meta_.directory_offset, bytes.size(), bytes.data());
    if (!st.ok()) {
      sink.Add(st.code(), InvariantViolation::kNoLeaf,
               "regions: " + std::string(st.message()));
    } else if (MaskCrc(Crc32c(bytes.data(), bytes.size())) !=
               meta_.directory_crc) {
      sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
               "regions: directory checksum mismatch");
    }
  }
  timer.Finish("regions");

  // --- Split tree: dimensions, split keys inside their box, counts
  // summing parent = left + right down the heap.
  if (node_counts_[1] != meta_.num_records) {
    sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
             "root count " + std::to_string(node_counts_[1]) +
                 " != superblock record total " +
                 std::to_string(meta_.num_records));
  }
  {
    // DFS with boxes threaded down, so each node's box is available
    // without repeated root descents.
    struct Item {
      uint64_t id;
      Box box;
    };
    std::vector<Item> stack{{1, splits_->root_box()}};
    while (!stack.empty() && !sink.full()) {
      Item item = stack.back();
      stack.pop_back();
      if (item.id >= F) continue;  // leaves have no split
      const InternalNode& n = splits_->node(item.id);
      if (n.split_dim >= meta_.key_dims) {
        sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
                 "node " + std::to_string(item.id) + " split_dim " +
                     std::to_string(n.split_dim) + " >= key_dims");
        continue;
      }
      if (!(item.box.lo[n.split_dim] <= n.split_key &&
            n.split_key <= item.box.hi[n.split_dim])) {
        sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
                 "node " + std::to_string(item.id) + " split key " +
                     std::to_string(n.split_key) + " outside its box");
      }
      if (node_counts_[item.id] != n.cnt_left + n.cnt_right) {
        sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
                 "node " + std::to_string(item.id) + " count " +
                     std::to_string(node_counts_[item.id]) +
                     " != cnt_l + cnt_r");
      }
      stack.push_back(
          {2 * item.id, splits_->ChildBox(item.box, item.id, true)});
      stack.push_back(
          {2 * item.id + 1, splits_->ChildBox(item.box, item.id, false)});
    }
  }
  timer.Finish("split_tree");

  // --- Leaf scan: checksums, headers, directory section entries,
  // partitioning, Lemma 1/2.
  std::vector<uint64_t> cell_counts(F, 0);
  std::vector<double> keys(meta_.key_dims, 0.0);
  uint64_t total_records = 0;
  for (uint64_t leaf = 0; leaf < F && !sink.full(); ++leaf) {
    Result<LeafData> data_or = ReadLeaf(leaf, h);
    if (!data_or.ok()) {
      sink.Add(data_or.status().code(), leaf,
               std::string(data_or.status().message()));  // NOLINT(msv-hot-path-alloc) scrubber error path, cold
      continue;
    }
    const LeafData& data = data_or.value();
    ++report.leaves_checked;
    const uint64_t leaf_heap = splits_->LeafHeapId(leaf);

    std::unordered_set<std::string_view> seen;
    seen.reserve(static_cast<size_t>(data.TotalRecords()));

    for (uint32_t level = 1; level <= h && !sink.full(); ++level) {
      const size_t count = data.SectionCount(level);
      ++report.sections_checked;
      total_records += count;
      // The directory's count and checksum of this section are what a
      // prefix read verifies the section against.
      if (Status st = CheckSection(leaf, level, data.sections[level - 1]);
          !st.ok()) {
        sink.Add(st.code(), leaf, std::string(st.message()));  // NOLINT(msv-hot-path-alloc) scrubber error path, cold
      }

      // Lemma 2: section i of leaf L samples the records of L's level-i
      // ancestor A; its size is Binomial(n_A, 1 / (h * F_A)).
      const uint64_t ancestor = SplitTree::AncestorAtLevel(leaf_heap, level);
      const uint64_t n_anc = node_counts_[ancestor];
      const uint64_t width = F >> (level - 1);  // leaves under the ancestor
      const double p = 1.0 / (static_cast<double>(h) *
                              static_cast<double>(width));
      const double expected = static_cast<double>(n_anc) * p;
      if (expected >= kMinExpectedForBound) {
        const double sd = std::sqrt(expected * (1.0 - p));
        const double dev =
            std::abs(static_cast<double>(count) - expected);
        if (dev > kSectionSizeSigmas * sd) {
          sink.Add(StatusCode::kCorruption, leaf,
                   "section " + std::to_string(level) + " size " +
                       std::to_string(count) + " deviates from Lemma-2 " +
                       "expectation " + std::to_string(expected) + " by " +
                       std::to_string(dev / sd) + " sigma");
        }
      }

      size_t misplaced = 0;
      size_t duplicates = 0;
      for (size_t r = 0; r < count; ++r) {
        const char* rec = data.SectionRecord(level, r);
        ++report.records_checked;
        for (uint32_t d = 0; d < meta_.key_dims; ++d) {
          keys[d] = layout_.Key(rec, d);
        }
        // Leaf-set partitioning: the record's split-tree path must pass
        // through the leaf's level-i ancestor.
        const uint64_t cell_heap = splits_->DescendToLevel(keys.data(), h);
        if (SplitTree::AncestorAtLevel(cell_heap, level) != ancestor) {
          ++misplaced;
        }
        ++cell_counts[splits_->LeafIndexOf(cell_heap)];
        if (!seen.insert(std::string_view(rec, meta_.record_size)).second) {
          ++duplicates;
        }
      }
      if (misplaced > 0) {
        sink.Add(StatusCode::kCorruption, leaf,
                 "section " + std::to_string(level) + ": " +
                     std::to_string(misplaced) + " of " +
                     std::to_string(count) +
                     " records outside the level-" + std::to_string(level) +
                     " ancestor's box");
      }
      if (duplicates > 0) {
        sink.Add(StatusCode::kCorruption, leaf,
                 "section " + std::to_string(level) + ": " +
                     std::to_string(duplicates) +
                     " records duplicate earlier sections "
                     "(violates without-replacement, Lemma 1)");
      }
    }
  }
  timer.Finish("leaf_scan");

  // --- Global totals: leaves must hold exactly the superblock's record
  // count, and recounted finest cells must match the persisted counts.
  if (!sink.full() && total_records != meta_.num_records) {
    sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
             "leaves hold " + std::to_string(total_records) +
                 " records, superblock claims " +
                 std::to_string(meta_.num_records));
  }
  if (report.leaves_checked == F) {
    for (uint64_t cell = 0; cell < F && !sink.full(); ++cell) {
      const uint64_t stored = node_counts_[F + cell];
      if (cell_counts[cell] != stored) {
        sink.Add(StatusCode::kCorruption, InvariantViolation::kNoLeaf,
                 "cell " + std::to_string(cell) + " recount " +
                     std::to_string(cell_counts[cell]) +
                     " != persisted count " + std::to_string(stored));
      }
    }
  }
  timer.Finish("totals");
  return report;
}

}  // namespace msv::core
