// Read-side handle of an ACE Tree file.
//
// Opening a tree loads the superblock, the internal-node array (split tree
// plus exact subtree counts) and the leaf directory into memory — the same
// working set the paper's query algorithm assumes (its lookup table T is
// memory-resident). Leaf nodes, or the prefix of one that a query can
// use, are then single contiguous file reads.

#ifndef MSV_CORE_ACE_TREE_H_
#define MSV_CORE_ACE_TREE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ace_format.h"
#include "core/split_tree.h"
#include "io/env.h"
#include "sampling/range_query.h"
#include "storage/record.h"
#include "util/result.h"

namespace msv::core {

/// One leaf node read from disk: h sections, each a packed run of records.
/// Section i (1-based) is a uniform random subset of the records in the
/// box of the leaf's level-i ancestor.
///
/// The leaf owns the page bytes its one read filled, and each section is
/// a view into them: nothing is copied between the read and the filter.
/// The bytes live in a heap array, whose move keeps their address, so the
/// views survive a move of the leaf; copying is disabled so no copy can
/// view into another leaf's page.
///
/// A read may stop after section `levels_read` (AceTree::ReadLeaf): the
/// sections past it were neither read nor verified and are empty views,
/// so `sections` always has h entries.
struct LeafData {
  LeafData() = default;
  LeafData(LeafData&&) = default;
  LeafData& operator=(LeafData&&) = default;
  LeafData(const LeafData&) = delete;
  LeafData& operator=(const LeafData&) = delete;

  /// Checks a raw whole-leaf page of `size` bytes in place — trailing
  /// masked CRC32C, header (leaf index, height, per-section counts) and
  /// section bounds — and returns the leaf that owns `page` with its
  /// sections viewing into it.
  static Result<LeafData> Parse(std::unique_ptr<char[]> page, size_t size,
                                uint64_t leaf_index, uint32_t height,
                                size_t record_size);

  uint64_t leaf_index = 0;
  size_t record_size = 0;
  /// Sections 1..levels_read were read and verified.
  uint32_t levels_read = 0;
  /// sections[i-1] views section i's records, densely packed.
  std::vector<std::string_view> sections;

  size_t SectionCount(size_t level) const {
    return sections[level - 1].size() / record_size;
  }
  const char* SectionRecord(size_t level, size_t idx) const {
    return sections[level - 1].data() + idx * record_size;
  }
  /// Records in the sections that were read.
  uint64_t TotalRecords() const {
    uint64_t n = 0;
    for (std::string_view s : sections) n += s.size();
    return n / record_size;
  }

 private:
  friend class AceTree;
  std::unique_ptr<char[]> page_;
};

/// One invariant violation. `leaf` identifies the offending on-disk leaf
/// page where the problem is local; kNoLeaf marks tree-wide violations.
struct InvariantViolation {
  static constexpr uint64_t kNoLeaf = ~0ull;

  StatusCode code = StatusCode::kCorruption;
  uint64_t leaf = kNoLeaf;
  std::string detail;

  std::string ToString() const;
};

/// Outcome of a structural verification pass.
struct InvariantReport {
  /// The scan stops once this many violations are collected, so a badly
  /// mangled file does not produce gigabytes of report.
  static constexpr size_t kMaxViolations = 64;

  std::vector<InvariantViolation> violations;
  uint64_t leaves_checked = 0;
  uint64_t records_checked = 0;
  uint64_t sections_checked = 0;
  /// True when kMaxViolations cut the scan short.
  bool truncated = false;
  /// Wall-clock duration of each verification phase (geometry,
  /// split_tree, leaf_scan, totals) in execution order, microseconds.
  /// Each phase is also published as a `verify.<phase>_us` counter in
  /// the global metrics registry, so `msv_inspect --verify` can surface
  /// slow checks on large trees.
  std::vector<std::pair<std::string, uint64_t>> check_us;

  bool ok() const { return violations.empty(); }
  /// OK when clean; otherwise the first violation's code and a summary.
  Status ToStatus() const;
  /// Multi-line human-readable report (one line per violation).
  std::string ToString() const;
};

class AceTree {
 public:
  /// Opens the ACE tree file `name` in `env`.
  static Result<std::unique_ptr<AceTree>> Open(
      io::Env* env, const std::string& name,
      const storage::RecordLayout& layout);

  const AceMeta& meta() const { return meta_; }
  const SplitTree& splits() const { return *splits_; }
  const storage::RecordLayout& layout() const { return layout_; }

  /// Reads the header and sections 1..`levels` of one leaf, levels in
  /// [1, h], in a single contiguous I/O (a large leaf spans pages but
  /// costs only one seek, per the paper's variable-size-leaf scheme).
  /// `levels == h` reads the whole blob and checks its trailing CRC;
  /// a shorter prefix is sized from the directory and each section read
  /// is checked against the directory's checksum. Either way the header's
  /// leaf index, height and counts must match the directory.
  Result<LeafData> ReadLeaf(uint64_t leaf_index, uint32_t levels) const;

  /// Reads a set of whole leaves with one File::ReadBatch call, one
  /// request per leaf. Requests are issued in elevator order (ascending
  /// physical offset), so a leaf adjacent on disk to the previous one —
  /// the builder lays leaves out contiguously in index order — is a
  /// sequential access that pays no seek. Results are returned in *input* order, so callers'
  /// consumption order (and hence the sample stream) is unaffected by the
  /// I/O schedule.
  Result<std::vector<LeafData>> ReadLeaves(
      const std::vector<uint64_t>& leaf_indices) const;

  /// One section of a leaf as the directory describes it, and whether
  /// the section's bytes match the directory's checksum.
  struct SectionCheck {
    uint32_t count = 0;  ///< records, from the directory
    Status status;       ///< CheckSection of the bytes read
  };

  /// Diagnoses one leaf section by section, trusting only the checksummed
  /// directory: reads the header and all h sections, skips the trailing
  /// whole-leaf CRC and the header fields, and runs CheckSection on each
  /// section where the directory's counts place it. One damaged section
  /// therefore leaves the others' status visible (ReadLeaf stops at the
  /// first failed check). Fails only when the leaf cannot be read.
  Result<std::vector<SectionCheck>> CheckLeafSections(
      uint64_t leaf_index) const;

  /// Corruption unless `bytes` holds the record count and masked CRC32C
  /// that the directory records for section `level` of `leaf_index`.
  Status CheckSection(uint64_t leaf_index, uint32_t level,
                      std::string_view bytes) const;

  /// Exact number of records in heap node `heap_id`'s box (from the
  /// persisted cnt_l/cnt_r; heap_id may be internal or a leaf cell).
  uint64_t NodeCount(uint64_t heap_id) const;

  /// Estimate of |σ_Q(R)| from the internal-node counts: fully covered
  /// subtrees contribute exactly, boundary cells are pro-rated by volume
  /// overlap. Used by online aggregation to scale AVG to SUM.
  Result<uint64_t> EstimateMatchCount(const sampling::RangeQuery& q) const;

  /// Bytes occupied by the whole file (scan-time denominator in benches).
  uint64_t file_bytes() const { return file_bytes_; }

  /// Full structural verification of the on-disk tree (ace_verify.cc):
  /// leaf-page checksums and headers, each section's count and checksum
  /// against the directory, directory geometry, split-tree
  /// sanity, Lemma-2 section-size bounds, level-i leaf-set partitioning
  /// (every section-i record descends to the leaf's level-i ancestor),
  /// per-leaf section disjointness (Lemma 1), and cnt_l/cnt_r count
  /// consistency (recounting records per finest cell costs one
  /// DescendToLevel per record). Reads every leaf once; O(N) records
  /// scanned.
  InvariantReport CheckInvariants() const;

 private:
  AceTree(std::unique_ptr<io::File> file, storage::RecordLayout layout,
          AceMeta meta, std::unique_ptr<SplitTree> splits,
          std::vector<LeafLocation> directory,
          std::vector<SectionEntry> sections,
          std::vector<uint64_t> node_counts, uint64_t file_bytes)
      : file_(std::move(file)),
        layout_(std::move(layout)),
        meta_(meta),
        splits_(std::move(splits)),
        directory_(std::move(directory)),
        sections_(std::move(sections)),
        node_counts_(std::move(node_counts)),
        file_bytes_(file_bytes) {}

  std::unique_ptr<io::File> file_;
  storage::RecordLayout layout_;
  AceMeta meta_;
  std::unique_ptr<SplitTree> splits_;
  std::vector<LeafLocation> directory_;
  /// The directory's section entries, h per leaf, leaf-major.
  std::vector<SectionEntry> sections_;
  /// Record count per heap node, ids 1..2F-1 (index by id).
  std::vector<uint64_t> node_counts_;
  uint64_t file_bytes_;

  /// Corruption unless the directory entry of `leaf_index` lies inside
  /// [data_offset, file_bytes); checked before a buffer is sized from it.
  Status CheckLeafLocation(uint64_t leaf_index) const;

  /// The directory's h section entries of `leaf_index`, section 1 first.
  std::span<const SectionEntry> section_entries(uint64_t leaf_index) const {
    return {sections_.data() + leaf_index * meta_.height, meta_.height};
  }

  /// Bytes of `leaf_index`'s header and sections 1..`levels`, sized from
  /// the directory; Corruption when they overrun the leaf's trailing CRC.
  Result<size_t> PrefixSize(uint64_t leaf_index, uint32_t levels) const;

  /// Corruption unless the leaf header at `page` holds `leaf_index`, the
  /// tree's height and the directory's h section counts.
  Status CheckHeader(uint64_t leaf_index, const char* page) const;

  /// Parses a whole-leaf page (LeafData::Parse), then CheckHeader.
  Result<LeafData> ParseWholeLeaf(uint64_t leaf_index,
                                  std::unique_ptr<char[]> page) const;
};

}  // namespace msv::core

#endif  // MSV_CORE_ACE_TREE_H_
