// Ranked B+-Tree: a bulk-loaded primary B+-Tree index whose internal
// entries carry subtree record counts, enabling rank(key) and
// record-at-rank(i) in one root-to-leaf descent (paper Sec. 2.2; Olken,
// Antoshenkov).
//
// On-disk layout (one file, fixed-size pages):
//   page 0              superblock
//   pages 1..L          leaf pages, in key order (the relation itself —
//                       this is a primary index; leaves hold the records)
//   pages L+1..end      internal pages, built bottom-up; root is last
//
// Leaf page:     [type=1][nrec u32][records ...]
// Internal page: [type=2][nentries u32]
//                [entries: child_page u64, subtree_count u64, max_key f64]

#ifndef MSV_BTREE_RANKED_BTREE_H_
#define MSV_BTREE_RANKED_BTREE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "extsort/external_sorter.h"
#include "io/buffer_pool.h"
#include "io/env.h"
#include "storage/record.h"
#include "util/result.h"

namespace msv::btree {

inline constexpr uint64_t kBTreeMagic = 0x3145455254425352ULL;  // "RSBTREE1"

struct BTreeOptions {
  size_t page_size = 64 << 10;
  /// The builder external-sorts the input by key first (that sort is part
  /// of the build, as with any bulk load of a primary index).
  extsort::SortOptions sort;

  Status Validate(size_t record_size) const;
};

struct BTreeMeta {
  size_t page_size = 0;
  size_t record_size = 0;
  uint64_t num_records = 0;
  uint64_t num_leaves = 0;
  uint64_t root_page = 0;
  uint32_t height = 0;  ///< levels including leaf level
  uint32_t records_per_leaf = 0;
};

/// Bulk-builds a ranked B+-Tree file `output_name` from heap file
/// `input_name`, keyed on layout dimension 0.
Status BuildRankedBTree(io::Env* env, const std::string& input_name,
                        const std::string& output_name,
                        const storage::RecordLayout& layout,
                        const BTreeOptions& options = {});

/// Read-side handle. All page access goes through the caller's BufferPool,
/// so sampling behaviour under a limited buffer is faithful to the paper.
class RankedBTree {
 public:
  /// Opens `name`; `file_id` must be unique per open file within `pool`.
  static Result<std::unique_ptr<RankedBTree>> Open(
      io::Env* env, const std::string& name,
      const storage::RecordLayout& layout, io::BufferPool* pool,
      uint64_t file_id);

  const BTreeMeta& meta() const { return meta_; }
  const storage::RecordLayout& layout() const { return layout_; }

  /// Number of records with key strictly less than `key` (0-based rank of
  /// the first record >= key).
  Result<uint64_t> CountLess(double key) const;

  /// Number of records with key <= `key`.
  Result<uint64_t> CountLessOrEqual(double key) const;

  /// Copies the record with 0-based rank `rank` (key order) into `out`.
  Status ReadByRank(uint64_t rank, char* out) const;

  /// Key of the record at `rank` (descends like ReadByRank).
  Result<double> KeyAtRank(uint64_t rank) const;

  /// Appends every record of leaf ordinal `leaf` (0-based, key order) to
  /// `out`; returns the number of records appended. One page access —
  /// the unit of block-based sampling (Sec. 2.3).
  Result<uint32_t> ReadLeafRecords(uint64_t leaf, std::string* out) const;

 private:
  RankedBTree(std::unique_ptr<io::File> file,
              const storage::RecordLayout& layout, io::BufferPool* pool,
              uint64_t file_id, BTreeMeta meta)
      : file_(std::move(file)),
        layout_(layout),
        pool_(pool),
        file_id_(file_id),
        meta_(meta) {}

  Result<io::PageRef> GetPage(uint64_t page_no) const;

  std::unique_ptr<io::File> file_;
  storage::RecordLayout layout_;
  io::BufferPool* pool_;
  uint64_t file_id_;
  BTreeMeta meta_;
};

/// Page-format helpers shared by the builder, reader and tests.
namespace format {
inline constexpr uint8_t kLeafPage = 1;
inline constexpr uint8_t kInternalPage = 2;
inline constexpr size_t kPageHeaderSize = 8;  // type u8, pad, count u32
inline constexpr size_t kInternalEntrySize = 24;
inline constexpr size_t kSuperblockSize = 80;

size_t LeafCapacity(size_t page_size, size_t record_size);
size_t InternalCapacity(size_t page_size);
}  // namespace format

}  // namespace msv::btree

#endif  // MSV_BTREE_RANKED_BTREE_H_
