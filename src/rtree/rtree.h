// STR-packed R-Tree over multi-dimensional point records, used as the 2-d
// baseline of the paper's Experiment 2.
//
// Built in bulk with Sort-Tile-Recursive (Leutenegger et al., ICDE 1997):
// records are external-sorted by dimension 0, cut into vertical slices,
// each slice external-sorted by dimension 1 and packed into full leaf
// pages; internal levels are packed bottom-up with exact MBRs and subtree
// record counts (a "ranked" R-tree, the obvious extension of
// Antoshenkov's ranked B+-tree sampling to spatial data).
//
// Layout mirrors the ranked B+-tree:
//   page 0        superblock
//   pages 1..L    leaf pages (the relation itself; primary index)
//   pages L+1..   internal pages, root last
//
// Leaf page:     [type=1][nrec u32][records...]
// Internal page: [type=2][nentries u32]
//                [entries: child_page u64, count u64,
//                          per-dim (lo f64, hi f64) x dims]

#ifndef MSV_RTREE_RTREE_H_
#define MSV_RTREE_RTREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "extsort/external_sorter.h"
#include "io/buffer_pool.h"
#include "io/env.h"
#include "sampling/range_query.h"
#include "storage/record.h"
#include "util/result.h"

namespace msv::rtree {

inline constexpr uint64_t kRTreeMagic = 0x3145455254525453ULL;  // "STRRTEE1"

/// The tree indexes every key dimension of the record layout.
struct RTreeOptions {
  size_t page_size = 64 << 10;
  extsort::SortOptions sort;

  Status Validate(const storage::RecordLayout& layout) const;
};

struct RTreeMeta {
  size_t page_size = 0;
  size_t record_size = 0;
  uint32_t dims = 0;
  uint64_t num_records = 0;
  uint64_t num_leaves = 0;
  uint64_t root_page = 0;
  uint32_t height = 0;
  uint32_t records_per_leaf = 0;
};

/// Bulk-builds an STR R-tree file from a heap file.
Status BuildRTree(io::Env* env, const std::string& input_name,
                  const std::string& output_name,
                  const storage::RecordLayout& layout,
                  const RTreeOptions& options = {});

/// A leaf page overlapping some query, with its record count (sampling
/// candidate run).
struct CandidateRun {
  uint64_t page = 0;
  uint32_t count = 0;
};

class RTree {
 public:
  static Result<std::unique_ptr<RTree>> Open(
      io::Env* env, const std::string& name,
      const storage::RecordLayout& layout, io::BufferPool* pool,
      uint64_t file_id);

  const RTreeMeta& meta() const { return meta_; }
  const storage::RecordLayout& layout() const { return layout_; }

  /// All leaf pages whose MBR intersects `query`, via a root-to-leaf
  /// traversal of internal pages (charged through the buffer pool). The
  /// records on these pages are the candidate superset of the match set.
  Result<std::vector<CandidateRun>> CollectCandidates(
      const sampling::RangeQuery& query) const;

  /// Copies record `index` of leaf `page` into `out`.
  Status ReadRecordAt(uint64_t page, uint32_t index, char* out) const;

 private:
  RTree(std::unique_ptr<io::File> file, const storage::RecordLayout& layout,
        io::BufferPool* pool, uint64_t file_id, RTreeMeta meta)
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
  RTreeMeta meta_;
};

namespace format {
inline constexpr uint8_t kLeafPage = 1;
inline constexpr uint8_t kInternalPage = 2;
inline constexpr size_t kPageHeaderSize = 8;
inline constexpr size_t kSuperblockSize = 96;

inline size_t InternalEntrySize(uint32_t dims) { return 16 + 16ul * dims; }
inline size_t LeafCapacity(size_t page_size, size_t record_size) {
  return (page_size - kPageHeaderSize) / record_size;
}
inline size_t InternalCapacity(size_t page_size, uint32_t dims) {
  return (page_size - kPageHeaderSize) / InternalEntrySize(dims);
}
}  // namespace format

}  // namespace msv::rtree

#endif  // MSV_RTREE_RTREE_H_
