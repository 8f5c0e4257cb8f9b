// On-disk format of the ACE Tree (Appendability, Combinability,
// Exponentiality Tree), the index structure implementing a materialized
// sample view (paper Secs. 3-5).
//
// One file, byte-addressed with page-aligned regions:
//
//   [superblock]        fixed-size header (magic, geometry, key domain)
//   [internal region]   F-1 internal nodes in heap order (node 1 = root,
//                       node n's children are 2n and 2n+1): split key,
//                       split dimension, cnt_left, cnt_right
//   [directory region]  F entries, one per leaf: byte offset u64, byte
//                       length u64, then for each section i = 1..h its
//                       record count u32 and the masked CRC32C u32 of
//                       its bytes
//   [leaf region]       leaf nodes in leaf-id order; each leaf is
//                       [leaf header: leaf id u32, height u32,
//                        section record-counts u32[h]]
//                       [section 1 records][section 2 records]...[section h]
//                       [masked CRC32C u32 over everything before it]
//
// Leaves are variable-sized and may span disk pages (the paper's chosen
// scheme, Sec. 5.6); the directory makes every leaf a single contiguous
// read. The internal region and directory are loaded into memory when the
// tree is opened — together they are a tiny fraction of the data size.
//
// Section i of a leaf can only hold matches when the leaf's level-i
// ancestor intersects the query, and every coarser ancestor then does
// too, so a query needs a prefix of each leaf: the header and sections
// 1..k. The directory's per-section counts and checksums (format v3) let
// a reader size that prefix, read it in one contiguous read and verify
// it without touching the rest of the leaf. The trailing whole-leaf CRC
// still covers every byte, for readers that take the whole leaf.

#ifndef MSV_CORE_ACE_FORMAT_H_
#define MSV_CORE_ACE_FORMAT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "storage/record.h"
#include "util/result.h"

namespace msv::core {

inline constexpr uint64_t kAceMagic = 0x3145455254454341ULL;  // "ACETREE1"
/// v2 added masked CRC32C checksums of the internal and directory regions
/// to the superblock, so a torn write anywhere in the file surfaces as
/// Status::Corruption on open. v3 adds each section's record count and
/// checksum to the directory, so a reader can read and verify a prefix
/// of a leaf. Older files are not readable.
inline constexpr uint32_t kAceVersion = 3;
inline constexpr size_t kSuperblockSize = 256;
inline constexpr size_t kInternalNodeSize = 32;  // key f64, dim u32, pad, cnt_l u64, cnt_r u64
/// Tallest tree the builder makes and a reader accepts (2^39 leaves); a
/// superblock claiming more is corrupt.
inline constexpr uint32_t kMaxHeight = 40;

/// Geometry and key-domain metadata persisted in the superblock.
struct AceMeta {
  size_t page_size = 64 << 10;
  size_t record_size = 0;
  uint32_t key_dims = 1;
  /// Tree height h = number of ranges/sections per leaf. Internal node
  /// levels are 1..h-1; level h corresponds to the leaves themselves.
  uint32_t height = 0;
  /// Number of leaves, F = 2^(h-1).
  uint64_t num_leaves = 0;
  uint64_t num_records = 0;
  /// Region offsets in bytes.
  uint64_t internal_offset = 0;
  uint64_t directory_offset = 0;
  uint64_t data_offset = 0;
  /// Smallest/largest key value per dimension (defines the root range).
  std::array<double, storage::kMaxKeyDims> domain_min{};
  std::array<double, storage::kMaxKeyDims> domain_max{};
  /// Masked CRC32C of the raw internal-node and directory regions (format
  /// v2). Verified by AceTree::Open before either region is trusted.
  uint32_t internal_crc = 0;
  uint32_t directory_crc = 0;

  uint64_t num_internal_nodes() const {
    return num_leaves > 0 ? num_leaves - 1 : 0;
  }
};

/// One internal node of the binary split tree. Node n (heap order,
/// 1-indexed) splits its range on `split_dim` at `split_key`: records with
/// key < split_key belong to child 2n, the rest to child 2n+1. cnt_left /
/// cnt_right are exact record counts of the two subtrees (paper Sec. 3.2;
/// used for online-aggregation population estimates).
struct InternalNode {
  double split_key = 0.0;
  uint32_t split_dim = 0;
  uint64_t cnt_left = 0;
  uint64_t cnt_right = 0;
};

/// Directory entry locating one leaf in the data region.
struct LeafLocation {
  uint64_t offset = 0;  // absolute byte offset in the file
  uint64_t length = 0;  // bytes, header included
};

/// The directory's record of one leaf section (format v3).
struct SectionEntry {
  uint32_t count = 0;       // records in the section
  uint32_t masked_crc = 0;  // MaskCrc(Crc32c) of the section's bytes
};

/// Bytes of one directory entry for a tree of height h: offset u64,
/// length u64, then h SectionEntry pairs (count u32, masked CRC u32).
inline size_t DirectoryEntrySize(uint32_t height) {
  return 16 + 8ul * height;
}

/// An axis-aligned box with half-open intervals [lo, hi) per dimension.
/// The root box spans [domain_min, just-above-domain_max).
struct Box {
  std::array<double, storage::kMaxKeyDims> lo{};
  std::array<double, storage::kMaxKeyDims> hi{};
  uint32_t dims = 1;
};

/// Serialization helpers (format details shared with tests).
void EncodeSuperblock(char* dst, const AceMeta& meta);
Result<AceMeta> DecodeSuperblock(const char* src);
void EncodeInternalNode(char* dst, const InternalNode& node);
InternalNode DecodeInternalNode(const char* src);
/// One directory entry of DirectoryEntrySize(height) bytes; `sections`
/// holds the leaf's h entries, section 1 first.
void EncodeDirectoryEntry(char* dst, const LeafLocation& loc,
                          const SectionEntry* sections, uint32_t height);
LeafLocation DecodeDirectoryEntry(const char* src, uint32_t height,
                                  SectionEntry* sections);

/// Size in bytes of a leaf header for a tree of height h.
inline size_t LeafHeaderSize(uint32_t height) {
  return 8 + 4ul * height;  // leaf id u32, height u32, per-section counts
}

}  // namespace msv::core

#endif  // MSV_CORE_ACE_FORMAT_H_
