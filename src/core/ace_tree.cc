#include "core/ace_tree.h"

#include <algorithm>
#include <cmath>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace msv::core {

Result<std::unique_ptr<AceTree>> AceTree::Open(
    io::Env* env, const std::string& name,
    const storage::RecordLayout& layout) {
  MSV_RETURN_IF_ERROR(layout.Validate());
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> file,
                       env->OpenFile(name, /*create=*/false));

  char super[kSuperblockSize];
  MSV_RETURN_IF_ERROR(file->ReadExact(0, sizeof(super), super));
  MSV_ASSIGN_OR_RETURN(AceMeta meta, DecodeSuperblock(super));
  if (meta.record_size != layout.record_size) {
    return Status::InvalidArgument("layout record size mismatch");
  }
  if (meta.key_dims > layout.key_dims()) {
    return Status::InvalidArgument("layout has fewer key dims than tree");
  }

  const uint64_t num_leaves = meta.num_leaves;
  MSV_ASSIGN_OR_RETURN(uint64_t file_bytes, file->Size());
  // Both regions must lie inside the file before buffers are sized from
  // the superblock's leaf count.
  auto fits = [file_bytes](uint64_t offset, uint64_t bytes) {
    return offset <= file_bytes && bytes <= file_bytes - offset;
  };
  if (!fits(meta.internal_offset, (num_leaves - 1) * kInternalNodeSize) ||
      !fits(meta.directory_offset,
            num_leaves * DirectoryEntrySize(meta.height))) {
    return Status::Corruption("ACE internal or directory region past end of "
                              "file (" + std::to_string(file_bytes) +
                              " bytes)");
  }

  // Internal-node array; region checksum verified before any node is
  // trusted.
  std::vector<InternalNode> nodes(num_leaves - 1);
  {
    std::string bytes((num_leaves - 1) * kInternalNodeSize, '\0');
    if (!bytes.empty()) {
      MSV_RETURN_IF_ERROR(
          file->ReadExact(meta.internal_offset, bytes.size(), bytes.data()));
    }
    if (MaskCrc(Crc32c(bytes.data(), bytes.size())) != meta.internal_crc) {
      return Status::Corruption("ACE internal region checksum mismatch");
    }
    for (uint64_t id = 1; id < num_leaves; ++id) {
      nodes[id - 1] =
          DecodeInternalNode(bytes.data() + (id - 1) * kInternalNodeSize);
    }
  }

  // Leaf directory, checksummed the same way.
  std::vector<LeafLocation> directory(num_leaves);
  std::vector<SectionEntry> sections(num_leaves * meta.height);
  {
    const size_t entry_size = DirectoryEntrySize(meta.height);
    std::string bytes(num_leaves * entry_size, '\0');
    MSV_RETURN_IF_ERROR(
        file->ReadExact(meta.directory_offset, bytes.size(), bytes.data()));
    if (MaskCrc(Crc32c(bytes.data(), bytes.size())) != meta.directory_crc) {
      return Status::Corruption("ACE directory checksum mismatch");
    }
    for (uint64_t i = 0; i < num_leaves; ++i) {
      directory[i] = DecodeDirectoryEntry(bytes.data() + i * entry_size,
                                          meta.height,
                                          sections.data() + i * meta.height);
    }
  }

  Box root;
  root.dims = meta.key_dims;
  for (uint32_t d = 0; d < meta.key_dims; ++d) {
    root.lo[d] = meta.domain_min[d];
    root.hi[d] = meta.domain_max[d];
  }
  auto splits = std::make_unique<SplitTree>(meta.height, meta.key_dims,
                                            std::move(nodes), root);

  // Per-node record counts, rebuilt from cnt_l/cnt_r.
  std::vector<uint64_t> node_counts(2 * num_leaves, 0);
  node_counts[1] = meta.num_records;
  for (uint64_t id = 1; id < num_leaves; ++id) {
    const InternalNode& n = splits->node(id);
    node_counts[2 * id] = n.cnt_left;
    node_counts[2 * id + 1] = n.cnt_right;
  }

  return std::unique_ptr<AceTree>(new AceTree(
      std::move(file), layout, meta, std::move(splits), std::move(directory),
      std::move(sections), std::move(node_counts), file_bytes));
}

Result<LeafData> LeafData::Parse(std::unique_ptr<char[]> page, size_t size,
                                 uint64_t leaf_index, uint32_t height,
                                 size_t record_size) {
  if (size < 4) {
    return Status::Corruption("leaf blob shorter than its checksum");
  }
  const size_t body = size - 4;
  uint32_t stored = UnmaskCrc(DecodeFixed32(page.get() + body));
  if (stored != Crc32c(page.get(), body)) {
    return Status::Corruption("leaf " + std::to_string(leaf_index) +
                              " checksum mismatch");
  }

  const size_t header = LeafHeaderSize(height);
  if (body < header) {
    return Status::Corruption("leaf blob shorter than header");
  }
  uint32_t stored_index = DecodeFixed32(page.get());
  uint32_t stored_height = DecodeFixed32(page.get() + 4);
  if (stored_index != leaf_index || stored_height != height) {
    return Status::Corruption("leaf header mismatch for leaf " +
                              std::to_string(leaf_index));
  }

  LeafData leaf;
  leaf.leaf_index = leaf_index;
  leaf.record_size = record_size;
  leaf.levels_read = height;
  leaf.sections.reserve(height);
  size_t off = header;
  for (uint32_t s = 0; s < height; ++s) {
    uint32_t count = DecodeFixed32(page.get() + 8 + 4 * s);
    size_t bytes = static_cast<size_t>(count) * record_size;
    if (bytes > body - off) {
      return Status::Corruption("leaf section overruns blob");
    }
    leaf.sections.emplace_back(page.get() + off, bytes);
    off += bytes;
  }
  if (off != body) {
    return Status::Corruption("trailing bytes in leaf blob");
  }
  leaf.page_ = std::move(page);
  return leaf;
}

Result<LeafData> AceTree::ParseWholeLeaf(uint64_t leaf_index,
                                         std::unique_ptr<char[]> page) const {
  MSV_ASSIGN_OR_RETURN(
      LeafData leaf,
      LeafData::Parse(std::move(page), directory_[leaf_index].length,
                      leaf_index, meta_.height, meta_.record_size));
  MSV_RETURN_IF_ERROR(CheckHeader(leaf_index, leaf.page_.get()));
  return leaf;
}

Status AceTree::CheckHeader(uint64_t leaf_index, const char* page) const {
  bool ok = DecodeFixed32(page) == leaf_index &&
            DecodeFixed32(page + 4) == meta_.height;
  std::span<const SectionEntry> entries = section_entries(leaf_index);
  for (uint32_t s = 0; s < meta_.height && ok; ++s) {
    ok = DecodeFixed32(page + 8 + 4 * s) == entries[s].count;
  }
  if (ok) return Status::OK();
  return Status::Corruption("leaf " + std::to_string(leaf_index) +
                            " header differs from the directory");
}

Status AceTree::CheckSection(uint64_t leaf_index, uint32_t level,
                             std::string_view bytes) const {
  const SectionEntry& entry = section_entries(leaf_index)[level - 1];
  if (bytes.size() != size_t{entry.count} * meta_.record_size) {
    return Status::Corruption(
        "leaf " + std::to_string(leaf_index) + " section " +
        std::to_string(level) + " count differs from the directory");
  }
  if (MaskCrc(Crc32c(bytes.data(), bytes.size())) != entry.masked_crc) {
    return Status::Corruption("leaf " + std::to_string(leaf_index) +
                              " section " + std::to_string(level) +
                              " checksum mismatch");
  }
  return Status::OK();
}

Result<LeafData> AceTree::ReadLeaf(uint64_t leaf_index,
                                   uint32_t levels) const {
  if (leaf_index >= meta_.num_leaves) {
    return Status::OutOfRange("leaf index out of range");
  }
  const uint32_t h = meta_.height;
  if (levels == 0 || levels > h) {
    return Status::InvalidArgument("leaf read of " + std::to_string(levels) +
                                   " levels in a tree of height " +
                                   std::to_string(h));
  }
  MSV_RETURN_IF_ERROR(CheckLeafLocation(leaf_index));
  const LeafLocation& loc = directory_[leaf_index];
  if (levels == h) {
    // No zero-fill: the read overwrites every byte.
    auto page = std::make_unique_for_overwrite<char[]>(loc.length);
    MSV_RETURN_IF_ERROR(file_->ReadExact(loc.offset, loc.length, page.get()));
    return ParseWholeLeaf(leaf_index, std::move(page));
  }

  // Prefix: the header and sections 1..levels, sized from the directory
  // and ending before the leaf's trailing checksum.
  std::span<const SectionEntry> entries = section_entries(leaf_index);
  const size_t header = LeafHeaderSize(h);
  uint64_t size = header;
  for (uint32_t s = 0; s < levels; ++s) {
    size += uint64_t{entries[s].count} * meta_.record_size;
  }
  if (loc.length < 4 || size > loc.length - 4) {
    return Status::Corruption("leaf " + std::to_string(leaf_index) +
                              " directory sections overrun the leaf");
  }
  auto page = std::make_unique_for_overwrite<char[]>(size);
  MSV_RETURN_IF_ERROR(file_->ReadExact(loc.offset, size, page.get()));

  // No section checksum covers the header, so it is verified field by
  // field against the checksummed directory.
  MSV_RETURN_IF_ERROR(CheckHeader(leaf_index, page.get()));

  LeafData leaf;
  leaf.leaf_index = leaf_index;
  leaf.record_size = meta_.record_size;
  leaf.levels_read = levels;
  leaf.sections.resize(h);
  size_t off = header;
  for (uint32_t s = 0; s < levels; ++s) {
    const size_t bytes = size_t{entries[s].count} * meta_.record_size;
    leaf.sections[s] = std::string_view(page.get() + off, bytes);
    MSV_RETURN_IF_ERROR(CheckSection(leaf_index, s + 1, leaf.sections[s]));
    off += bytes;
  }
  leaf.page_ = std::move(page);
  return leaf;
}

Result<std::vector<LeafData>> AceTree::ReadLeaves(
    const std::vector<uint64_t>& leaf_indices) const {
  for (uint64_t idx : leaf_indices) {
    if (idx >= meta_.num_leaves) {
      return Status::OutOfRange("leaf index out of range");
    }
    MSV_RETURN_IF_ERROR(CheckLeafLocation(idx));
  }
  // Elevator (SCAN) schedule: issue requests in ascending physical offset
  // so a leaf adjacent on disk to the one before it is a sequential
  // access (transfer time, no seek) on the simulated disk.
  std::vector<size_t> order(leaf_indices.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    uint64_t oa = directory_[leaf_indices[a]].offset;
    uint64_t ob = directory_[leaf_indices[b]].offset;
    if (oa != ob) return oa < ob;
    return a < b;
  });

  std::vector<std::unique_ptr<char[]>> pages(leaf_indices.size());
  std::vector<io::ReadRequest> reqs(leaf_indices.size());
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t pos = order[k];
    const LeafLocation& loc = directory_[leaf_indices[pos]];
    pages[pos] = std::make_unique_for_overwrite<char[]>(loc.length);
    reqs[k].offset = loc.offset;
    reqs[k].n = loc.length;
    reqs[k].scratch = pages[pos].get();
  }
  MSV_RETURN_IF_ERROR(file_->ReadBatch(reqs.data(), reqs.size()));
  for (size_t k = 0; k < reqs.size(); ++k) {
    if (reqs[k].got != reqs[k].n) {
      return Status::IOError(
          "short read: wanted " + std::to_string(reqs[k].n) +
          " bytes at offset " + std::to_string(reqs[k].offset) + ", got " +
          std::to_string(reqs[k].got));
    }
  }

  std::vector<LeafData> leaves;
  leaves.reserve(leaf_indices.size());
  for (size_t i = 0; i < leaf_indices.size(); ++i) {
    MSV_ASSIGN_OR_RETURN(LeafData leaf,
                         ParseWholeLeaf(leaf_indices[i], std::move(pages[i])));
    leaves.push_back(std::move(leaf));
  }
  return leaves;
}

Status AceTree::CheckLeafLocation(uint64_t leaf_index) const {
  const LeafLocation& loc = directory_[leaf_index];
  if (loc.offset >= meta_.data_offset && loc.offset <= file_bytes_ &&
      loc.length <= file_bytes_ - loc.offset) {
    return Status::OK();
  }
  return Status::Corruption(
      "leaf " + std::to_string(leaf_index) +
      " directory entry outside data region: offset " +
      std::to_string(loc.offset) + " length " + std::to_string(loc.length));
}

uint64_t AceTree::NodeCount(uint64_t heap_id) const {
  MSV_CHECK(heap_id >= 1 && heap_id < 2 * meta_.num_leaves);
  return node_counts_[heap_id];
}

namespace {

// Fraction of box `b` (half-open) covered by query `q` (closed), assuming
// uniform density inside the box.
double VolumeOverlapFraction(const Box& b, const sampling::RangeQuery& q) {
  double frac = 1.0;
  for (size_t d = 0; d < q.dims; ++d) {
    double width = b.hi[d] - b.lo[d];
    if (width <= 0) return 0.0;
    double lo = std::max(b.lo[d], q.bounds[d].lo);
    double hi = std::min(b.hi[d], q.bounds[d].hi);
    if (hi <= lo) return 0.0;
    frac *= (hi - lo) / width;
  }
  return frac;
}

}  // namespace

Result<uint64_t> AceTree::EstimateMatchCount(
    const sampling::RangeQuery& q) const {
  MSV_RETURN_IF_ERROR(q.Validate(layout_));
  if (q.dims != meta_.key_dims) {
    return Status::InvalidArgument(
        "query dimensionality differs from tree key_dims");
  }
  double estimate = 0.0;
  struct Item {
    uint64_t id;
    Box box;
  };
  std::vector<Item> stack{{1, splits_->root_box()}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    if (!BoxOverlapsQuery(item.box, q)) continue;
    uint64_t count = node_counts_[item.id];
    if (count == 0) continue;
    // Fully inside the query: exact contribution.
    bool inside = true;
    for (size_t d = 0; d < q.dims; ++d) {
      if (!(q.bounds[d].lo <= item.box.lo[d] &&
            item.box.hi[d] <= std::nextafter(
                                  q.bounds[d].hi,
                                  std::numeric_limits<double>::infinity()))) {
        inside = false;
        break;
      }
    }
    if (inside) {
      estimate += static_cast<double>(count);
      continue;
    }
    if (item.id < meta_.num_leaves) {
      stack.push_back({2 * item.id,
                       splits_->ChildBox(item.box, item.id, /*left=*/true)});
      stack.push_back({2 * item.id + 1,
                       splits_->ChildBox(item.box, item.id, /*left=*/false)});
    } else {
      // Finest cell partially overlapping the query: pro-rate by volume.
      estimate += static_cast<double>(count) *
                  VolumeOverlapFraction(item.box, q);
    }
  }
  return static_cast<uint64_t>(std::llround(estimate));
}

}  // namespace msv::core
