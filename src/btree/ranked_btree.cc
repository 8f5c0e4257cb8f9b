#include "btree/ranked_btree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "storage/heap_file.h"
#include "util/coding.h"
#include "util/logging.h"

namespace msv::btree {

namespace format {

size_t LeafCapacity(size_t page_size, size_t record_size) {
  return (page_size - kPageHeaderSize) / record_size;
}

size_t InternalCapacity(size_t page_size) {
  return (page_size - kPageHeaderSize) / kInternalEntrySize;
}

}  // namespace format

namespace {

using storage::HeapFile;

struct ChildInfo {
  uint64_t page = 0;
  uint64_t count = 0;
  double max_key = 0.0;
};

void WritePageHeader(char* page, uint8_t type, uint32_t count) {
  page[0] = static_cast<char>(type);
  page[1] = page[2] = page[3] = 0;
  EncodeFixed32(page + 4, count);
}

void EncodeSuperblock(char* dst, const BTreeMeta& meta) {
  std::memset(dst, 0, format::kSuperblockSize);
  EncodeFixed64(dst, kBTreeMagic);
  EncodeFixed32(dst + 8, 1);  // version
  EncodeFixed32(dst + 12, static_cast<uint32_t>(meta.page_size));
  EncodeFixed32(dst + 16, static_cast<uint32_t>(meta.record_size));
  EncodeFixed32(dst + 20, meta.records_per_leaf);
  EncodeFixed64(dst + 24, meta.num_records);
  EncodeFixed64(dst + 32, meta.num_leaves);
  EncodeFixed64(dst + 40, meta.root_page);
  EncodeFixed32(dst + 48, meta.height);
}

Result<BTreeMeta> DecodeSuperblock(const char* src) {
  if (DecodeFixed64(src) != kBTreeMagic) {
    return Status::Corruption("bad B+-tree magic");
  }
  if (DecodeFixed32(src + 8) != 1) {
    return Status::Corruption("unsupported B+-tree version");
  }
  BTreeMeta meta;
  meta.page_size = DecodeFixed32(src + 12);
  meta.record_size = DecodeFixed32(src + 16);
  meta.records_per_leaf = DecodeFixed32(src + 20);
  meta.num_records = DecodeFixed64(src + 24);
  meta.num_leaves = DecodeFixed64(src + 32);
  meta.root_page = DecodeFixed64(src + 40);
  meta.height = DecodeFixed32(src + 48);
  if (meta.page_size == 0 || meta.record_size == 0) {
    return Status::Corruption("zero page or record size in superblock");
  }
  return meta;
}

}  // namespace

Status BTreeOptions::Validate(size_t record_size) const {
  if (page_size < format::kPageHeaderSize + record_size) {
    return Status::InvalidArgument("page too small for one record");
  }
  if (format::InternalCapacity(page_size) < 2) {
    return Status::InvalidArgument("page too small for internal fanout 2");
  }
  return Status::OK();
}

Status BuildRankedBTree(io::Env* env, const std::string& input_name,
                        const std::string& output_name,
                        const storage::RecordLayout& layout,
                        const BTreeOptions& options) {
  MSV_RETURN_IF_ERROR(layout.Validate());
  MSV_RETURN_IF_ERROR(options.Validate(layout.record_size));

  // Sort input by key.
  const std::string sorted_name = output_name + ".bykey";
  extsort::SortOptions sort_options = options.sort;
  sort_options.temp_prefix = output_name + ".sortrun";
  MSV_RETURN_IF_ERROR(extsort::ExternalSort(
      env, input_name, sorted_name,
      [&layout](const char* a, const char* b) {
        return layout.Key(a, 0) < layout.Key(b, 0);
      },
      sort_options));

  MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> input,
                       HeapFile::Open(env, sorted_name));
  if (input->record_size() != layout.record_size) {
    return Status::InvalidArgument("layout record size mismatch");
  }

  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> out,
                       env->OpenFile(output_name, /*create=*/true));
  MSV_RETURN_IF_ERROR(out->Truncate(0));

  const size_t page_size = options.page_size;
  const size_t leaf_cap = format::LeafCapacity(page_size, layout.record_size);
  std::vector<char> page(page_size, 0);

  // --- Leaf level: stream sorted records into consecutive full pages.
  std::vector<ChildInfo> level;  // children of the level above
  uint64_t next_page = 1;        // page 0 = superblock
  {
    auto scanner = input->NewScanner();
    uint64_t remaining = input->record_count();
    while (remaining > 0) {
      size_t n = static_cast<size_t>(
          std::min<uint64_t>(leaf_cap, remaining));
      std::memset(page.data(), 0, page_size);
      WritePageHeader(page.data(), format::kLeafPage,
                      static_cast<uint32_t>(n));
      double max_key = 0.0;
      for (size_t i = 0; i < n; ++i) {
        MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
        MSV_CHECK(rec != nullptr);
        std::memcpy(page.data() + format::kPageHeaderSize +
                        i * layout.record_size,
                    rec, layout.record_size);
        max_key = layout.Key(rec, 0);
      }
      remaining -= n;
      MSV_RETURN_IF_ERROR(
          out->Write(next_page * page_size, page.data(), page_size));
      level.push_back(ChildInfo{next_page, n, max_key});
      ++next_page;
    }
  }

  BTreeMeta meta;
  meta.page_size = page_size;
  meta.record_size = layout.record_size;
  meta.records_per_leaf = static_cast<uint32_t>(leaf_cap);
  meta.num_records = input->record_count();
  meta.num_leaves = level.size();
  meta.height = 1;

  // Degenerate: empty relation -> single empty leaf as root.
  if (level.empty()) {
    std::memset(page.data(), 0, page_size);
    WritePageHeader(page.data(), format::kLeafPage, 0);
    MSV_RETURN_IF_ERROR(
        out->Write(next_page * page_size, page.data(), page_size));
    level.push_back(ChildInfo{next_page, 0, 0.0});
    meta.num_leaves = 1;
    ++next_page;
  }

  // --- Internal levels, bottom-up until a single root remains.
  const size_t internal_cap = format::InternalCapacity(page_size);
  while (level.size() > 1) {
    std::vector<ChildInfo> parent_level;
    for (size_t i = 0; i < level.size(); i += internal_cap) {
      size_t n = std::min(internal_cap, level.size() - i);
      std::memset(page.data(), 0, page_size);
      WritePageHeader(page.data(), format::kInternalPage,
                      static_cast<uint32_t>(n));
      uint64_t count = 0;
      double max_key = 0.0;
      for (size_t j = 0; j < n; ++j) {
        const ChildInfo& child = level[i + j];
        char* entry = page.data() + format::kPageHeaderSize +
                      j * format::kInternalEntrySize;
        EncodeFixed64(entry, child.page);
        EncodeFixed64(entry + 8, child.count);
        EncodeDouble(entry + 16, child.max_key);
        count += child.count;
        max_key = child.max_key;
      }
      MSV_RETURN_IF_ERROR(
          out->Write(next_page * page_size, page.data(), page_size));
      parent_level.push_back(ChildInfo{next_page, count, max_key});
      ++next_page;
    }
    level = std::move(parent_level);
    ++meta.height;
  }
  meta.root_page = level[0].page;

  // --- Superblock last (so a crash mid-build leaves no valid file).
  std::memset(page.data(), 0, page_size);
  EncodeSuperblock(page.data(), meta);
  MSV_RETURN_IF_ERROR(out->Write(0, page.data(), page_size));
  MSV_RETURN_IF_ERROR(out->Sync());

  env->DeleteFile(sorted_name).IgnoreError();  // best-effort scratch cleanup
  return Status::OK();
}

Result<std::unique_ptr<RankedBTree>> RankedBTree::Open(
    io::Env* env, const std::string& name,
    const storage::RecordLayout& layout, io::BufferPool* pool,
    uint64_t file_id) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> file,
                       env->OpenFile(name, /*create=*/false));
  char header[format::kSuperblockSize];
  MSV_RETURN_IF_ERROR(file->ReadExact(0, sizeof(header), header));
  MSV_ASSIGN_OR_RETURN(BTreeMeta meta, DecodeSuperblock(header));
  if (meta.record_size != layout.record_size) {
    return Status::InvalidArgument("layout record size mismatch");
  }
  if (pool->page_size() != meta.page_size) {
    return Status::InvalidArgument("buffer pool page size mismatch");
  }
  return std::unique_ptr<RankedBTree>(new RankedBTree(
      std::move(file), layout, pool, file_id, meta));
}

Result<io::PageRef> RankedBTree::GetPage(uint64_t page_no) const {
  return pool_->Get(file_.get(), file_id_, page_no);
}

Result<uint64_t> RankedBTree::CountLess(double key) const {
  uint64_t rank = 0;
  uint64_t page_no = meta_.root_page;
  for (;;) {
    MSV_ASSIGN_OR_RETURN(io::PageRef page, GetPage(page_no));
    const char* data = page.data();
    uint8_t type = static_cast<uint8_t>(data[0]);
    uint32_t count = DecodeFixed32(data + 4);
    if (type == format::kLeafPage) {
      for (uint32_t i = 0; i < count; ++i) {
        const char* rec =
            data + format::kPageHeaderSize + i * meta_.record_size;
        if (layout_.Key(rec, 0) < key) {
          ++rank;
        } else {
          break;
        }
      }
      return rank;
    }
    if (type != format::kInternalPage) {
      return Status::Corruption("unknown page type");
    }
    // Descend into the first child whose max key >= `key`; all earlier
    // children contain only smaller keys.
    uint64_t next = 0;
    bool descended = false;
    for (uint32_t i = 0; i < count; ++i) {
      const char* entry = data + format::kPageHeaderSize +
                          i * format::kInternalEntrySize;
      double max_key = DecodeDouble(entry + 16);
      uint64_t child_count = DecodeFixed64(entry + 8);
      if (max_key >= key) {
        next = DecodeFixed64(entry);
        descended = true;
        break;
      }
      rank += child_count;
    }
    if (!descended) return rank;  // key beyond every record
    page_no = next;
  }
}

Result<uint64_t> RankedBTree::CountLessOrEqual(double key) const {
  // For IEEE doubles, {x : x <= key} == {x : x < nextafter(key, +inf)}.
  return CountLess(std::nextafter(key, std::numeric_limits<double>::infinity()));
}

Status RankedBTree::ReadByRank(uint64_t rank, char* out) const {
  if (rank >= meta_.num_records) {
    return Status::OutOfRange("rank " + std::to_string(rank) +
                              " >= record count");
  }
  uint64_t page_no = meta_.root_page;
  uint64_t remaining = rank;
  for (;;) {
    MSV_ASSIGN_OR_RETURN(io::PageRef page, GetPage(page_no));
    const char* data = page.data();
    uint8_t type = static_cast<uint8_t>(data[0]);
    uint32_t count = DecodeFixed32(data + 4);
    if (type == format::kLeafPage) {
      if (remaining >= count) {
        return Status::Corruption("rank descent overran leaf");
      }
      std::memcpy(out,
                  data + format::kPageHeaderSize +
                      remaining * meta_.record_size,
                  meta_.record_size);
      return Status::OK();
    }
    if (type != format::kInternalPage) {
      return Status::Corruption("unknown page type");
    }
    bool descended = false;
    for (uint32_t i = 0; i < count; ++i) {
      const char* entry = data + format::kPageHeaderSize +
                          i * format::kInternalEntrySize;
      uint64_t child_count = DecodeFixed64(entry + 8);
      if (remaining < child_count) {
        page_no = DecodeFixed64(entry);
        descended = true;
        break;
      }
      remaining -= child_count;
    }
    if (!descended) {
      return Status::Corruption("rank descent fell off internal node");
    }
  }
}

Result<uint32_t> RankedBTree::ReadLeafRecords(uint64_t leaf,
                                              std::string* out) const {
  if (leaf >= meta_.num_leaves) {
    return Status::OutOfRange("leaf ordinal out of range");
  }
  // Leaves are pages 1..num_leaves in key order (bulk-built layout).
  MSV_ASSIGN_OR_RETURN(io::PageRef page, GetPage(1 + leaf));
  const char* data = page.data();
  if (static_cast<uint8_t>(data[0]) != format::kLeafPage) {
    return Status::Corruption("expected a leaf page");
  }
  uint32_t count = DecodeFixed32(data + 4);
  out->append(data + format::kPageHeaderSize,
              static_cast<size_t>(count) * meta_.record_size);
  return count;
}

Result<double> RankedBTree::KeyAtRank(uint64_t rank) const {
  std::vector<char> rec(meta_.record_size);
  MSV_RETURN_IF_ERROR(ReadByRank(rank, rec.data()));
  return layout_.Key(rec.data(), 0);
}

}  // namespace msv::btree
