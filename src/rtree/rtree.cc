#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "storage/heap_file.h"
#include "util/coding.h"
#include "util/logging.h"

namespace msv::rtree {

namespace {

using storage::HeapFile;
using storage::HeapFileWriter;

struct Mbr {
  double lo[storage::kMaxKeyDims];
  double hi[storage::kMaxKeyDims];

  static Mbr Empty(uint32_t dims) {
    Mbr m;
    for (uint32_t d = 0; d < dims; ++d) {
      m.lo[d] = std::numeric_limits<double>::infinity();
      m.hi[d] = -std::numeric_limits<double>::infinity();
    }
    return m;
  }
  void ExpandPoint(const double* keys, uint32_t dims) {
    for (uint32_t d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], keys[d]);
      hi[d] = std::max(hi[d], keys[d]);
    }
  }
  void ExpandMbr(const Mbr& o, uint32_t dims) {
    for (uint32_t d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], o.lo[d]);
      hi[d] = std::max(hi[d], o.hi[d]);
    }
  }
  bool OverlapsQuery(const sampling::RangeQuery& q) const {
    for (size_t d = 0; d < q.dims; ++d) {
      if (!(q.bounds[d].lo <= hi[d] && lo[d] <= q.bounds[d].hi)) return false;
    }
    return true;
  }
};

struct ChildInfo {
  uint64_t page = 0;
  uint64_t count = 0;
  Mbr mbr;
};

void WritePageHeader(char* page, uint8_t type, uint32_t count) {
  page[0] = static_cast<char>(type);
  page[1] = page[2] = page[3] = 0;
  EncodeFixed32(page + 4, count);
}

void EncodeSuperblock(char* dst, const RTreeMeta& meta) {
  std::memset(dst, 0, format::kSuperblockSize);
  EncodeFixed64(dst, kRTreeMagic);
  EncodeFixed32(dst + 8, 1);
  EncodeFixed32(dst + 12, static_cast<uint32_t>(meta.page_size));
  EncodeFixed32(dst + 16, static_cast<uint32_t>(meta.record_size));
  EncodeFixed32(dst + 20, meta.dims);
  EncodeFixed64(dst + 24, meta.num_records);
  EncodeFixed64(dst + 32, meta.num_leaves);
  EncodeFixed64(dst + 40, meta.root_page);
  EncodeFixed32(dst + 48, meta.height);
  EncodeFixed32(dst + 52, meta.records_per_leaf);
}

Result<RTreeMeta> DecodeSuperblock(const char* src) {
  if (DecodeFixed64(src) != kRTreeMagic) {
    return Status::Corruption("bad R-tree magic");
  }
  if (DecodeFixed32(src + 8) != 1) {
    return Status::Corruption("unsupported R-tree version");
  }
  RTreeMeta meta;
  meta.page_size = DecodeFixed32(src + 12);
  meta.record_size = DecodeFixed32(src + 16);
  meta.dims = DecodeFixed32(src + 20);
  meta.num_records = DecodeFixed64(src + 24);
  meta.num_leaves = DecodeFixed64(src + 32);
  meta.root_page = DecodeFixed64(src + 40);
  meta.height = DecodeFixed32(src + 48);
  meta.records_per_leaf = DecodeFixed32(src + 52);
  if (meta.page_size == 0 || meta.record_size == 0 || meta.dims == 0) {
    return Status::Corruption("implausible R-tree superblock");
  }
  return meta;
}

}  // namespace

Status RTreeOptions::Validate(const storage::RecordLayout& layout) const {
  MSV_RETURN_IF_ERROR(layout.Validate());
  if (format::LeafCapacity(page_size, layout.record_size) == 0 ||
      format::InternalCapacity(page_size,
                               static_cast<uint32_t>(layout.key_dims())) < 2) {
    return Status::InvalidArgument("page too small");
  }
  return Status::OK();
}

Status BuildRTree(io::Env* env, const std::string& input_name,
                  const std::string& output_name,
                  const storage::RecordLayout& layout,
                  const RTreeOptions& options) {
  MSV_RETURN_IF_ERROR(options.Validate(layout));
  const auto dims = static_cast<uint32_t>(layout.key_dims());
  const size_t record_size = layout.record_size;
  const size_t leaf_cap = format::LeafCapacity(options.page_size, record_size);

  // ----- STR step 1: sort by dimension 0.
  const std::string byx_name = output_name + ".byx";
  {
    extsort::SortOptions sort_options = options.sort;
    sort_options.temp_prefix = output_name + ".r1run";
    MSV_RETURN_IF_ERROR(extsort::ExternalSort(
        env, input_name, byx_name,
        [&layout](const char* a, const char* b) {
          return layout.Key(a, 0) < layout.Key(b, 0);
        },
        sort_options));
  }

  MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> byx,
                       HeapFile::Open(env, byx_name));
  const uint64_t num_records = byx->record_count();
  const uint64_t num_leaf_pages =
      std::max<uint64_t>(1, (num_records + leaf_cap - 1) / leaf_cap);
  const uint64_t num_slices = static_cast<uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaf_pages))));
  const uint64_t slice_records = std::max<uint64_t>(
      1, leaf_cap * ((num_leaf_pages + num_slices - 1) / num_slices));

  // ----- STR step 2: tag records with their slice id.
  const std::string tagged_name = output_name + ".tagged";
  {
    MSV_ASSIGN_OR_RETURN(
        std::unique_ptr<HeapFileWriter> writer,
        HeapFileWriter::Create(env, tagged_name, record_size + 4));
    std::vector<char> buf(record_size + 4);
    auto scanner = byx->NewScanner();
    for (uint64_t i = 0;; ++i) {
      MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
      if (rec == nullptr) break;
      EncodeFixed32(buf.data(), static_cast<uint32_t>(i / slice_records));
      std::memcpy(buf.data() + 4, rec, record_size);
      MSV_RETURN_IF_ERROR(writer->Append(buf.data()));
    }
    MSV_RETURN_IF_ERROR(writer->Finish());
  }
  byx.reset();
  env->DeleteFile(byx_name).IgnoreError();  // best-effort scratch cleanup

  // ----- STR step 3: sort by (slice, dimension 1 [, dim 2 ...]), in place
  // over the scratch tagged file.
  {
    extsort::SortOptions sort_options = options.sort;
    sort_options.temp_prefix = output_name + ".r2run";
    MSV_RETURN_IF_ERROR(extsort::ExternalSort(
        env, tagged_name, tagged_name,
        [&layout, dims](const char* a, const char* b) {
          uint32_t sa = DecodeFixed32(a), sb = DecodeFixed32(b);
          if (sa != sb) return sa < sb;
          for (uint32_t d = 1; d < dims; ++d) {
            double ka = layout.Key(a + 4, d), kb = layout.Key(b + 4, d);
            if (ka != kb) return ka < kb;
          }
          return false;
        },
        sort_options));
  }

  // ----- Pack leaves, then internal levels bottom-up.
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> out,
                       env->OpenFile(output_name, /*create=*/true));
  MSV_RETURN_IF_ERROR(out->Truncate(0));

  const size_t page_size = options.page_size;
  std::vector<char> page(page_size, 0);
  std::vector<ChildInfo> level;
  uint64_t next_page = 1;
  {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> placed,
                         HeapFile::Open(env, tagged_name));
    auto scanner = placed->NewScanner();
    uint64_t remaining = placed->record_count();
    double keys[storage::kMaxKeyDims] = {0};
    while (remaining > 0) {
      size_t n =
          static_cast<size_t>(std::min<uint64_t>(leaf_cap, remaining));
      std::memset(page.data(), 0, page_size);
      WritePageHeader(page.data(), format::kLeafPage,
                      static_cast<uint32_t>(n));
      Mbr mbr = Mbr::Empty(dims);
      for (size_t i = 0; i < n; ++i) {
        MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
        MSV_CHECK(rec != nullptr);
        std::memcpy(page.data() + format::kPageHeaderSize + i * record_size,
                    rec + 4, record_size);
        for (uint32_t d = 0; d < dims; ++d) {
          keys[d] = layout.Key(rec + 4, d);
        }
        mbr.ExpandPoint(keys, dims);
      }
      remaining -= n;
      MSV_RETURN_IF_ERROR(
          out->Write(next_page * page_size, page.data(), page_size));
      level.push_back(ChildInfo{next_page, n, mbr});
      ++next_page;
    }
  }
  env->DeleteFile(tagged_name).IgnoreError();  // best-effort scratch cleanup

  RTreeMeta meta;
  meta.page_size = page_size;
  meta.record_size = record_size;
  meta.dims = dims;
  meta.num_records = num_records;
  meta.num_leaves = level.size();
  meta.records_per_leaf = static_cast<uint32_t>(leaf_cap);
  meta.height = 1;

  if (level.empty()) {
    std::memset(page.data(), 0, page_size);
    WritePageHeader(page.data(), format::kLeafPage, 0);
    MSV_RETURN_IF_ERROR(
        out->Write(next_page * page_size, page.data(), page_size));
    level.push_back(ChildInfo{next_page, 0, Mbr::Empty(dims)});
    meta.num_leaves = 1;
    ++next_page;
  }

  const size_t internal_cap = format::InternalCapacity(page_size, dims);
  const size_t entry_size = format::InternalEntrySize(dims);
  while (level.size() > 1) {
    std::vector<ChildInfo> parents;
    for (size_t i = 0; i < level.size(); i += internal_cap) {
      size_t n = std::min(internal_cap, level.size() - i);
      std::memset(page.data(), 0, page_size);
      WritePageHeader(page.data(), format::kInternalPage,
                      static_cast<uint32_t>(n));
      ChildInfo parent;
      parent.page = next_page;
      parent.mbr = Mbr::Empty(dims);
      for (size_t j = 0; j < n; ++j) {
        const ChildInfo& child = level[i + j];
        char* entry =
            page.data() + format::kPageHeaderSize + j * entry_size;
        EncodeFixed64(entry, child.page);
        EncodeFixed64(entry + 8, child.count);
        for (uint32_t d = 0; d < dims; ++d) {
          EncodeDouble(entry + 16 + 16 * d, child.mbr.lo[d]);
          EncodeDouble(entry + 24 + 16 * d, child.mbr.hi[d]);
        }
        parent.count += child.count;
        parent.mbr.ExpandMbr(child.mbr, dims);
      }
      MSV_RETURN_IF_ERROR(
          out->Write(next_page * page_size, page.data(), page_size));
      parents.push_back(parent);
      ++next_page;
    }
    level = std::move(parents);
    ++meta.height;
  }
  meta.root_page = level[0].page;

  std::memset(page.data(), 0, page_size);
  EncodeSuperblock(page.data(), meta);
  MSV_RETURN_IF_ERROR(out->Write(0, page.data(), page_size));
  return out->Sync();
}

Result<std::unique_ptr<RTree>> RTree::Open(io::Env* env,
                                           const std::string& name,
                                           const storage::RecordLayout& layout,
                                           io::BufferPool* pool,
                                           uint64_t file_id) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> file,
                       env->OpenFile(name, /*create=*/false));
  char header[format::kSuperblockSize];
  MSV_RETURN_IF_ERROR(file->ReadExact(0, sizeof(header), header));
  MSV_ASSIGN_OR_RETURN(RTreeMeta meta, DecodeSuperblock(header));
  if (meta.record_size != layout.record_size) {
    return Status::InvalidArgument("layout record size mismatch");
  }
  if (pool->page_size() != meta.page_size) {
    return Status::InvalidArgument("buffer pool page size mismatch");
  }
  return std::unique_ptr<RTree>(
      new RTree(std::move(file), layout, pool, file_id, meta));
}

Result<io::PageRef> RTree::GetPage(uint64_t page_no) const {
  return pool_->Get(file_.get(), file_id_, page_no);
}

Result<std::vector<CandidateRun>> RTree::CollectCandidates(
    const sampling::RangeQuery& query) const {
  if (query.dims > meta_.dims) {
    return Status::InvalidArgument("query dims exceed tree dims");
  }
  std::vector<CandidateRun> runs;
  std::vector<uint64_t> stack{meta_.root_page};
  const size_t entry_size = format::InternalEntrySize(meta_.dims);
  while (!stack.empty()) {
    uint64_t page_no = stack.back();
    stack.pop_back();
    MSV_ASSIGN_OR_RETURN(io::PageRef page, GetPage(page_no));
    const char* data = page.data();
    uint8_t type = static_cast<uint8_t>(data[0]);
    uint32_t count = DecodeFixed32(data + 4);
    if (type == format::kLeafPage) {
      runs.push_back(CandidateRun{page_no, count});
      continue;
    }
    if (type != format::kInternalPage) {
      return Status::Corruption("unknown R-tree page type");
    }
    for (uint32_t i = 0; i < count; ++i) {
      const char* entry = data + format::kPageHeaderSize + i * entry_size;
      Mbr mbr;
      for (uint32_t d = 0; d < meta_.dims; ++d) {
        mbr.lo[d] = DecodeDouble(entry + 16 + 16 * d);
        mbr.hi[d] = DecodeDouble(entry + 24 + 16 * d);
      }
      if (mbr.OverlapsQuery(query)) {
        stack.push_back(DecodeFixed64(entry));
      }
    }
  }
  // The root was pushed unconditionally; if it is a leaf whose MBR misses
  // the query, filtering during sampling handles it.
  std::sort(runs.begin(), runs.end(),
            [](const CandidateRun& a, const CandidateRun& b) {
              return a.page < b.page;
            });
  return runs;
}

Status RTree::ReadRecordAt(uint64_t page_no, uint32_t index,
                           char* out) const {
  MSV_ASSIGN_OR_RETURN(io::PageRef page, GetPage(page_no));
  const char* data = page.data();
  if (static_cast<uint8_t>(data[0]) != format::kLeafPage) {
    return Status::InvalidArgument("not a leaf page");
  }
  uint32_t count = DecodeFixed32(data + 4);
  if (index >= count) {
    return Status::OutOfRange("record index beyond leaf count");
  }
  std::memcpy(out,
              data + format::kPageHeaderSize + index * meta_.record_size,
              meta_.record_size);
  return Status::OK();
}

}  // namespace msv::rtree
