#include "core/ace_builder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/ace_format.h"
#include "core/split_tree.h"
#include "obs/trace.h"
#include "storage/heap_file.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/reservoir.h"

namespace msv::core {

namespace {

using storage::HeapFile;
using storage::HeapFileWriter;
using storage::TwoBlockChunk;

// Block size of the build's sequential scans; each refill reads two.
constexpr size_t kScanBlockBytes = size_t{4} << 20;

// Reservoir size for k-d split-point estimation: exact whenever the
// sample covers the input.
constexpr size_t kSplitSampleSize = size_t{1} << 20;

uint64_t AlignUp(uint64_t v, uint64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

// Maps a Phase-1 rank boundary index m (1..F-1) to the heap id of the
// internal node whose split key lives at that boundary: boundary m of the
// sorted file is the (2j-1)-th boundary at granularity 2^(h-1-i), i.e.
// m = (2j-1) * 2^(h-1-i) for node j (1-based) of level i.
uint64_t BoundaryToHeapId(uint64_t m, uint32_t height) {
  unsigned t = static_cast<unsigned>(std::countr_zero(m));
  uint64_t odd = m >> t;
  uint32_t level = height - 1 - static_cast<uint32_t>(t);
  uint64_t j = (odd + 1) / 2;           // 1-based index within the level
  return (1ull << (level - 1)) + j - 1;  // heap id
}

// Phase 1, 1-d: external sort by key, then read split keys off the exact
// rank boundaries in one sequential pass. Returns the sorted file's name.
Result<std::string> Phase1OneDim(io::Env* env, const std::string& input_name,
                                 const std::string& output_name,
                                 const storage::RecordLayout& layout,
                                 const AceBuildOptions& options,
                                 uint32_t height, uint64_t num_records,
                                 std::vector<InternalNode>* nodes, Box* root,
                                 extsort::SortMetrics* sort_metrics) {
  const std::string sorted_name = output_name + ".phase1";
  extsort::SortOptions sort_options = options.sort;
  sort_options.temp_prefix = output_name + ".p1run";
  MSV_RETURN_IF_ERROR(extsort::ExternalSort(
      env, input_name, sorted_name,
      [&layout](const char* a, const char* b) {
        return layout.Key(a, 0) < layout.Key(b, 0);
      },
      sort_options, sort_metrics));

  const uint64_t num_leaves = 1ull << (height - 1);
  // Rank of boundary m is floor(m * N / F); boundaries are non-decreasing.
  std::vector<uint64_t> boundary_ranks(num_leaves);  // index m (1-based)
  for (uint64_t m = 1; m < num_leaves; ++m) {
    boundary_ranks[m] = m * num_records / num_leaves;
  }

  MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> sorted,
                       HeapFile::Open(env, sorted_name));
  auto scanner = sorted->NewScanner(
      TwoBlockChunk(kScanBlockBytes, sorted->record_size()));
  uint64_t next_m = 1;
  double first_key = 0.0, last_key = 0.0;
  for (uint64_t r = 0; r < num_records; ++r) {
    MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
    MSV_CHECK(rec != nullptr);
    double key = layout.Key(rec, 0);
    if (r == 0) first_key = key;
    last_key = key;
    while (next_m < num_leaves && boundary_ranks[next_m] == r) {
      uint64_t heap_id = BoundaryToHeapId(next_m, height);
      (*nodes)[heap_id - 1].split_key = key;
      (*nodes)[heap_id - 1].split_dim = 0;
      ++next_m;
    }
  }
  MSV_CHECK_MSG(next_m == num_leaves, "missed split boundaries");

  root->dims = 1;
  root->lo[0] = first_key;
  root->hi[0] =
      std::nextafter(last_key, std::numeric_limits<double>::infinity());
  return sorted_name;
}

// Phase 1, k-d: reservoir-sample key vectors (one sequential pass, also
// collecting the exact domain), then assign split keys by recursive
// in-memory medians of alternating dimensions.
Status Phase1MultiDim(io::Env* env, const std::string& input_name,
                      const storage::RecordLayout& layout,
                      const AceBuildOptions& options, uint32_t height,
                      std::vector<InternalNode>* nodes, Box* root) {
  const uint32_t dims = options.key_dims;
  using KeyVec = std::array<double, storage::kMaxKeyDims>;

  MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> input,
                       HeapFile::Open(env, input_name));
  ReservoirSampler<KeyVec> reservoir(kSplitSampleSize);
  Pcg64 rng(options.seed ^ 0x5eed5a3bULL);

  root->dims = dims;
  for (uint32_t d = 0; d < dims; ++d) {
    root->lo[d] = std::numeric_limits<double>::infinity();
    root->hi[d] = -std::numeric_limits<double>::infinity();
  }

  auto scanner = input->NewScanner(
      TwoBlockChunk(kScanBlockBytes, input->record_size()));
  for (;;) {
    MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
    if (rec == nullptr) break;
    KeyVec keys{};
    for (uint32_t d = 0; d < dims; ++d) {
      keys[d] = layout.Key(rec, d);
      root->lo[d] = std::min(root->lo[d], keys[d]);
      root->hi[d] = std::max(root->hi[d], keys[d]);
    }
    reservoir.Offer(keys, &rng);
  }
  std::vector<KeyVec> sample = std::move(reservoir).TakeSample();
  for (uint32_t d = 0; d < dims; ++d) {
    root->hi[d] =
        std::nextafter(root->hi[d], std::numeric_limits<double>::infinity());
  }

  // Recursive median assignment over the sample. Iterative worklist to
  // avoid deep recursion.
  const uint64_t num_leaves = 1ull << (height - 1);
  struct Task {
    uint64_t heap_id;
    size_t begin, end;
  };
  std::vector<Task> work;
  if (num_leaves > 1) work.push_back({1, 0, sample.size()});
  while (!work.empty()) {
    Task t = work.back();
    work.pop_back();
    uint32_t level = SplitTree::LevelOf(t.heap_id);
    uint32_t dim = (level - 1) % dims;
    size_t mid = t.begin + (t.end - t.begin) / 2;
    double split;
    if (t.begin == t.end) {
      // Degenerate partition (tiny sample): inherit the domain midpoint.
      split = 0.0;
    } else {
      std::nth_element(sample.begin() + t.begin, sample.begin() + mid,
                       sample.begin() + t.end,
                       [dim](const KeyVec& a, const KeyVec& b) {
                         return a[dim] < b[dim];
                       });
      split = sample[mid][dim];
    }
    (*nodes)[t.heap_id - 1].split_key = split;
    (*nodes)[t.heap_id - 1].split_dim = dim;
    // Partition by value to mirror the assignment rule (key < split).
    auto border = std::partition(sample.begin() + t.begin,
                                 sample.begin() + t.end,
                                 [dim, split](const KeyVec& k) {
                                   return k[dim] < split;
                                 });
    size_t border_idx = static_cast<size_t>(border - sample.begin());
    uint64_t left = 2 * t.heap_id;
    uint64_t right = left + 1;
    if (left < num_leaves) work.push_back({left, t.begin, border_idx});
    if (right < num_leaves) work.push_back({right, border_idx, t.end});
  }
  return Status::OK();
}

}  // namespace

uint32_t ChooseHeight(uint64_t num_records, size_t record_size,
                      size_t page_size) {
  // Smallest F = 2^(h-1) with expected leaf bytes N*record_size/F within
  // one page.
  uint64_t total = num_records * record_size;
  uint64_t leaves = 1;
  while (leaves * page_size < total) leaves <<= 1;
  return static_cast<uint32_t>(std::bit_width(leaves));  // log2(F) + 1
}

Status AceBuildOptions::Validate(const storage::RecordLayout& layout) const {
  MSV_RETURN_IF_ERROR(layout.Validate());
  if (key_dims == 0 || key_dims > layout.key_dims()) {
    return Status::InvalidArgument("key_dims incompatible with layout");
  }
  if (page_size < 512) {
    return Status::InvalidArgument("page_size too small");
  }
  if (height > kMaxHeight) {
    return Status::InvalidArgument("height too large");
  }
  return Status::OK();
}

Status BuildAceTree(io::Env* env, const std::string& input_name,
                    const std::string& output_name,
                    const storage::RecordLayout& layout,
                    const AceBuildOptions& options, AceBuildMetrics* metrics) {
  MSV_RETURN_IF_ERROR(options.Validate(layout));

  MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> input,
                       HeapFile::Open(env, input_name));
  if (input->record_size() != layout.record_size) {
    return Status::InvalidArgument("layout record size mismatch");
  }
  const uint64_t num_records = input->record_count();
  if (num_records == 0) {
    return Status::InvalidArgument("cannot build an ACE tree over 0 records");
  }
  const size_t record_size = layout.record_size;
  input.reset();

  const uint32_t height =
      options.height > 0
          ? options.height
          : ChooseHeight(num_records, record_size, options.page_size);
  const uint64_t num_leaves = 1ull << (height - 1);

  AceBuildMetrics local;
  local.records = num_records;
  local.height = height;
  local.leaves = num_leaves;

  obs::Span build_span = obs::StartTraceSpan("ace.build");
  build_span.AddAttr("records", num_records);
  build_span.AddAttr("height", static_cast<uint64_t>(height));
  build_span.AddAttr("leaves", num_leaves);

  // -------------------------------------------------------------------
  // Phase 1: split points.
  // -------------------------------------------------------------------
  std::vector<InternalNode> nodes(num_leaves - 1);
  Box root_box;
  std::string phase2_input = input_name;
  std::string phase1_file;  // to delete later
  {
    obs::Span span = obs::StartTraceSpan("ace.build.phase1");
    if (options.key_dims == 1) {
      MSV_ASSIGN_OR_RETURN(
          phase1_file,
          Phase1OneDim(env, input_name, output_name, layout, options, height,
                       num_records, &nodes, &root_box, &local.phase1_sort));
      phase2_input = phase1_file;  // same multiset; saves re-reading input
    } else {
      MSV_RETURN_IF_ERROR(Phase1MultiDim(env, input_name, layout, options,
                                         height, &nodes, &root_box));
    }
  }

  SplitTree splits(height, options.key_dims, std::move(nodes), root_box);

  // -------------------------------------------------------------------
  // Phase 2a: assign (leaf, section) to every record; count cells.
  // -------------------------------------------------------------------
  const std::string tagged_name = output_name + ".phase2";
  const size_t tagged_size = record_size + 8;
  std::vector<uint64_t> cell_counts(num_leaves, 0);
  {
    obs::Span span = obs::StartTraceSpan("ace.build.phase2a");
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> in,
                         HeapFile::Open(env, phase2_input));
    MSV_ASSIGN_OR_RETURN(
        std::unique_ptr<HeapFileWriter> writer,
        HeapFileWriter::Create(env, tagged_name, tagged_size));
    Pcg64 rng(options.seed);
    std::vector<char> buf(tagged_size);
    double keys[storage::kMaxKeyDims] = {0};
    auto scanner = in->NewScanner(
        TwoBlockChunk(kScanBlockBytes, in->record_size()));
    for (;;) {
      MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
      if (rec == nullptr) break;
      for (uint32_t d = 0; d < options.key_dims; ++d) {
        keys[d] = layout.Key(rec, d);
      }
      uint32_t section =
          1 + static_cast<uint32_t>(rng.Below(height));  // uniform in [1,h]
      uint64_t anchor = splits.DescendToLevel(keys, section);
      auto [leaf_lo, leaf_hi] = splits.LeavesUnder(anchor);
      uint64_t leaf = leaf_lo + rng.Below(leaf_hi - leaf_lo);
      ++cell_counts[splits.CellOf(keys)];
      EncodeFixed32(buf.data(), static_cast<uint32_t>(leaf));
      EncodeFixed32(buf.data() + 4, section);
      std::memcpy(buf.data() + 8, rec, record_size);
      MSV_RETURN_IF_ERROR(writer->Append(buf.data()));
    }
    MSV_RETURN_IF_ERROR(writer->Finish());
  }
  if (!phase1_file.empty()) env->DeleteFile(phase1_file).IgnoreError();  // best-effort scratch cleanup

  // -------------------------------------------------------------------
  // Phase 2b: external sort by (leaf, section), in place: the tagged file
  // is scratch, so sorting it onto itself holds one copy of it, not two.
  // -------------------------------------------------------------------
  {
    obs::Span span = obs::StartTraceSpan("ace.build.phase2b");
    extsort::SortOptions sort_options = options.sort;
    sort_options.temp_prefix = output_name + ".p2run";
    MSV_RETURN_IF_ERROR(extsort::ExternalSort(
        env, tagged_name, tagged_name,
        [](const char* a, const char* b) {
          uint32_t la = DecodeFixed32(a), lb = DecodeFixed32(b);
          if (la != lb) return la < lb;
          return DecodeFixed32(a + 4) < DecodeFixed32(b + 4);
        },
        sort_options, &local.phase2_sort));
  }

  // -------------------------------------------------------------------
  // Phase 2c: stream sorted records into leaf nodes + directory; then
  // write internal nodes and superblock.
  // -------------------------------------------------------------------
  obs::Span phase2c_span = obs::StartTraceSpan("ace.build.phase2c");
  AceMeta meta;
  meta.page_size = options.page_size;
  meta.record_size = record_size;
  meta.key_dims = options.key_dims;
  meta.height = height;
  meta.num_leaves = num_leaves;
  meta.num_records = num_records;
  meta.internal_offset = AlignUp(kSuperblockSize, 512);
  meta.directory_offset = AlignUp(
      meta.internal_offset + (num_leaves - 1) * kInternalNodeSize, 512);
  meta.data_offset = AlignUp(
      meta.directory_offset + num_leaves * DirectoryEntrySize(height),
      options.page_size);
  for (uint32_t d = 0; d < options.key_dims; ++d) {
    meta.domain_min[d] = root_box.lo[d];
    meta.domain_max[d] = root_box.hi[d];
  }

  // Atomic-build protocol: the tree is assembled in `<output>.tmp`, synced,
  // renamed over `output_name`, and the directory is synced. A crash at any
  // point leaves either no tree (or the previous one, when rebuilding over
  // an existing name) or a complete, checksummed one — never a torn file
  // under the final name.
  const std::string tmp_name = output_name + ".tmp";
  const size_t leaf_header = LeafHeaderSize(height);
  auto write_tree = [&]() -> Status {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> out,
                         env->OpenFile(tmp_name, /*create=*/true));
    MSV_RETURN_IF_ERROR(out->Truncate(0));

    std::vector<LeafLocation> directory(num_leaves);
    // Per-section counts and checksums, leaf-major (format v3).
    std::vector<SectionEntry> sections(num_leaves * height);
    uint64_t write_off = meta.data_offset;
    {
      MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> placed,
                           HeapFile::Open(env, tagged_name));
      auto scanner = placed->NewScanner(
          TwoBlockChunk(kScanBlockBytes, placed->record_size()));
      MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());

      // Leaf blobs accumulate here and flush as one large write, so the
      // read (placed scan) / write (leaf region) interleave costs one
      // seek pair per buffer-full instead of one per leaf.
      const size_t write_buffer_bytes = size_t{4} << 20;
      std::string pending;
      uint64_t pending_off = write_off;
      auto flush_pending = [&]() -> Status {
        if (pending.empty()) return Status::OK();
        MSV_RETURN_IF_ERROR(
            out->Write(pending_off, pending.data(), pending.size()));
        pending_off += pending.size();
        pending.clear();
        return Status::OK();
      };

      std::string blob;  // one leaf's serialized bytes
      for (uint64_t leaf = 0; leaf < num_leaves; ++leaf) {
        SectionEntry* entries = sections.data() + leaf * height;
        blob.assign(leaf_header, '\0');
        while (rec != nullptr && DecodeFixed32(rec) == leaf) {
          uint32_t section = DecodeFixed32(rec + 4);
          MSV_CHECK(section >= 1 && section <= height);
          // Records arrive grouped by section in ascending order, so
          // appending keeps sections contiguous.
          blob.append(rec + 8, record_size);
          ++entries[section - 1].count;
          MSV_ASSIGN_OR_RETURN(rec, scanner.Next());
        }
        EncodeFixed32(blob.data(), static_cast<uint32_t>(leaf));
        EncodeFixed32(blob.data() + 4, height);
        size_t section_off = leaf_header;
        for (uint32_t s = 0; s < height; ++s) {
          EncodeFixed32(blob.data() + 8 + 4 * s, entries[s].count);
          const size_t bytes = size_t{entries[s].count} * record_size;
          entries[s].masked_crc =
              MaskCrc(Crc32c(blob.data() + section_off, bytes));
          section_off += bytes;
        }
        // Trailing masked CRC protects the whole leaf blob.
        char crc[4];
        EncodeFixed32(crc, MaskCrc(Crc32c(blob.data(), blob.size())));
        blob.append(crc, sizeof(crc));
        pending.append(blob);
        directory[leaf] = LeafLocation{write_off, blob.size()};
        write_off += blob.size();
        if (pending.size() >= write_buffer_bytes) {
          MSV_RETURN_IF_ERROR(flush_pending());
        }
      }
      MSV_RETURN_IF_ERROR(flush_pending());
      MSV_CHECK_MSG(rec == nullptr, "records left after final leaf");
    }

    // Exact subtree counts from finest-cell counts.
    {
      std::vector<uint64_t> counts(2 * num_leaves, 0);
      for (uint64_t i = 0; i < num_leaves; ++i) {
        counts[num_leaves + i] = cell_counts[i];
      }
      for (uint64_t id = num_leaves - 1; id >= 1; --id) {
        counts[id] = counts[2 * id] + counts[2 * id + 1];
      }
      std::string internal_bytes((num_leaves - 1) * kInternalNodeSize, '\0');
      for (uint64_t id = 1; id < num_leaves; ++id) {
        InternalNode node = splits.node(id);
        node.cnt_left = counts[2 * id];
        node.cnt_right = counts[2 * id + 1];
        EncodeInternalNode(internal_bytes.data() +
                               (id - 1) * kInternalNodeSize,
                           node);
      }
      meta.internal_crc =
          MaskCrc(Crc32c(internal_bytes.data(), internal_bytes.size()));
      if (!internal_bytes.empty()) {
        MSV_RETURN_IF_ERROR(out->Write(meta.internal_offset,
                                       internal_bytes.data(),
                                       internal_bytes.size()));
      }
    }

    // Directory.
    {
      const size_t entry_size = DirectoryEntrySize(height);
      std::string dir_bytes(num_leaves * entry_size, '\0');
      for (uint64_t i = 0; i < num_leaves; ++i) {
        EncodeDirectoryEntry(dir_bytes.data() + i * entry_size, directory[i],
                             sections.data() + i * height, height);
      }
      meta.directory_crc =
          MaskCrc(Crc32c(dir_bytes.data(), dir_bytes.size()));
      MSV_RETURN_IF_ERROR(out->Write(meta.directory_offset, dir_bytes.data(),
                                     dir_bytes.size()));
    }

    // Superblock last, then fsync the file before the rename publishes it.
    {
      char super[kSuperblockSize];
      EncodeSuperblock(super, meta);
      MSV_RETURN_IF_ERROR(out->Write(0, super, sizeof(super)));
      MSV_RETURN_IF_ERROR(out->Sync());
    }
    return Status::OK();
  };
  Status write_status = write_tree();
  env->DeleteFile(tagged_name).IgnoreError();  // best-effort scratch cleanup
  if (!write_status.ok()) {
    env->DeleteFile(tmp_name).IgnoreError();  // best-effort scratch cleanup
    return write_status;
  }
  MSV_RETURN_IF_ERROR(env->RenameFile(tmp_name, output_name));
  MSV_RETURN_IF_ERROR(env->SyncDir());
  phase2c_span.End();

  // Region headers + per-leaf headers.
  local.overhead_bytes = meta.data_offset + num_leaves * leaf_header;
  if (metrics != nullptr) *metrics = local;
  return Status::OK();
}

}  // namespace msv::core
