#include "core/ace_format.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace msv::core {

void EncodeSuperblock(char* dst, const AceMeta& meta) {
  std::memset(dst, 0, kSuperblockSize);
  EncodeFixed64(dst + 0, kAceMagic);
  EncodeFixed32(dst + 8, kAceVersion);
  EncodeFixed32(dst + 12, static_cast<uint32_t>(meta.page_size));
  EncodeFixed32(dst + 16, static_cast<uint32_t>(meta.record_size));
  EncodeFixed32(dst + 20, meta.key_dims);
  EncodeFixed32(dst + 24, meta.height);
  EncodeFixed64(dst + 32, meta.num_leaves);
  EncodeFixed64(dst + 40, meta.num_records);
  EncodeFixed64(dst + 48, meta.internal_offset);
  EncodeFixed64(dst + 56, meta.directory_offset);
  EncodeFixed64(dst + 64, meta.data_offset);
  size_t off = 72;
  for (size_t d = 0; d < storage::kMaxKeyDims; ++d) {
    EncodeDouble(dst + off, meta.domain_min[d]);
    off += 8;
  }
  for (size_t d = 0; d < storage::kMaxKeyDims; ++d) {
    EncodeDouble(dst + off, meta.domain_max[d]);
    off += 8;
  }
  EncodeFixed32(dst + off, meta.internal_crc);
  EncodeFixed32(dst + off + 4, meta.directory_crc);
  // Masked CRC over everything before it, in the final 4 bytes.
  EncodeFixed32(dst + kSuperblockSize - 4,
                MaskCrc(Crc32c(dst, kSuperblockSize - 4)));
}

Result<AceMeta> DecodeSuperblock(const char* src) {
  if (DecodeFixed64(src) != kAceMagic) {
    return Status::Corruption("bad ACE tree magic");
  }
  uint32_t stored = UnmaskCrc(DecodeFixed32(src + kSuperblockSize - 4));
  if (stored != Crc32c(src, kSuperblockSize - 4)) {
    return Status::Corruption("ACE superblock checksum mismatch");
  }
  if (DecodeFixed32(src + 8) != kAceVersion) {
    return Status::Corruption("unsupported ACE tree version");
  }
  AceMeta meta;
  meta.page_size = DecodeFixed32(src + 12);
  meta.record_size = DecodeFixed32(src + 16);
  meta.key_dims = DecodeFixed32(src + 20);
  meta.height = DecodeFixed32(src + 24);
  meta.num_leaves = DecodeFixed64(src + 32);
  meta.num_records = DecodeFixed64(src + 40);
  meta.internal_offset = DecodeFixed64(src + 48);
  meta.directory_offset = DecodeFixed64(src + 56);
  meta.data_offset = DecodeFixed64(src + 64);
  size_t off = 72;
  for (size_t d = 0; d < storage::kMaxKeyDims; ++d) {
    meta.domain_min[d] = DecodeDouble(src + off);
    off += 8;
  }
  for (size_t d = 0; d < storage::kMaxKeyDims; ++d) {
    meta.domain_max[d] = DecodeDouble(src + off);
    off += 8;
  }
  meta.internal_crc = DecodeFixed32(src + off);
  meta.directory_crc = DecodeFixed32(src + off + 4);
  if (meta.record_size == 0 || meta.height == 0 ||
      meta.height > kMaxHeight || meta.key_dims == 0 ||
      meta.key_dims > storage::kMaxKeyDims) {
    return Status::Corruption("implausible ACE superblock geometry");
  }
  if (meta.num_leaves != (1ull << (meta.height - 1))) {
    return Status::Corruption("leaf count inconsistent with height");
  }
  return meta;
}

void EncodeInternalNode(char* dst, const InternalNode& node) {
  EncodeDouble(dst + 0, node.split_key);
  EncodeFixed32(dst + 8, node.split_dim);
  EncodeFixed32(dst + 12, 0);
  EncodeFixed64(dst + 16, node.cnt_left);
  EncodeFixed64(dst + 24, node.cnt_right);
}

InternalNode DecodeInternalNode(const char* src) {
  InternalNode node;
  node.split_key = DecodeDouble(src + 0);
  node.split_dim = DecodeFixed32(src + 8);
  node.cnt_left = DecodeFixed64(src + 16);
  node.cnt_right = DecodeFixed64(src + 24);
  return node;
}

void EncodeDirectoryEntry(char* dst, const LeafLocation& loc,
                          const SectionEntry* sections, uint32_t height) {
  EncodeFixed64(dst, loc.offset);
  EncodeFixed64(dst + 8, loc.length);
  for (uint32_t s = 0; s < height; ++s) {
    EncodeFixed32(dst + 16 + 8 * s, sections[s].count);
    EncodeFixed32(dst + 20 + 8 * s, sections[s].masked_crc);
  }
}

LeafLocation DecodeDirectoryEntry(const char* src, uint32_t height,
                                  SectionEntry* sections) {
  for (uint32_t s = 0; s < height; ++s) {
    sections[s].count = DecodeFixed32(src + 16 + 8 * s);
    sections[s].masked_crc = DecodeFixed32(src + 20 + 8 * s);
  }
  return LeafLocation{DecodeFixed64(src), DecodeFixed64(src + 8)};
}

}  // namespace msv::core
