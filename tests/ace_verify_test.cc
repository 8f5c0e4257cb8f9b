// Tests for AceTree::CheckInvariants: a clean tree verifies, and each
// class of on-disk corruption — mangled section header, semantically
// wrong record with a recomputed checksum, broken internal-node counts,
// duplicated records — is detected and attributed to the offending page.

#include <string>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "storage/record.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace msv::core {
namespace {

using msv::testing::MakeSale;
using msv::testing::ValueOrDie;
using storage::SaleRecord;

class AceVerifyTest : public ::testing::Test {
 protected:
  void Build(uint64_t n, uint32_t height, uint64_t seed = 7) {
    env_ = io::NewMemEnv();
    MakeSale(env_.get(), "sale", n, seed);
    layout_ = SaleRecord::Layout1D();
    AceBuildOptions options;
    options.height = height;
    options.seed = seed + 1;
    MSV_ASSERT_OK(BuildAceTree(env_.get(), "sale", "ace", layout_, options));
    Reopen();
  }

  void Reopen() {
    tree_ = ValueOrDie(AceTree::Open(env_.get(), "ace", layout_));
  }

  /// Byte offset of `leaf`'s directory entry in the file.
  uint64_t EntryOffset(uint64_t leaf) const {
    return tree_->meta().directory_offset +
           leaf * DirectoryEntrySize(tree_->meta().height);
  }

  /// Directory entry of `leaf`, read straight from the file bytes.
  LeafLocation Locate(uint64_t leaf) {
    auto file = ValueOrDie(env_->OpenFile("ace", /*create=*/false));
    char entry[16];  // offset u64, length u64
    MSV_EXPECT_OK(file->ReadExact(EntryOffset(leaf), sizeof(entry), entry));
    return LeafLocation{DecodeFixed64(entry), DecodeFixed64(entry + 8)};
  }

  /// Overwrites `n` bytes at absolute file offset `off`.
  void Clobber(uint64_t off, const char* bytes, size_t n) {
    auto file = ValueOrDie(env_->OpenFile("ace", /*create=*/false));
    MSV_ASSERT_OK(file->Write(off, bytes, n));
  }

  /// XORs one bit of the byte at absolute file offset `off` (a guaranteed
  /// change, unlike overwriting with a constant).
  void FlipBit(uint64_t off) {
    auto file = ValueOrDie(env_->OpenFile("ace", /*create=*/false));
    char byte;
    MSV_ASSERT_OK(file->ReadExact(off, 1, &byte));
    byte = static_cast<char>(byte ^ 0x40);
    MSV_ASSERT_OK(file->Write(off, &byte, 1));
  }

  /// Rewrites the trailing masked CRC of leaf `leaf`'s blob and the
  /// directory's section CRCs of it (then the region CRCs), so that
  /// semantic corruption survives every checksum check.
  void FixLeafChecksum(uint64_t leaf) {
    const LeafLocation loc = Locate(leaf);
    const uint32_t h = tree_->meta().height;
    auto file = ValueOrDie(env_->OpenFile("ace", /*create=*/false));
    std::string blob(loc.length, '\0');
    MSV_ASSERT_OK(file->ReadExact(loc.offset, loc.length, blob.data()));
    char crc[4];
    EncodeFixed32(crc, MaskCrc(Crc32c(blob.data(), blob.size() - 4)));
    MSV_ASSERT_OK(file->Write(loc.offset + loc.length - 4, crc, 4));
    size_t off = LeafHeaderSize(h);
    for (uint32_t s = 0; s < h; ++s) {
      const size_t bytes = size_t{DecodeFixed32(blob.data() + 8 + 4 * s)} *
                           tree_->meta().record_size;
      EncodeFixed32(crc, MaskCrc(Crc32c(blob.data() + off, bytes)));
      MSV_ASSERT_OK(file->Write(EntryOffset(leaf) + 20 + 8 * s, crc, 4));
      off += bytes;
    }
    FixRegionChecksums();
  }

  /// Recomputes the superblock's internal/directory region CRCs from the
  /// (possibly clobbered) file bytes, so semantic corruption survives the
  /// region checksums and reaches the invariant checks.
  void FixRegionChecksums() {
    auto file = ValueOrDie(env_->OpenFile("ace", /*create=*/false));
    char super[kSuperblockSize];
    MSV_ASSERT_OK(file->ReadExact(0, sizeof(super), super));
    AceMeta meta = ValueOrDie(DecodeSuperblock(super));
    std::string bytes(meta.num_internal_nodes() * kInternalNodeSize, '\0');
    if (!bytes.empty()) {
      MSV_ASSERT_OK(
          file->ReadExact(meta.internal_offset, bytes.size(), bytes.data()));
    }
    meta.internal_crc = MaskCrc(Crc32c(bytes.data(), bytes.size()));
    bytes.assign(meta.num_leaves * DirectoryEntrySize(meta.height), '\0');
    MSV_ASSERT_OK(
        file->ReadExact(meta.directory_offset, bytes.size(), bytes.data()));
    meta.directory_crc = MaskCrc(Crc32c(bytes.data(), bytes.size()));
    EncodeSuperblock(super, meta);
    MSV_ASSERT_OK(file->Write(0, super, sizeof(super)));
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  std::unique_ptr<AceTree> tree_;
};

TEST_F(AceVerifyTest, CleanTreeVerifies) {
  Build(20000, 4);
  InvariantReport report = tree_->CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.leaves_checked, tree_->meta().num_leaves);
  EXPECT_EQ(report.records_checked, tree_->meta().num_records);
  EXPECT_EQ(report.sections_checked,
            tree_->meta().num_leaves * tree_->meta().height);
  MSV_EXPECT_OK(report.ToStatus());
}

TEST_F(AceVerifyTest, SectionHeaderCorruptionReportsLeaf) {
  Build(20000, 4);
  const uint64_t victim = tree_->meta().num_leaves / 2;
  LeafLocation loc = Locate(victim);
  // Flip bytes in the section-count array of the leaf header (bytes
  // [8, 8 + 4h) of the blob hold the per-section record counts).
  char junk[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
  Clobber(loc.offset + 8, junk, sizeof(junk));

  Reopen();
  InvariantReport report = tree_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  const InvariantViolation& v = report.violations.front();
  EXPECT_EQ(v.code, StatusCode::kCorruption);
  EXPECT_EQ(v.leaf, victim) << report.ToString();
  EXPECT_TRUE(report.ToStatus().IsCorruption());
}

TEST_F(AceVerifyTest, MisplacedRecordSurvivingChecksumIsCaught) {
  Build(20000, 4);
  const uint64_t victim = 0;
  LeafLocation loc = Locate(victim);
  // Move the first record of the deepest section (whose ancestor box is
  // the leaf's own cell — the narrowest) far outside the key domain,
  // then recompute the checksum so only semantic checks can object.
  const size_t header = LeafHeaderSize(tree_->meta().height);
  char key[8];
  EncodeDouble(key, 1e18);
  // Sections are stored in order 1..h; find the byte offset of section h.
  auto leaf = ValueOrDie(tree_->ReadLeaf(victim, tree_->meta().height));
  uint64_t section_h_off = loc.offset + header;
  for (uint32_t s = 1; s < tree_->meta().height; ++s) {
    section_h_off += leaf.SectionCount(s) * tree_->meta().record_size;
  }
  ASSERT_GT(leaf.SectionCount(tree_->meta().height), 0u);
  Clobber(section_h_off + SaleRecord::kDayOffset, key, sizeof(key));
  FixLeafChecksum(victim);

  Reopen();
  ASSERT_TRUE(tree_->ReadLeaf(victim, tree_->meta().height).ok())
      << "checksum should pass";
  InvariantReport report = tree_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.leaf == victim && v.code == StatusCode::kCorruption &&
        v.detail.find("ancestor") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST_F(AceVerifyTest, DuplicatedRecordViolatesLemma1) {
  Build(20000, 3);
  const uint64_t victim = 1;
  LeafLocation loc = Locate(victim);
  auto leaf = ValueOrDie(tree_->ReadLeaf(victim, tree_->meta().height));
  const size_t rs = tree_->meta().record_size;
  ASSERT_GE(leaf.SectionCount(1), 2u);
  // Copy record 0 of section 1 over record 1 of section 1: containment
  // still holds, but the section now samples with replacement.
  const size_t header = LeafHeaderSize(tree_->meta().height);
  std::string rec0(leaf.SectionRecord(1, 0), rs);
  Clobber(loc.offset + header + rs, rec0.data(), rs);
  FixLeafChecksum(victim);

  Reopen();
  InvariantReport report = tree_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.leaf == victim &&
        v.detail.find("without-replacement") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST_F(AceVerifyTest, BrokenInternalCountsAreCaught) {
  Build(20000, 4);
  // Corrupt cnt_left of internal node 2 (the second entry of the
  // internal region; layout per EncodeInternalNode: key f64, dim u32,
  // pad u32, cnt_l u64, cnt_r u64).
  const uint64_t node_off =
      tree_->meta().internal_offset + 1 * kInternalNodeSize + 16;
  char bogus[8];
  EncodeFixed64(bogus, 123456789);
  Clobber(node_off, bogus, sizeof(bogus));
  FixRegionChecksums();  // let the semantic check, not the CRC, object

  Reopen();
  InvariantReport report = tree_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.ToStatus().IsCorruption()) << report.ToString();
}

TEST_F(AceVerifyTest, MaxViolationsTruncatesReport) {
  Build(20000, 8);  // 128 leaves: more than the report's cap
  ASSERT_GT(tree_->meta().num_leaves, InvariantReport::kMaxViolations);
  // Zero out the whole directory: every leaf becomes unreadable.
  std::string zeros(
      tree_->meta().num_leaves * DirectoryEntrySize(tree_->meta().height),
      '\0');
  Clobber(tree_->meta().directory_offset, zeros.data(), zeros.size());
  FixRegionChecksums();  // let the semantic check, not the CRC, object
  Reopen();
  InvariantReport report = tree_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.size(), InvariantReport::kMaxViolations);
  EXPECT_TRUE(report.truncated);
}

/// Rewrites the superblock through `edit` and re-checksums it, so the
/// geometry checks, not the superblock CRC, must object.
template <typename Edit>
void RewriteSuperblock(io::Env* env, Edit edit) {
  auto file = ValueOrDie(env->OpenFile("ace", /*create=*/false));
  char super[kSuperblockSize];
  MSV_ASSERT_OK(file->ReadExact(0, sizeof(super), super));
  AceMeta meta = ValueOrDie(DecodeSuperblock(super));
  edit(&meta);
  EncodeSuperblock(super, meta);
  MSV_ASSERT_OK(file->Write(0, super, sizeof(super)));
}

TEST_F(AceVerifyTest, HeightPastMaximumIsCorruption) {
  Build(20000, 4);
  RewriteSuperblock(env_.get(), [](AceMeta* meta) { meta->height = 100; });
  auto reopened = AceTree::Open(env_.get(), "ace", layout_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST_F(AceVerifyTest, RegionsPastEndOfFileAreCorruption) {
  Build(20000, 4);
  // A consistent height-40 geometry claims 2^39 leaves: terabytes of
  // internal nodes and directory that this small file cannot hold.
  RewriteSuperblock(env_.get(), [](AceMeta* meta) {
    meta->height = kMaxHeight;
    meta->num_leaves = uint64_t{1} << (kMaxHeight - 1);
  });
  auto reopened = AceTree::Open(env_.get(), "ace", layout_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST_F(AceVerifyTest, DirectoryEntryPastEndOfFileIsPerLeafCorruption) {
  Build(20000, 4);
  const uint64_t victim = 2;
  // A petabyte-long entry for one leaf, with the region CRC recomputed.
  char length[8];
  EncodeFixed64(length, uint64_t{1} << 50);
  Clobber(EntryOffset(victim) + 8, length, sizeof(length));
  FixRegionChecksums();
  Reopen();

  auto leaf = tree_->ReadLeaf(victim, tree_->meta().height);
  ASSERT_FALSE(leaf.ok());
  EXPECT_TRUE(leaf.status().IsCorruption()) << leaf.status().ToString();
  auto batch = tree_->ReadLeaves({0, victim});
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsCorruption()) << batch.status().ToString();
  MSV_EXPECT_OK(tree_->ReadLeaf(victim + 1, tree_->meta().height).status());

  // The scrubber attributes the bad entry to its leaf; the other leaves
  // verify (tree-wide totals miss the victim's records).
  InvariantReport report = tree_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    EXPECT_TRUE(v.leaf == victim || v.leaf == InvariantViolation::kNoLeaf)
        << report.ToString();
    found = found || (v.leaf == victim && v.code == StatusCode::kCorruption);
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST_F(AceVerifyTest, InternalRegionBitFlipRejectedAtOpen) {
  Build(20000, 4);
  FlipBit(tree_->meta().internal_offset + 3);
  auto reopened = AceTree::Open(env_.get(), "ace", layout_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST_F(AceVerifyTest, DirectoryBitFlipRejectedAtOpen) {
  Build(20000, 4);
  FlipBit(tree_->meta().directory_offset + 5);
  auto reopened = AceTree::Open(env_.get(), "ace", layout_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST_F(AceVerifyTest, RegionCorruptionAfterOpenCaughtByRecheck) {
  Build(20000, 4);
  // Corrupt the on-disk directory bytes while the tree stays open: the
  // MemEnv handles alias the same data, so CheckInvariants' region
  // re-read (the "regions" phase) must object even though Open passed.
  FlipBit(tree_->meta().directory_offset + 1);
  InvariantReport report = tree_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.detail.find("directory checksum") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST_F(AceVerifyTest, PrefixReadVerifiesOnlyWhatItReads) {
  Build(20000, 4);
  const uint32_t h = tree_->meta().height;
  const size_t rs = tree_->meta().record_size;
  const uint64_t victim = 3;
  const LeafLocation loc = Locate(victim);
  LeafData whole = ValueOrDie(tree_->ReadLeaf(victim, h));
  ASSERT_GT(whole.SectionCount(1), 0u);
  ASSERT_GT(whole.SectionCount(h), 0u);

  // A clean prefix: sections 1..2 as in the whole leaf, the rest empty.
  LeafData prefix = ValueOrDie(tree_->ReadLeaf(victim, 2));
  EXPECT_EQ(prefix.levels_read, 2u);
  ASSERT_EQ(prefix.sections.size(), h);
  for (uint32_t level = 1; level <= h; ++level) {
    EXPECT_EQ(prefix.sections[level - 1],
              level <= 2 ? whole.sections[level - 1] : std::string_view())
        << "section " << level;
  }
  EXPECT_TRUE(tree_->ReadLeaf(victim, 0).status().IsInvalidArgument());
  EXPECT_TRUE(tree_->ReadLeaf(victim, h + 1).status().IsInvalidArgument());

  // A byte flipped beyond the prefix (inside section h) is not read, so
  // the prefix read passes; whole reads and the scrubber catch it.
  const size_t header = LeafHeaderSize(h);
  const uint64_t section_h_off =
      loc.offset + loc.length - 4 - whole.SectionCount(h) * rs;
  FlipBit(section_h_off + 3);
  Reopen();
  MSV_EXPECT_OK(tree_->ReadLeaf(victim, 2).status());
  MSV_EXPECT_OK(tree_->ReadLeaf(victim, h - 1).status());
  EXPECT_TRUE(tree_->ReadLeaf(victim, h).status().IsCorruption());
  InvariantReport report = tree_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().leaf, victim) << report.ToString();
  FlipBit(section_h_off + 3);  // undo

  // A byte flipped inside the prefix fails the read, whether it lands in
  // a section or in the header.
  for (uint64_t off : {loc.offset + header + 5, loc.offset + 9}) {
    FlipBit(off);
    Reopen();
    Result<LeafData> bad = tree_->ReadLeaf(victim, 2);
    EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
    FlipBit(off);
  }
  Reopen();
  MSV_EXPECT_OK(tree_->ReadLeaf(victim, 2).status());
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

TEST_F(AceVerifyTest, DirectorySectionEntryDisagreeingWithLeafIsCaught) {
  // A directory whose checksum is valid but whose section count or CRC
  // disagrees with the leaf: prefix reads trust that entry, so both the
  // prefix read and the scrubber must object.
  const uint64_t victim = 5;
  for (uint64_t field : {16u /* section 1 count */, 28u /* section 2 CRC */}) {
    Build(20000, 4);
    const uint64_t at = EntryOffset(victim) + field;
    FlipBit(at);
    FixRegionChecksums();
    Reopen();
    Result<LeafData> prefix = tree_->ReadLeaf(victim, 2);
    EXPECT_TRUE(prefix.status().IsCorruption())
        << "field " << field << ": " << prefix.status().ToString();
    MSV_EXPECT_OK(tree_->ReadLeaf(victim - 1, 2).status());
    InvariantReport report = tree_->CheckInvariants();
    ASSERT_FALSE(report.ok()) << "field " << field;
    bool found = false;
    for (const auto& v : report.violations) {
      found = found || (v.leaf == victim && v.code == StatusCode::kCorruption);
    }
    EXPECT_TRUE(found) << report.ToString();
  }
}

}  // namespace
}  // namespace msv::core
