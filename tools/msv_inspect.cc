// msv_inspect: offline inspection and integrity scrubbing of MSV files
// (ACE trees and heap files), in the spirit of RocksDB's sst_dump.
//
// Usage:
//   msv_inspect <dir> stats <file>        print geometry + size breakdown
//   msv_inspect <dir> verify <file>       full scrub: per-page leaf CRCs,
//                                         region checksums (internal
//                                         nodes + directory), section
//                                         counts and CRCs against the
//                                         directory, headers, counts,
//                                         containment
//   msv_inspect <dir> leaf <file> <n>     dump one leaf's sections: records,
//                                         bytes and checksum status (exit
//                                         1 if any section disagrees with
//                                         the directory)
//   msv_inspect <dir> histogram <file>    leaf record-count order
//                                         statistics (exit 1 if any
//                                         leaf is unreadable)
//
// The global flag --metrics prints the process metrics registry's
// snapshot (MetricRegistry::Snapshot(), the export line's JSON) after
// any command.
//
// <dir> is a host filesystem directory; <file> the ACE tree (or heap
// file, for `stats`) inside it. Exit code 0 = healthy, 1 = corruption.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/ace_tree.h"
#include "io/env.h"
#include "obs/metrics.h"
#include "storage/heap_file.h"
#include "storage/record.h"

namespace msv {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: msv_inspect <dir> stats|verify|histogram <file>\n"
               "       msv_inspect <dir> leaf <file> <leaf-number>\n"
               "       (commands may also be spelled --verify etc.;\n"
               "        add --metrics to print the metrics registry's\n"
               "        JSON snapshot after the command)\n");
  return 2;
}

// The tool does not know the indexed layout; a 1-column layout with the
// stored record size and key at offset 0 is enough for read-side checks
// of 1-d trees, and the superblock's key_dims tells us the real arity.
Result<std::unique_ptr<core::AceTree>> OpenTree(io::Env* env,
                                                const std::string& name) {
  // Peek at the superblock to learn record size and key dimensionality.
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> file,
                       env->OpenFile(name, /*create=*/false));
  char super[core::kSuperblockSize];
  MSV_RETURN_IF_ERROR(file->ReadExact(0, sizeof(super), super));
  MSV_ASSIGN_OR_RETURN(core::AceMeta meta, core::DecodeSuperblock(super));
  storage::RecordLayout layout;
  layout.record_size = meta.record_size;
  // Synthesize key offsets; the SALE schema's (0, 8) works for files
  // produced by this library. Only used for key decoding, not verified.
  for (uint32_t d = 0; d < meta.key_dims; ++d) {
    layout.key_offsets.push_back(8ul * d);
  }
  return core::AceTree::Open(env, name, layout);
}

int CmdStats(io::Env* env, const std::string& name) {
  // Heap file?
  if (auto heap = storage::HeapFile::Open(env, name); heap.ok()) {
    std::printf("heap file %s\n  records:     %" PRIu64
                "\n  record size: %zu B\n  file bytes:  %" PRIu64 "\n",
                name.c_str(), heap.value()->record_count(),
                heap.value()->record_size(), heap.value()->file_bytes());
    return 0;
  }
  auto tree_or = OpenTree(env, name);
  if (!tree_or.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", name.c_str(),
                 tree_or.status().ToString().c_str());
    return 1;
  }
  const auto& tree = *tree_or.value();
  const auto& meta = tree.meta();
  std::printf("ACE tree %s\n", name.c_str());
  std::printf("  records:        %" PRIu64 "\n", meta.num_records);
  std::printf("  record size:    %zu B\n", meta.record_size);
  std::printf("  key dims:       %u\n", meta.key_dims);
  std::printf("  height h:       %u (sections per leaf)\n", meta.height);
  std::printf("  leaves F:       %" PRIu64 "\n", meta.num_leaves);
  std::printf("  E[mu]:          %.2f records/section\n",
              static_cast<double>(meta.num_records) /
                  (static_cast<double>(meta.height) *
                   static_cast<double>(meta.num_leaves)));
  std::printf("  domain:         ");
  for (uint32_t d = 0; d < meta.key_dims; ++d) {
    std::printf("%s[%.6g, %.6g)", d ? " x " : "", meta.domain_min[d],
                meta.domain_max[d]);
  }
  std::printf("\n");
  std::printf("  regions:        internal@%" PRIu64 " directory@%" PRIu64
              " data@%" PRIu64 "\n",
              meta.internal_offset, meta.directory_offset, meta.data_offset);
  std::printf("  file bytes:     %" PRIu64 " (overhead %.3f%%)\n",
              tree.file_bytes(),
              100.0 *
                  (static_cast<double>(tree.file_bytes()) -
                   static_cast<double>(meta.num_records * meta.record_size)) /
                  static_cast<double>(meta.num_records * meta.record_size));
  return 0;
}

int CmdVerify(io::Env* env, const std::string& name) {
  auto tree_or = OpenTree(env, name);
  if (!tree_or.ok()) {
    std::fprintf(stderr, "FAIL open: %s\n",
                 tree_or.status().ToString().c_str());
    return 1;
  }
  // Full structural scrub: per-page leaf CRCs, the region checksums over
  // the internal-node and directory regions (re-read from disk, so
  // corruption after Open is still caught), every section's count and
  // CRC against its directory entry, headers, directory geometry,
  // split-tree counts, Lemma-1 disjointness, Lemma-2 section sizes and
  // leaf-set partitioning (see AceTree::CheckInvariants).
  core::InvariantReport report = tree_or.value()->CheckInvariants();
  const int rc = report.ok() ? 0 : 1;
  if (report.ok()) {
    std::printf("%s\n", report.ToString().c_str());
  } else {
    std::fprintf(stderr, "FAIL %s", report.ToString().c_str());
  }
  // Per-check durations (also published as verify.<phase>_us counters in
  // the metrics registry) so slow phases on large trees are visible.
  std::printf("per-check durations:\n");
  for (const auto& [phase, us] : report.check_us) {
    std::printf("  verify.%s_us %" PRIu64 "\n", phase.c_str(), us);
  }
  return rc;
}

int CmdLeaf(io::Env* env, const std::string& name, uint64_t leaf) {
  auto tree_or = OpenTree(env, name);
  if (!tree_or.ok()) {
    std::fprintf(stderr, "cannot open: %s\n",
                 tree_or.status().ToString().c_str());
    return 1;
  }
  const core::AceTree& tree = *tree_or.value();
  auto data_or = tree.ReadLeaf(leaf, tree.meta().height);
  if (!data_or.ok()) {
    std::fprintf(stderr, "cannot read leaf: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const auto& data = data_or.value();
  std::printf("leaf %" PRIu64 ": %" PRIu64 " records\n", leaf,
              data.TotalRecords());
  int rc = 0;
  for (uint32_t s = 1; s <= data.sections.size(); ++s) {
    // The directory's count and CRC are what a prefix read trusts.
    const Status st = tree.CheckSection(leaf, s, data.sections[s - 1]);
    std::printf("  section %u: %zu records, %zu bytes, crc %s\n", s,
                data.SectionCount(s), data.sections[s - 1].size(),
                st.ok() ? "ok" : st.ToString().c_str());
    if (!st.ok()) rc = 1;
  }
  return rc;
}

int CmdHistogram(io::Env* env, const std::string& name) {
  auto tree_or = OpenTree(env, name);
  if (!tree_or.ok()) {
    std::fprintf(stderr, "cannot open: %s\n",
                 tree_or.status().ToString().c_str());
    return 1;
  }
  const auto& tree = *tree_or.value();
  const uint64_t leaves = tree.meta().num_leaves;
  std::vector<uint64_t> counts;
  counts.reserve(leaves);
  uint64_t failed = 0;
  for (uint64_t leaf = 0; leaf < leaves; ++leaf) {
    auto data = tree.ReadLeaf(leaf, tree.meta().height);
    if (!data.ok()) {
      if (failed++ == 0) {
        std::fprintf(stderr, "FAIL leaf %" PRIu64 ": %s\n", leaf,
                     data.status().ToString().c_str());
      }
      continue;
    }
    counts.push_back(data.value().TotalRecords());
  }
  std::sort(counts.begin(), counts.end());
  std::printf("leaf record counts over %zu of %" PRIu64
              " leaves (expected mean %.1f):\n",
              counts.size(), leaves,
              static_cast<double>(tree.meta().num_records) /
                  static_cast<double>(leaves));
  if (!counts.empty()) {
    // Exact order statistics (nearest rank) of the sorted counts.
    auto rank = [&counts](double p) {
      auto r = static_cast<size_t>(
          std::ceil(p * static_cast<double>(counts.size())));
      return counts[r == 0 ? 0 : r - 1];
    };
    double sum = 0;
    for (uint64_t c : counts) sum += static_cast<double>(c);
    std::printf("  min %" PRIu64 "  p1 %" PRIu64 "  p50 %" PRIu64
                "  p99 %" PRIu64 "  max %" PRIu64 "  mean %.1f\n",
                counts.front(), rank(0.01), rank(0.50), rank(0.99),
                counts.back(), sum / static_cast<double>(counts.size()));
  }
  if (failed > 0) {
    std::fprintf(stderr, "FAIL %" PRIu64 " of %" PRIu64
                 " leaves unreadable\n", failed, leaves);
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  // Peel off the global --metrics flag wherever it appears; what
  // remains are the positional arguments.
  bool metrics = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics") {
      metrics = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      return Usage();
    } else {
      args.push_back(std::move(arg));
    }
  }
  if (args.size() < 3) return Usage();
  auto env = io::NewPosixEnv(args[0]);
  std::string command = args[1];
  // Accept both spellings: `msv_inspect <dir> verify <file>` and
  // `msv_inspect <dir> --verify <file>`.
  if (command.rfind("--", 0) == 0) command = command.substr(2);
  const std::string& file = args[2];
  int rc;
  if (command == "stats") {
    rc = CmdStats(env.get(), file);
  } else if (command == "verify") {
    rc = CmdVerify(env.get(), file);
  } else if (command == "histogram") {
    rc = CmdHistogram(env.get(), file);
  } else if (command == "leaf" && args.size() >= 4) {
    rc = CmdLeaf(env.get(), file, std::strtoull(args[3].c_str(), nullptr, 10));
  } else {
    return Usage();
  }
  if (metrics) {
    std::printf("%s\n",
                obs::MetricRegistry::Global().Snapshot().Dump(2).c_str());
  }
  return rc;
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) { return msv::Main(argc, argv); }
