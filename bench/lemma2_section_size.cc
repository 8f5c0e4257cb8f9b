// Validates Lemma 2 of the paper: the expected number of records in any
// leaf-node section is E[mu] = |R| / (h * 2^(h-1)). Sweeps the tree
// height and compares the measured grand-mean section size (and the
// spread across sections) against the formula.

#include <cmath>
#include <cstdio>

#include "core/ace_tree.h"
#include "harness.h"
#include "util/logging.h"
#include "util/stats.h"

namespace msv::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {{"records", "200000"}, {"seed", "42"}});
  BenchEnv::Options options;
  options.records = flags.GetInt("records");
  options.seed = flags.GetInt("seed");
  BenchEnv env(options);

  std::vector<std::vector<double>> rows;
  for (uint32_t height : {2u, 4u, 6u, 8u, 10u}) {
    // Rebuild at each height (delete the previous tree file).
    env.raw_env()->DeleteFile(BenchEnv::kAce).IgnoreError();  // best-effort scratch cleanup
    env.BuildAce(height);
    auto tree_or =
        core::AceTree::Open(env.raw_env(), BenchEnv::kAce, env.layout());
    MSV_CHECK(tree_or.ok());
    auto tree = std::move(tree_or).value();

    RunningStats sizes;
    for (uint64_t leaf = 0; leaf < tree->meta().num_leaves; ++leaf) {
      auto data_or = tree->ReadLeaf(leaf, tree->meta().height);
      MSV_CHECK(data_or.ok());
      for (uint32_t s = 1; s <= height; ++s) {
        sizes.Add(static_cast<double>(data_or.value().SectionCount(s)));
      }
    }
    double expected =
        static_cast<double>(options.records) /
        (static_cast<double>(height) *
         static_cast<double>(1ull << (height - 1)));
    rows.push_back({static_cast<double>(height),
                    static_cast<double>(1ull << (height - 1)), expected,
                    sizes.mean(), sizes.stddev(), sizes.min(), sizes.max()});
  }
  std::vector<std::string> header{"height_h", "leaves_F",  "lemma2_E[mu]",
                                  "measured_mean", "stddev", "min", "max"};
  PrintTable("lemma2: section size vs |R| / (h * 2^(h-1))", header, rows);
  WriteCsv("lemma2.csv", header, rows);

  bool ok = true;
  for (const auto& row : rows) {
    if (std::abs(row[3] - row[2]) > 0.02 * row[2] + 0.5) ok = false;
  }
  std::printf("\nlemma2 formula %s\n", ok ? "HOLDS" : "VIOLATED");
  return 0;  // informational: the table is the artifact
}

}  // namespace
}  // namespace msv::bench

int main(int argc, char** argv) { return msv::bench::Main(argc, argv); }
