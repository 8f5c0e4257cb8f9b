// Construction-cost study (paper Sec. 5: "constructing an ACE-Tree from
// scratch requires two external sorts of a large database table", plus a
// very small space overhead).
//
// Builds every structure over relations of increasing size on a simulated
// disk and reports modeled build time (normalized to one sequential scan),
// number of external-sort passes, and index space overhead.

#include <cstdio>

#include "btree/ranked_btree.h"
#include "core/ace_builder.h"
#include "harness.h"
#include "permuted/permuted_file.h"
#include "relation/sale_generator.h"
#include "rtree/rtree.h"
#include "storage/heap_file.h"
#include "util/logging.h"

namespace msv::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {{"seed", "42"}, {"page", "65536"}});
  const size_t page = flags.GetInt("page");

  std::vector<std::vector<double>> rows;
  for (uint64_t n : {100'000ull, 300'000ull, 1'000'000ull}) {
    auto env = io::NewMemEnv();
    relation::SaleGenOptions gen;
    gen.num_records = n;
    gen.seed = flags.GetInt("seed");
    MSV_CHECK(relation::GenerateSaleRelation(env.get(), "sale", gen).ok());
    auto layout = storage::SaleRecord::Layout1D();
    const uint64_t bytes = n * storage::SaleRecord::kSize;
    io::DiskDevice probe;
    const double scan_ms = probe.SequentialScanMs(bytes);

    auto timed_build = [&](auto&& fn) {
      auto device = std::make_shared<io::DiskDevice>();
      auto timed = io::NewSimEnv(env.get(), device);
      fn(timed.get());
      return device->clock().NowMs() / scan_ms;  // in scans
    };

    core::AceBuildMetrics ace_metrics;
    double ace_scans = timed_build([&](io::Env* e) {
      core::AceBuildOptions options;
      options.page_size = page;
      MSV_CHECK(
          core::BuildAceTree(e, "sale", "ace", layout, options, &ace_metrics)
              .ok());
    });
    double btree_scans = timed_build([&](io::Env* e) {
      btree::BTreeOptions options;
      options.page_size = page;
      MSV_CHECK(btree::BuildRankedBTree(e, "sale", "btree", layout, options)
                    .ok());
    });
    double perm_scans = timed_build([&](io::Env* e) {
      MSV_CHECK(permuted::BuildPermutedFile(e, "sale", "perm").ok());
    });
    double rtree_scans = timed_build([&](io::Env* e) {
      rtree::RTreeOptions options;
      options.page_size = page;
      MSV_CHECK(rtree::BuildRTree(e, "sale", "rtree",
                                  storage::SaleRecord::Layout2D(), options)
                    .ok());
    });

    double overhead_pct = 100.0 *
                          static_cast<double>(ace_metrics.overhead_bytes) /
                          static_cast<double>(bytes);
    rows.push_back({static_cast<double>(n), ace_scans,
                    static_cast<double>(ace_metrics.phase1_sort.merge_passes +
                                        ace_metrics.phase2_sort.merge_passes),
                    overhead_pct, btree_scans, perm_scans, rtree_scans});
  }
  std::vector<std::string> header{
      "records",     "ace_build_scans",   "ace_sort_passes",
      "ace_overhead_pct", "btree_build_scans", "perm_build_scans",
      "rtree_build_scans"};
  PrintTable(
      "construction cost (build time in units of one sequential scan of "
      "the relation; simulated disk)",
      header, rows);
  WriteCsv("construction.csv", header, rows);

  obs::Json numbers = obs::Json::Object();
  numbers["page"] = obs::Json(static_cast<uint64_t>(page));
  obs::Json sizes = obs::Json::Array();
  for (const auto& row : rows) {
    obs::Json entry = obs::Json::Object();
    for (size_t i = 0; i < header.size(); ++i) {
      entry[header[i]] = obs::Json(row[i]);
    }
    sizes.Append(std::move(entry));
  }
  numbers["sizes"] = std::move(sizes);
  WriteBenchJson("construction", numbers);
  return 0;
}

}  // namespace
}  // namespace msv::bench

int main(int argc, char** argv) { return msv::bench::Main(argc, argv); }
