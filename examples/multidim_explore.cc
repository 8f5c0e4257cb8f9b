// Multi-dimensional exploration with a k-d ACE tree (paper Sec. 7).
//
// Builds a 2-d materialized sample view over (DAY, AMOUNT) and, for a
// sequence of query rectangles of shrinking size, draws a quick online
// sample from each to print instant summary statistics — the "explore a
// warehouse region by sampling" workflow.
//
// Run:  ./multidim_explore

#include <cstdio>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "io/env.h"
#include "relation/sale_generator.h"
#include "sampling/online_aggregator.h"
#include "storage/record.h"
#include "storage/record_view.h"
#include "util/logging.h"

using msv::storage::SaleRecord;

int main() {
  auto env = msv::io::NewMemEnv();
  msv::relation::SaleGenOptions gen;
  gen.num_records = 500'000;
  gen.seed = 77;
  MSV_CHECK(msv::relation::GenerateSaleRelation(env.get(), "sale", gen).ok());

  auto layout = SaleRecord::Layout2D();
  msv::core::AceBuildOptions build;
  build.key_dims = 2;  // k-d ACE tree: levels alternate DAY / AMOUNT splits
  MSV_CHECK(
      msv::core::BuildAceTree(env.get(), "sale", "sale.ace", layout, build)
          .ok());
  auto tree =
      std::move(msv::core::AceTree::Open(env.get(), "sale.ace", layout))
          .value();
  std::printf("k-d ACE tree over (DAY, AMOUNT): height=%u, leaves=%llu\n\n",
              tree->meta().height,
              static_cast<unsigned long long>(tree->meta().num_leaves));

  // Drill down: each rectangle is a quarter of the previous one.
  struct Region {
    const char* name;
    msv::sampling::RangeQuery q;
  };
  std::vector<Region> regions = {
      {"whole domain", msv::sampling::RangeQuery::TwoDim(0, 100000, 0, 10000)},
      {"Q2 days, mid spend",
       msv::sampling::RangeQuery::TwoDim(25000, 50000, 2500, 7500)},
      {"one month, high spend",
       msv::sampling::RangeQuery::TwoDim(30000, 33000, 7500, 10000)},
      {"one week, one price band",
       msv::sampling::RangeQuery::TwoDim(30000, 30700, 9000, 9500)},
  };

  for (const Region& region : regions) {
    uint64_t population = tree->EstimateMatchCount(region.q).value_or(0);
    msv::core::AceSampler sampler(tree.get(), region.q, 11);
    msv::sampling::OnlineAggregator agg(
        msv::storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
        population, 0.95);
    // A quick probe: at most 40 leaf reads' worth of samples.
    uint64_t pulls = 0;
    while (!sampler.done() && pulls < 40 && agg.samples_seen() < 4000) {
      auto batch = sampler.NextBatch();
      MSV_CHECK(batch.ok());
      agg.Consume(batch.value());
      ++pulls;
    }
    auto avg = agg.Avg();
    auto sum = agg.Sum();
    std::printf("%-26s  ~%9llu rows | %5llu samples in %2llu leaf reads | "
                "AVG(AMOUNT) = %8.2f +/- %6.2f | SUM ~ %.4g\n",
                region.name, static_cast<unsigned long long>(population),
                static_cast<unsigned long long>(agg.samples_seen()),
                static_cast<unsigned long long>(pulls), avg.value,
                avg.half_width, sum.value);
  }
  std::printf(
      "\nevery line above cost a handful of leaf reads instead of a scan\n");
  return 0;
}
