// Online aggregation (Hellerstein et al.) over a materialized sample view —
// the paper's primary motivating application.
//
// Estimates   SELECT AVG(AMOUNT), SUM(AMOUNT) FROM SALE
//             WHERE DAY BETWEEN lo AND hi
// from an online random sample, printing the running estimate and a 95%
// confidence interval as simulated I/O time passes. Compares the ACE-tree
// sample view against scanning a randomly permuted file: the ACE tree
// tightens the interval far sooner because its early sampling rate from
// the predicate is much higher.
//
// Run:  ./online_aggregation

#include <cstdio>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "io/disk_model.h"
#include "io/env.h"
#include "permuted/permuted_file.h"
#include "relation/sale_generator.h"
#include "relation/workload.h"
#include "sampling/online_aggregator.h"
#include "storage/heap_file.h"
#include "storage/record_view.h"
#include "util/logging.h"

using msv::sampling::OnlineAggregator;
using msv::storage::SaleRecord;

namespace {

double Amount(const char* rec) { return SaleRecord::DecodeFrom(rec).amount; }

void RunEstimation(msv::sampling::SampleStream* stream,
                   msv::io::DiskDevice* device, uint64_t population,
                   double truth, double scan_ms) {
  OnlineAggregator agg(
      msv::storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
      population, 0.95);
  double next_report_pct = 0.25;
  std::printf("  %%scan   samples       AVG estimate (95%% CI)     rel.err\n");
  while (!stream->done() && device->clock().NowMs() < scan_ms * 0.04) {
    auto batch = stream->NextBatch();
    MSV_CHECK(batch.ok());
    agg.Consume(batch.value());
    double pct = device->clock().NowMs() / scan_ms * 100.0;
    if (pct >= next_report_pct && agg.samples_seen() > 1) {
      auto e = agg.Avg();
      std::printf("  %5.2f%%  %8llu   %9.3f +/- %7.3f    %6.3f%%\n", pct,
                  static_cast<unsigned long long>(e.samples), e.value,
                  e.half_width, (e.value - truth) / truth * 100.0);
      next_report_pct += 0.75;
    }
  }
  auto final_avg = agg.Avg();
  auto final_sum = agg.Sum();
  std::printf("  final: AVG = %.3f +/- %.3f (truth %.3f), SUM ~ %.4g +/- "
              "%.3g\n",
              final_avg.value, final_avg.half_width, truth, final_sum.value,
              final_sum.half_width);
}

}  // namespace

int main() {
  auto env = msv::io::NewMemEnv();
  const uint64_t kRecords = 1'000'000;

  msv::relation::SaleGenOptions gen;
  gen.num_records = kRecords;
  gen.seed = 99;
  MSV_CHECK(msv::relation::GenerateSaleRelation(env.get(), "sale", gen).ok());
  auto layout = SaleRecord::Layout1D();

  MSV_CHECK(msv::core::BuildAceTree(env.get(), "sale", "sale.ace", layout)
                .ok());
  MSV_CHECK(
      msv::permuted::BuildPermutedFile(env.get(), "sale", "sale.perm").ok());

  // The query: a 2.5% DAY window.
  auto query = msv::sampling::RangeQuery::OneDim(40000, 42500);
  auto sale = std::move(msv::storage::HeapFile::Open(env.get(), "sale"))
                  .value();
  uint64_t population = 0;
  double truth = 0;
  {
    auto scanner = sale->NewScanner();
    for (;;) {
      auto rec = scanner.Next();
      MSV_CHECK(rec.ok());
      if (rec.value() == nullptr) break;
      if (query.Matches(layout, rec.value())) {
        ++population;
        truth += Amount(rec.value());
      }
    }
    truth /= static_cast<double>(population);
  }
  std::printf("query %s matches %llu records; true AVG(AMOUNT) = %.3f\n\n",
              query.ToString().c_str(),
              static_cast<unsigned long long>(population), truth);

  const double scan_ms =
      msv::io::DiskDevice().SequentialScanMs(kRecords * SaleRecord::kSize);

  std::printf("--- online aggregation over the ACE-tree sample view ---\n");
  {
    auto device = std::make_shared<msv::io::DiskDevice>();
    auto timed = msv::io::NewSimEnv(env.get(), device);
    auto tree =
        std::move(msv::core::AceTree::Open(timed.get(), "sale.ace", layout))
            .value();
    // The ACE tree's internal-node counts supply the population for SUM.
    uint64_t est_pop = tree->EstimateMatchCount(query).value_or(population);
    std::printf("(population from internal-node counts: %llu)\n",
                static_cast<unsigned long long>(est_pop));
    msv::core::AceSampler sampler(tree.get(), query, 5);
    device->clock().Reset();
    RunEstimation(&sampler, device.get(), est_pop, truth, scan_ms);
  }

  std::printf("\n--- online aggregation over a randomly permuted file ---\n");
  {
    auto device = std::make_shared<msv::io::DiskDevice>();
    auto timed = msv::io::NewSimEnv(env.get(), device);
    auto perm =
        std::move(msv::storage::HeapFile::Open(timed.get(), "sale.perm"))
            .value();
    msv::permuted::PermutedFileSampler sampler(perm.get(), layout, query);
    device->clock().Reset();
    RunEstimation(&sampler, device.get(), population, truth, scan_ms);
  }
  return 0;
}
