#include "probes.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "core/ace_sampler.h"
#include "query/parser.h"
#include "relation/sale_generator.h"
#include "sampling/online_aggregator.h"
#include "sampling/stopping_rule.h"
#include "stats.h"
#include "storage/record.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace perfbench {

namespace {

using msv::Result;
using msv::Status;

/// Leaves per ReadLeaves call when the probe re-reads a statement's
/// leaves (bounds the probe's memory on full drains).
constexpr size_t kLeafChunk = 64;

struct ProbeTotals {
  uint64_t statements = 0;
  uint64_t leaf_records = 0;  ///< records in the leaves the statements read
  uint64_t rows = 0;          ///< rows the statements returned
  uint64_t crc_mismatches = 0;
};

/// Pulls `rows` rows (or to the end of the stream) and discards them.
Status Pull(msv::sampling::SampleStream* stream, uint64_t rows) {
  uint64_t got = 0;
  while (!stream->done() && got < rows) {
    MSV_ASSIGN_OR_RETURN(msv::sampling::SampleBatch batch, stream->NextBatch());
    got += batch.count();
  }
  return Status::OK();
}

/// Reads the statement's leaves again in stab order, timing the read,
/// the filter kernel over every section, and CRC32C over the raw bytes.
Status ProbeLeaves(const ProbeTarget& t, const msv::core::AceTree& tree,
                   const msv::sampling::RangeQuery& query, uint64_t leaves,
                   ProbeTotals* totals) {
  std::vector<uint64_t> order =
      msv::core::ComputeStabLeafOrder(tree.splits(), query);
  order.resize(std::min<size_t>(order.size(), leaves));
  std::vector<uint32_t> matched;
  for (size_t first = 0; first < order.size(); first += kLeafChunk) {
    const std::vector<uint64_t> chunk(
        order.begin() + first,
        order.begin() + std::min(first + kLeafChunk, order.size()));
    Result<std::vector<msv::core::LeafData>> read = [&] {
      ScopedSpan span(t.log, "core.leaf_read");
      t.env->set_span_log(t.log);  // io.read spans nest under this one
      Result<std::vector<msv::core::LeafData>> got = tree.ReadLeaves(chunk);
      t.env->set_span_log(nullptr);
      return got;
    }();
    MSV_RETURN_IF_ERROR(read.status());
    const std::vector<msv::core::LeafData>& data = *read;
    {
      ScopedSpan span(t.log, "sampling.filter");
      for (const msv::core::LeafData& leaf : data) {
        for (size_t level = 1; level <= leaf.sections.size(); ++level) {
          const size_t n = leaf.SectionCount(level);
          if (matched.size() < n) matched.resize(n);
          query.MatchBatch(tree.layout(), leaf.sections[level - 1].data(), n,
                           matched.data());
        }
      }
    }
    for (const msv::core::LeafData& leaf : data) {
      totals->leaf_records += leaf.TotalRecords();
    }

    std::vector<std::string> raw;
    t.env->set_capture(&raw);
    Result<std::vector<msv::core::LeafData>> again = tree.ReadLeaves(chunk);
    t.env->set_capture(nullptr);
    MSV_RETURN_IF_ERROR(again.status());
    ScopedSpan span(t.log, "util.crc32c");
    for (const std::string& blob : raw) {
      // A leaf blob ends in the masked CRC32C of the bytes before it.
      if (blob.size() < 4) continue;
      const uint32_t stored =
          msv::UnmaskCrc(msv::DecodeFixed32(blob.data() + blob.size() - 4));
      if (msv::Crc32c(blob.data(), blob.size() - 4) != stored) {
        ++totals->crc_mismatches;
      }
    }
  }
  return Status::OK();
}

Status ProbeRead(const ProbeTarget& t, uint64_t stmt, const ReadStmt& read,
                 ProbeTotals* totals) {
  ScopedSpan root(t.log, "probe", stmt);
  Result<msv::query::Statement> parsed = [&] {
    ScopedSpan span(t.log, "query.parse");
    return msv::query::ParseOne(read.text);
  }();
  MSV_RETURN_IF_ERROR(parsed.status());
  {
    ScopedSpan span(t.log, "query.execute");
    MSV_RETURN_IF_ERROR(t.executor->Execute(*parsed).status());
  }
  if (t.client != nullptr) {
    ScopedSpan span(t.log, "serve.call");
    MSV_RETURN_IF_ERROR(t.client->Call(read.text).status());
  }

  // The executor's read path, step by step, on the same view.
  const msv::sampling::RangeQuery query =
      msv::sampling::RangeQuery::OneDim(read.lo, read.hi);
  const uint64_t seed = 0x9e3779b97f4a7c15ULL * stmt + 1;
  std::shared_ptr<const msv::core::AceTree> tree;
  std::unique_ptr<msv::core::ViewSampler> sampler;
  uint64_t population = 0;
  {
    ScopedSpan span(t.log, "core.plan");
    tree = t.view->tree();
    MSV_ASSIGN_OR_RETURN(population, tree->EstimateMatchCount(query));
    MSV_ASSIGN_OR_RETURN(sampler, t.view->Sample(query, seed));
  }
  const bool estimate = read.kind != ReadKind::kSample100;
  msv::sampling::StoppingRule::Options rule_options;
  if (read.kind == ReadKind::kEstimateWithin) rule_options.rel_error_pct = 5.0;
  const msv::sampling::StoppingRule rule(rule_options);
  msv::sampling::OnlineAggregator agg(
      msv::storage::FieldAccessor::Double(
          msv::storage::SaleRecord::kAmountOffset),
      population, 0.95);
  uint64_t rows = 0;
  while (!sampler->done() && rows < read.limit()) {
    Result<msv::sampling::SampleBatch> batch = [&] {
      ScopedSpan span(t.log, "core.next_batch");
      return sampler->NextBatch();
    }();
    MSV_RETURN_IF_ERROR(batch.status());
    rows += std::min<uint64_t>(batch->count(), read.limit() - rows);
    if (!estimate) continue;
    {
      ScopedSpan span(t.log, "sampling.aggregate");
      agg.Consume(*batch);
    }
    if (rule.active() && rule.Check(agg.Avg()) !=
                             msv::sampling::StoppingRule::Verdict::kContinue) {
      break;
    }
  }
  const uint64_t leaves = sampler->base_leaves_read();
  totals->rows += rows;
  ++totals->statements;

  // The same rows through a fresh ViewSampler and through a bare
  // AceSampler on the same tree, query and seed; set-up is not timed.
  {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<msv::core::ViewSampler> view_drain,
                         t.view->Sample(query, seed));
    ScopedSpan span(t.log, "core.view_drain");
    MSV_RETURN_IF_ERROR(Pull(view_drain.get(), rows));
  }
  {
    msv::core::AceSampler bare(tree.get(), query, seed);
    ScopedSpan span(t.log, "core.bare_drain");
    MSV_RETURN_IF_ERROR(Pull(&bare, rows));
  }
  return ProbeLeaves(t, *tree, query, leaves, totals);
}

/// Median over statements of each statement's total in `name`, in µs.
double MedianUs(const std::map<uint64_t, int64_t>& by_stmt) {
  std::vector<double> us;
  for (const auto& [stmt, ns] : by_stmt) us.push_back(ns / 1e3);
  return Median(us);
}

/// Median over statements of (a - b), in µs; statements missing from `b`
/// count it as 0.
double MedianDiffUs(const std::map<uint64_t, int64_t>& a,
                    const std::map<uint64_t, int64_t>& b) {
  std::vector<double> us;
  for (const auto& [stmt, ns] : a) {
    auto it = b.find(stmt);
    us.push_back((ns - (it != b.end() ? it->second : 0)) / 1e3);
  }
  return Median(us);
}

}  // namespace

Result<std::unique_ptr<msv::core::MaterializedSampleView>> OpenProbeView(
    msv::io::Env* env) {
  msv::core::MaterializedSampleView::Options options;
  options.build.key_dims = 1;
  options.ingest.background_compaction = false;
  return msv::core::MaterializedSampleView::Open(
      env, kViewFile, msv::storage::SaleRecord::Layout1D(), options);
}

Status ProbeReads(const ProbeTarget& target,
                  const std::vector<std::pair<uint64_t, ReadStmt>>& reads,
                  double budget_s, size_t min_count, Report* report) {
  ProbeTotals totals;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < reads.size(); ++i) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (i >= min_count && elapsed >= budget_s) break;
    MSV_RETURN_IF_ERROR(
        ProbeRead(target, reads[i].first, reads[i].second, &totals));
  }
  if (totals.crc_mismatches != 0) report->CheckFailed("leaf CRC mismatch");

  const SpanIndex index(target.log->Snapshot());
  auto sum = [&](const char* name) {
    return index.SumByStatement(name, false);
  };
  report->Metric("probe.statements", static_cast<double>(totals.statements),
                 "count");
  report->Metric("query.parse_us", MedianUs(sum("query.parse")), "us");
  const auto execute = sum("query.execute");
  report->Metric("query.execute_us", MedianUs(execute), "us");
  const auto call = sum("serve.call");
  if (!call.empty()) {
    report->Metric("serve.overhead_us", MedianUs(call) - MedianUs(execute),
                   "us");
  }
  report->Metric("core.plan_us", MedianUs(sum("core.plan")), "us");
  report->Metric("core.next_batch_us", MedianUs(sum("core.next_batch")), "us");
  report->Metric("core.view_overhead_us",
                 MedianDiffUs(sum("core.view_drain"), sum("core.bare_drain")),
                 "us");
  const auto crc = sum("util.crc32c");
  report->Metric("core.leaf_read_us", MedianUs(sum("core.leaf_read")), "us");
  // Decode is what ReadLeaves spends outside the io layer's reads, less
  // the checksum.
  const auto leaf_read_self = index.SumByStatement("core.leaf_read", true);
  report->Metric("core.leaf_decode_us", MedianDiffUs(leaf_read_self, crc),
                 "us");
  report->Metric("util.crc32c_us", MedianUs(crc), "us");
  report->Metric("sampling.filter_us", MedianUs(sum("sampling.filter")), "us");
  report->Metric("sampling.aggregate_us", MedianUs(sum("sampling.aggregate")),
                 "us");
  report->Metric("core.rows_read_per_row",
                 static_cast<double>(totals.leaf_records) /
                     static_cast<double>(std::max<uint64_t>(1, totals.rows)),
                 "ratio");
  return Status::OK();
}

Status ProbeWritePath(uint64_t seed, const std::vector<uint64_t>& insert_seeds,
                      uint64_t rows, SpanLog* log, Report* report) {
  // Half a memtable per explicit Flush, so no insert flushes inline, and
  // one Compact per four runs (the background trigger).
  const size_t inserts_per_flush = std::max<size_t>(1, 2048 / rows);
  constexpr size_t kFlushesPerCompact = 4;

  std::unique_ptr<msv::io::Env> env = msv::io::NewMemEnv();
  msv::relation::SaleGenOptions gen;
  gen.num_records = 200000;
  gen.seed = seed;
  MSV_RETURN_IF_ERROR(
      msv::relation::GenerateSaleRelation(env.get(), "tbl.p", gen));
  msv::core::MaterializedSampleView::Options options;
  options.build.key_dims = 1;
  options.ingest.background_compaction = false;
  MSV_ASSIGN_OR_RETURN(
      std::unique_ptr<msv::core::MaterializedSampleView> view,
      msv::core::MaterializedSampleView::Create(
          env.get(), "view.p", "tbl.p", msv::storage::SaleRecord::Layout1D(),
          options));

  std::string batch;
  uint64_t next_row = gen.num_records;
  size_t flushes = 0;
  for (size_t i = 0; i < insert_seeds.size(); ++i) {
    msv::Pcg64 rng(insert_seeds[i]);
    batch.clear();
    char buf[msv::storage::SaleRecord::kSize];
    for (uint64_t r = 0; r < rows; ++r) {
      msv::storage::SaleRecord rec;
      rec.day = rng.DoubleInRange(0, kDayDomain);
      rec.amount = rng.DoubleInRange(0, 10000.0);
      rec.cust = rng.Below(1'000'000);
      rec.part = rng.Below(200'000);
      rec.supp = rng.Below(10'000);
      rec.row_id = next_row++;
      rec.EncodeTo(buf);
      batch.append(buf, sizeof(buf));
    }
    const uint64_t stmt = NextStatementId();
    {
      ScopedSpan span(log, "core.insert", stmt);
      MSV_RETURN_IF_ERROR(view->Insert(batch.data(), rows));
    }
    if ((i + 1) % inserts_per_flush != 0) continue;
    {
      ScopedSpan span(log, "core.flush", stmt);
      MSV_RETURN_IF_ERROR(view->Flush());
    }
    if (++flushes % kFlushesPerCompact != 0) continue;
    ScopedSpan span(log, "core.compact", stmt);
    MSV_RETURN_IF_ERROR(view->Compact());
  }
  const SpanIndex index(log->Snapshot());
  report->Metric("core.insert_us",
                 MedianUs(index.SumByStatement("core.insert", false)), "us");
  report->Metric("core.flush_us",
                 MedianUs(index.SumByStatement("core.flush", false)), "us");
  report->Metric("core.compact_us",
                 MedianUs(index.SumByStatement("core.compact", false)), "us");
  return Status::OK();
}

}  // namespace perfbench
