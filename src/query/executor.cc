#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "io/disk_model.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "query/format.h"
#include "query/parser.h"
#include "relation/sale_generator.h"
#include "sampling/grouped_aggregator.h"
#include "sampling/online_aggregator.h"
#include "sampling/stopping_rule.h"
#include "storage/heap_file.h"
#include "util/random.h"

namespace msv::query {

namespace {

/// Compiles a schema column reference down to the inlineable accessor the
/// aggregators consume batches through (offset + kind; no per-record
/// std::function dispatch). nullptr means COUNT-style "1 per record".
storage::FieldAccessor AccessorFor(const Column* column) {
  if (column == nullptr) return storage::FieldAccessor::ConstOne();
  switch (column->type) {
    case ColumnType::kDouble:
      return storage::FieldAccessor::Double(column->offset);
    case ColumnType::kUint64:
      return storage::FieldAccessor::Uint64(column->offset);
  }
  return storage::FieldAccessor::ConstOne();
}

const char* StatementName(const Statement& statement) {
  return std::visit(
      [](const auto& stmt) -> const char* {
        using T = std::decay_t<decltype(stmt)>;
        if constexpr (std::is_same_v<T, GenerateTableStmt>) {
          return "generate";
        } else if constexpr (std::is_same_v<T, CreateViewStmt>) {
          return "create_view";
        } else if constexpr (std::is_same_v<T, SampleStmt>) {
          return "sample";
        } else if constexpr (std::is_same_v<T, EstimateStmt>) {
          return "estimate";
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return "insert";
        } else if constexpr (std::is_same_v<T, RebuildStmt>) {
          return "rebuild";
        } else if constexpr (std::is_same_v<T, DropViewStmt>) {
          return "drop_view";
        } else if constexpr (std::is_same_v<T, ExplainStmt>) {
          return "explain";
        } else {
          return "show";
        }
      },
      statement);
}

/// True for statements that mutate the catalog, a view, or a table (and
/// so need the exclusive statement lock). EXPLAIN is classified by the
/// statement it wraps: EXPLAIN ANALYZE executes the inner statement.
bool IsWriteStatement(const Statement& statement) {
  const Statement* cur = &statement;
  while (const ExplainStmt* e = std::get_if<ExplainStmt>(cur)) {
    if (e->inner == nullptr) return false;
    cur = e->inner.get();
  }
  return std::holds_alternative<GenerateTableStmt>(*cur) ||
         std::holds_alternative<CreateViewStmt>(*cur) ||
         std::holds_alternative<InsertStmt>(*cur) ||
         std::holds_alternative<RebuildStmt>(*cur) ||
         std::holds_alternative<DropViewStmt>(*cur);
}

std::string DescribeQuery(const ViewInfo& info,
                          const sampling::RangeQuery& query) {
  std::string out;
  for (size_t d = 0; d < info.index_columns.size(); ++d) {
    if (std::isinf(query.bounds[d].lo) && std::isinf(query.bounds[d].hi)) {
      continue;
    }
    if (!out.empty()) out += " AND ";
    out += info.index_columns[d] + " in [" + Fixed4(query.bounds[d].lo) +
           ", " + Fixed4(query.bounds[d].hi) + "]";
  }
  if (out.empty()) out = "(unbounded)";
  return out;
}

}  // namespace

Executor::Executor(io::Env* env, std::unique_ptr<Catalog> catalog)
    : env_(env), catalog_(std::move(catalog)) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  c_statements_ = reg.GetCounter("query.statements");
  c_errors_ = reg.GetCounter("query.errors");
  h_statement_us_ = reg.GetHistogram("query.statement_us");
}

Result<std::unique_ptr<Executor>> Executor::Open(
    io::Env* env, const std::string& catalog_file) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                       Catalog::Open(env, catalog_file));
  // Serving picks the slow-query threshold up from the environment
  // without any explicit opt-in at the call sites.
  obs::SlowQueryLog::Global().ArmFromEnv();
  return std::unique_ptr<Executor>(new Executor(env, std::move(catalog)));
}

Result<std::string> Executor::Run(const std::string& script) {
  MSV_ASSIGN_OR_RETURN(std::vector<Statement> statements, Parse(script));

  // MSV_TRACE=path.json traces every statement of the script and appends
  // one JSON trace document to the file, even without EXPLAIN ANALYZE.
  // (Skipped when a tracer is already installed, e.g. by a test harness.)
  // Read-only env lookup; the process never calls setenv concurrently.
  const bool want_trace =
      std::getenv("MSV_TRACE") != nullptr &&  // NOLINT(concurrency-mt-unsafe)
      obs::Tracer::Active() == nullptr;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::ScopedTracer> scoped;
  if (want_trace) {
    tracer = std::make_unique<obs::Tracer>();
    scoped = std::make_unique<obs::ScopedTracer>(tracer.get());
  }

  std::string out;
  for (const Statement& statement : statements) {
    MSV_ASSIGN_OR_RETURN(std::string one, Execute(statement));
    out += one;
  }

  if (want_trace) {
    scoped.reset();
    obs::ExportTraceIfRequested(*tracer);
  }
  return out;
}

Result<std::string> Executor::Execute(const Statement& statement) {
  if (IsWriteStatement(statement)) {
    WriterLock lock(stmt_mu_);
    return ExecuteLocked(statement);
  }
  ReaderLock lock(stmt_mu_);
  return ExecuteLocked(statement);
}

Result<std::string> Executor::ExecuteLocked(const Statement& statement) {
  // Root span per statement. Inert (free) unless a tracer is installed —
  // by EXPLAIN ANALYZE, by the MSV_TRACE hook in Run(), or by a caller.
  obs::Span span =
      obs::StartTraceSpan(std::string("query.") + StatementName(statement));
  c_statements_->Add();
  // The ledger is reset unconditionally: the serving layer reads the
  // estimate block after every statement, armed or not.
  obs::ThreadStatementLedger().Reset();
  // Every statement is timed into query.statement_us; a slow-query
  // record is built only when the log is armed and the threshold is met.
  const uint64_t disk_before = io::ThreadDiskBusyUs();
  const auto start = std::chrono::steady_clock::now();
  Result<std::string> result = Dispatch(statement);
  if (!result.ok()) c_errors_->Add();
  const uint64_t wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  h_statement_us_->Record(wall_us);
  obs::SlowQueryLog& slow = obs::SlowQueryLog::Global();
  if (slow.armed() && wall_us >= slow.threshold_us()) {
    const obs::StatementLedger& ledger = obs::ThreadStatementLedger();
    obs::SlowQueryRecord rec;
    rec.ts_us = obs::WallTimeUs();
    rec.wall_us = wall_us;
    rec.disk_us = io::ThreadDiskBusyUs() - disk_before;
    rec.leaves = ledger.leaves;
    rec.samples = ledger.samples;
    rec.ci_half_width = ledger.ci_half_width;
    rec.statement = StatementName(statement);
    rec.session = obs::ThreadLabel();
    rec.ok = result.ok();
    if (!result.ok()) rec.error = result.status().ToString();
    slow.Record(std::move(rec));
  }
  return result;
}

Result<std::string> Executor::Dispatch(const Statement& statement) {
  // Dispatch by get_if rather than std::visit: the visitor lambda would
  // be analyzed as a separate function without this method's stmt_mu_
  // context, so the REQUIRES_SHARED callees would warn under
  // -Wthread-safety.
  if (const auto* s = std::get_if<GenerateTableStmt>(&statement)) {
    return ExecGenerate(*s);
  }
  if (const auto* s = std::get_if<CreateViewStmt>(&statement)) {
    return ExecCreateView(*s);
  }
  if (const auto* s = std::get_if<SampleStmt>(&statement)) {
    return ExecSample(*s);
  }
  if (const auto* s = std::get_if<EstimateStmt>(&statement)) {
    return ExecEstimate(*s);
  }
  if (const auto* s = std::get_if<InsertStmt>(&statement)) {
    return ExecInsert(*s);
  }
  if (const auto* s = std::get_if<RebuildStmt>(&statement)) {
    return ExecRebuild(*s);
  }
  if (const auto* s = std::get_if<DropViewStmt>(&statement)) {
    return ExecDropView(*s);
  }
  if (const auto* s = std::get_if<ExplainStmt>(&statement)) {
    return ExecExplain(*s);
  }
  return ExecShow(std::get<ShowStmt>(statement));
}

Result<std::string> Executor::ExecExplain(const ExplainStmt& stmt) {
  if (stmt.inner == nullptr) {
    return Status::InvalidArgument("EXPLAIN needs a statement");
  }
  if (!stmt.analyze) return ExplainPlan(*stmt.inner);

  obs::Tracer tracer;
  std::string result;
  {
    obs::ScopedTracer scoped(&tracer);
    // The statement lock is already held (Execute classified this EXPLAIN
    // by its inner statement), so dispatch without re-locking.
    MSV_ASSIGN_OR_RETURN(result, ExecuteLocked(*stmt.inner));
  }
  obs::ExportTraceIfRequested(tracer);
  return result + "-- EXPLAIN ANALYZE --\n" + tracer.ToTree();
}

Result<std::string> Executor::ExplainPlan(const Statement& statement) {
  std::string out = std::string("EXPLAIN ") + StatementName(statement) + "\n";
  const SampleStmt* sample = std::get_if<SampleStmt>(&statement);
  const EstimateStmt* estimate = std::get_if<EstimateStmt>(&statement);
  const std::string* view_name =
      sample ? &sample->view : estimate ? &estimate->view : nullptr;
  if (view_name == nullptr) {
    out += "  (no plan details for this statement kind)\n";
    return out;
  }
  MSV_ASSIGN_OR_RETURN(core::MaterializedSampleView* view,
                       GetView(*view_name));
  const ViewInfo* info = catalog_->FindView(*view_name);
  MSV_ASSIGN_OR_RETURN(
      sampling::RangeQuery query,
      BuildQuery(*info, sample ? sample->predicates : estimate->predicates));
  // The count is the population ESTIMATE scales by: one sampler
  // snapshot, never pulled, so no leaf is read. A fixed seed leaves
  // next_seed_, and so every later statement's stream, untouched.
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<core::ViewSampler> sampler,
                       view->Sample(query, /*seed=*/0));
  const std::shared_ptr<const core::AceTree> tree = view->tree();
  const core::AceMeta& meta = tree->meta();
  out += "  view=" + *view_name +
         " base_records=" + std::to_string(view->base_records()) +
         " delta_records=" + std::to_string(view->delta_records()) + "\n";
  out += "  ace_tree: height=" + std::to_string(meta.height) +
         " leaves=" + std::to_string(meta.num_leaves) +
         " page_size=" + std::to_string(meta.page_size) + "\n";
  out += "  range: " + DescribeQuery(*info, query) + "\n";
  out += "  estimated matches (base index count + delta): " +
         std::to_string(sampler->population()) + "\n";
  return out;
}

Result<std::string> Executor::ExecGenerate(const GenerateTableStmt& stmt) {
  relation::SaleGenOptions options;
  options.num_records = stmt.rows;
  options.seed = stmt.seed;
  const std::string file = "tbl." + stmt.table;
  MSV_RETURN_IF_ERROR(relation::GenerateSaleRelation(env_, file, options));
  MSV_RETURN_IF_ERROR(
      catalog_->AddTable(stmt.table, file, &TableSchema::Sale()));
  return "generated table " + stmt.table + " with " +
         std::to_string(stmt.rows) + " rows\n";
}

Result<std::string> Executor::ExecCreateView(const CreateViewStmt& stmt) {
  const TableInfo* table = catalog_->FindTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt.table);
  }
  if (catalog_->FindView(stmt.view) != nullptr) {
    return Status::InvalidArgument("view already exists: " + stmt.view);
  }
  ViewInfo info{stmt.view, stmt.table, stmt.index_columns};
  MSV_ASSIGN_OR_RETURN(storage::RecordLayout layout,
                       catalog_->ViewLayout(info));

  core::MaterializedSampleView::Options options;
  options.build.key_dims = static_cast<uint32_t>(stmt.index_columns.size());
  MSV_ASSIGN_OR_RETURN(
      std::unique_ptr<core::MaterializedSampleView> view,
      core::MaterializedSampleView::Create(env_, "view." + stmt.view,
                                           table->file, layout, options));
  MSV_RETURN_IF_ERROR(catalog_->AddView(info));
  std::string out = "created materialized sample view " + stmt.view +
                    " over " + stmt.table + " (" +
                    std::to_string(view->base_records()) + " rows, height " +
                    std::to_string(view->tree()->meta().height) + ")\n";
  {
    MutexLock lock(views_mu_);
    open_views_[stmt.view] = std::move(view);
  }
  return out;
}

Result<core::MaterializedSampleView*> Executor::GetView(
    const std::string& name) {
  // Held across the open so two readers racing on a cold view cannot
  // both open it (the loser's handle would invalidate the winner's raw
  // pointer). Opens are rare; the hit path is one map lookup.
  MutexLock lock(views_mu_);
  auto it = open_views_.find(name);
  if (it != open_views_.end()) return it->second.get();
  const ViewInfo* info = catalog_->FindView(name);
  if (info == nullptr) {
    return Status::NotFound("no such view: " + name);
  }
  MSV_ASSIGN_OR_RETURN(storage::RecordLayout layout,
                       catalog_->ViewLayout(*info));
  core::MaterializedSampleView::Options options;
  options.build.key_dims = static_cast<uint32_t>(info->index_columns.size());
  MSV_ASSIGN_OR_RETURN(
      std::unique_ptr<core::MaterializedSampleView> view,
      core::MaterializedSampleView::Open(env_, "view." + name, layout,
                                         options));
  core::MaterializedSampleView* raw = view.get();
  open_views_[name] = std::move(view);
  return raw;
}

Result<sampling::RangeQuery> Executor::BuildQuery(
    const ViewInfo& view,
    const std::vector<BetweenPredicate>& predicates) const {
  sampling::RangeQuery query;
  query.dims = view.index_columns.size();
  for (const BetweenPredicate& pred : predicates) {
    bool found = false;
    for (size_t d = 0; d < view.index_columns.size(); ++d) {
      if (view.index_columns[d] == pred.column) {
        query.bounds[d] = sampling::Interval{pred.lo, pred.hi};
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::NotSupported(
          "predicate on non-indexed column '" + pred.column +
          "' (view indexes: sample from an indexed range, then filter)");
    }
  }
  return query;
}

Result<std::string> Executor::ExecSample(const SampleStmt& stmt) {
  MSV_ASSIGN_OR_RETURN(core::MaterializedSampleView* view,
                       GetView(stmt.view));
  const ViewInfo* info = catalog_->FindView(stmt.view);
  MSV_ASSIGN_OR_RETURN(sampling::RangeQuery query,
                       BuildQuery(*info, stmt.predicates));
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<core::ViewSampler> sampler,
                       view->Sample(query, ++next_seed_));

  const TableInfo* table = catalog_->FindTable(info->table);
  const TableSchema& schema = *table->schema;

  // Header row, then one appended row per sample: the answer is built in
  // one string, with no per-row temporaries.
  std::string out;
  for (size_t c = 0; c < schema.columns.size(); ++c) {
    if (c) out += " | ";
    out += schema.columns[c].name;
  }
  out += '\n';
  uint64_t emitted = 0;
  while (!sampler->done() && emitted < stmt.limit) {
    MSV_ASSIGN_OR_RETURN(sampling::SampleBatch batch, sampler->NextBatch());
    for (size_t i = 0; i < batch.count() && emitted < stmt.limit; ++i) {
      AppendRow(&out, schema, batch.record(i));
      ++emitted;
    }
  }
  out += "(" + std::to_string(emitted) + " random sample" +
         (emitted == 1 ? "" : "s") + ")\n";
  obs::StatementLedger& ledger = obs::ThreadStatementLedger();
  ledger.samples = emitted;
  ledger.leaves = sampler->base_leaves_read();
  return out;
}

Result<std::string> Executor::ExecEstimate(const EstimateStmt& stmt) {
  MSV_ASSIGN_OR_RETURN(core::MaterializedSampleView* view,
                       GetView(stmt.view));
  const ViewInfo* info = catalog_->FindView(stmt.view);
  MSV_ASSIGN_OR_RETURN(sampling::RangeQuery query,
                       BuildQuery(*info, stmt.predicates));

  const TableInfo* table = catalog_->FindTable(info->table);
  const TableSchema& schema = *table->schema;
  const Column* column = nullptr;
  if (stmt.agg != EstimateStmt::Agg::kCount) {
    column = schema.Find(stmt.column);
    if (column == nullptr) {
      return Status::InvalidArgument("no such column: " + stmt.column);
    }
  }

  const bool bounded = stmt.within_pct > 0.0 || stmt.within_ms > 0;
  // The parser caps within_ms at 2^53, so the product cannot wrap.
  const uint64_t deadline_us = stmt.within_ms * 1000;
  if (stmt.within_pct > 0.0 && !stmt.group_by.empty()) {
    return Status::NotSupported(
        "WITHIN % with GROUP BY is not supported (no single interval to "
        "bound); use a WITHIN ... MS deadline instead");
  }
  // The WITHIN budget starts before the first I/O: it covers sampling,
  // not planning. Wall clock plus this thread's modeled-disk delta.
  const uint64_t disk_before = io::ThreadDiskBusyUs();
  sampling::StoppingRule::Options rule_options;
  rule_options.rel_error_pct = stmt.within_pct;
  rule_options.deadline_us = deadline_us;
  rule_options.extra_elapsed_us = [disk_before] {
    return io::ThreadDiskBusyUs() - disk_before;
  };
  const sampling::StoppingRule rule(rule_options);
  // An explicit SAMPLES n stays a hard cap; the historical default cap
  // of 1000 is lifted when a WITHIN bound decides when to stop.
  uint64_t target = stmt.samples;
  if (bounded && !stmt.samples_set) {
    target = std::numeric_limits<uint64_t>::max();
  }

  // The population SUM/COUNT scale by is the sampler's own snapshot: the
  // base's internal-node count plus the exact run and memtable matches.
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<core::ViewSampler> sampler,
                       view->Sample(query, ++next_seed_));
  const uint64_t population = sampler->population();

  if (!stmt.group_by.empty()) {
    const Column* group_column = schema.Find(stmt.group_by);
    if (group_column == nullptr) {
      return Status::InvalidArgument("no such column: " + stmt.group_by);
    }
    if (group_column->type != ColumnType::kUint64) {
      return Status::NotSupported("GROUP BY needs an integer column");
    }
    sampling::GroupedAggregator agg(AccessorFor(group_column),
                                    AccessorFor(column), population,
                                    stmt.confidence);
    bool deadline_hit = false;
    while (!sampler->done() && agg.samples_seen() < target) {
      MSV_ASSIGN_OR_RETURN(sampling::SampleBatch batch, sampler->NextBatch());
      agg.Consume(batch);
      if (rule.active() && rule.Check(sampling::Estimate{}) ==
                               sampling::StoppingRule::Verdict::kDeadlineHit) {
        deadline_hit = true;
        break;
      }
    }
    auto groups = agg.Groups();
    std::string out;
    const size_t shown = std::min<size_t>(groups.size(), 12);
    for (size_t i = 0; i < shown; ++i) {
      const auto& g = groups[i];
      out += stmt.group_by + "=" + std::to_string(g.group) + "  ";
      const sampling::Estimate* e = &g.count;
      switch (stmt.agg) {
        case EstimateStmt::Agg::kAvg:
          out += "AVG(" + stmt.column + ")";
          e = &g.avg;
          break;
        case EstimateStmt::Agg::kSum:
          out += "SUM(" + stmt.column + ")";
          e = &g.sum;
          break;
        case EstimateStmt::Agg::kCount:
          out += "COUNT(*)";
          break;
      }
      out += " = " + Fixed4(e->value) + " +/- " + Fixed4(e->half_width) +
             "  (" + std::to_string(g.samples) + " samples)\n";
    }
    if (groups.size() > shown) {
      out += "... and " + std::to_string(groups.size() - shown) +
             " more groups\n";
    }
    out += "(" + std::to_string(groups.size()) + " groups, " +
           std::to_string(agg.samples_seen()) + " samples total)\n";
    obs::StatementLedger& ledger = obs::ThreadStatementLedger();
    ledger.samples = agg.samples_seen();
    ledger.leaves = sampler->base_leaves_read();
    if (bounded) {
      ledger.deadline_us = deadline_us;
      ledger.elapsed_us = rule.ElapsedUs();
      ledger.is_partial = deadline_hit && !sampler->done();
      if (ledger.is_partial) {
        out += "bound: deadline " + std::to_string(stmt.within_ms) +
               " ms hit after " + std::to_string(agg.samples_seen()) +
               " samples (partial)\n";
      }
    }
    return out;
  }

  if (stmt.agg == EstimateStmt::Agg::kCount) {
    std::string out = "COUNT(*) ~ " + std::to_string(population) + "\n";
    // COUNT(*) is answered from the counts without sampling: any WITHIN
    // bound is trivially met and the result is never partial.
    obs::StatementLedger& ledger = obs::ThreadStatementLedger();
    ledger.has_estimate = true;
    ledger.estimate_value = static_cast<double>(population);
    ledger.confidence = stmt.confidence;
    ledger.target_rel_pct = stmt.within_pct;
    ledger.deadline_us = deadline_us;
    if (bounded) ledger.elapsed_us = rule.ElapsedUs();
    return out;
  }

  sampling::OnlineAggregator agg(AccessorFor(column), population,
                                 stmt.confidence);
  // The stopping rule is checked once per batch: a deadline can overshoot
  // by at most one batch's cost, an error bound by one batch of samples.
  auto verdict = sampling::StoppingRule::Verdict::kContinue;
  while (!sampler->done() && agg.samples_seen() < target) {
    MSV_ASSIGN_OR_RETURN(sampling::SampleBatch batch, sampler->NextBatch());
    agg.Consume(batch);
    if (rule.active()) {
      verdict = rule.Check(stmt.agg == EstimateStmt::Agg::kAvg ? agg.Avg()
                                                               : agg.Sum());
      if (verdict != sampling::StoppingRule::Verdict::kContinue) break;
    }
  }

  obs::StatementLedger& ledger = obs::ThreadStatementLedger();
  sampling::Estimate e =
      stmt.agg == EstimateStmt::Agg::kAvg ? agg.Avg() : agg.Sum();
  std::string out =
      (stmt.agg == EstimateStmt::Agg::kAvg ? "AVG(" : "SUM(") + stmt.column +
      ") = " + Fixed4(e.value) + " +/- " + Fixed4(e.half_width) + " (" +
      std::to_string(static_cast<int>(stmt.confidence * 100)) + "% CI, " +
      std::to_string(e.samples) + " samples)\n";
  ledger.ci_half_width = e.half_width;
  ledger.samples = agg.samples_seen();
  ledger.leaves = sampler->base_leaves_read();
  ledger.has_estimate = true;
  ledger.estimate_value = e.value;
  ledger.confidence = stmt.confidence;
  if (bounded) {
    ledger.target_rel_pct = stmt.within_pct;
    ledger.deadline_us = deadline_us;
    ledger.elapsed_us = rule.ElapsedUs();
    // A deadline stop with samples still in the stream is a partial
    // result: the CI is valid over what was consumed, just wider than an
    // uninterrupted run would have reached.
    ledger.is_partial =
        verdict == sampling::StoppingRule::Verdict::kDeadlineHit &&
        !sampler->done();
    const double achieved_pct =
        e.value != 0.0 ? 100.0 * e.half_width / std::fabs(e.value) : 0.0;
    if (ledger.is_partial) {
      out += "bound: deadline " + std::to_string(stmt.within_ms) +
             " ms hit after " + std::to_string(e.samples) +
             " samples (partial, achieved +/- " + Fixed4(achieved_pct) +
             "%)\n";
    } else if (verdict == sampling::StoppingRule::Verdict::kErrorBoundMet) {
      out += "bound: within " + Fixed4(stmt.within_pct) + "% met after " +
             std::to_string(e.samples) + " samples (achieved +/- " +
             Fixed4(achieved_pct) + "%)\n";
    } else {
      out += "bound: stream complete after " + std::to_string(e.samples) +
             " samples (exact answer)\n";
    }
  }
  return out;
}

Result<std::string> Executor::ExecInsert(const InsertStmt& stmt) {
  MSV_ASSIGN_OR_RETURN(core::MaterializedSampleView* view,
                       GetView(stmt.view));
  // Generate fresh SALE rows (row ids continue after every stored row).
  // INSERTs are write statements and run one at a time, so no other
  // insert can claim these ids before view->Insert() below.
  Pcg64 rng(stmt.seed);
  std::string batch;
  char buf[storage::SaleRecord::kSize];
  uint64_t next_row = view->total_records();
  for (uint64_t i = 0; i < stmt.rows; ++i) {
    storage::SaleRecord rec;
    rec.day = rng.DoubleInRange(0, 100000.0);
    rec.amount = rng.DoubleInRange(0, 10000.0);
    rec.cust = rng.Below(1'000'000);
    rec.part = rng.Below(200'000);
    rec.supp = rng.Below(10'000);
    rec.row_id = next_row + i;
    rec.EncodeTo(buf);
    batch.append(buf, sizeof(buf));
  }
  MSV_RETURN_IF_ERROR(view->Insert(batch.data(), stmt.rows));
  return "inserted " + std::to_string(stmt.rows) + " rows into " + stmt.view +
         " (delta now " + std::to_string(view->delta_records()) + " rows" +
         (view->NeedsRebuild() ? "; REBUILD recommended" : "") + ")\n";
}

Result<std::string> Executor::ExecRebuild(const RebuildStmt& stmt) {
  MSV_ASSIGN_OR_RETURN(core::MaterializedSampleView* view,
                       GetView(stmt.view));
  MSV_RETURN_IF_ERROR(view->Rebuild());
  return "rebuilt " + stmt.view + " (" +
         std::to_string(view->base_records()) +
         " rows in the base tree, empty delta)\n";
}

Result<std::string> Executor::ExecDropView(const DropViewStmt& stmt) {
  if (catalog_->FindView(stmt.view) == nullptr) {
    return Status::NotFound("no such view: " + stmt.view);
  }
  {
    MutexLock lock(views_mu_);
    open_views_.erase(stmt.view);
  }
  MSV_RETURN_IF_ERROR(catalog_->DropView(stmt.view));
  core::MaterializedSampleView::DropFiles(env_, "view." + stmt.view)
      .IgnoreError();  // best-effort file cleanup
  return "dropped view " + stmt.view + "\n";
}

Result<std::string> Executor::ExecShow(const ShowStmt& stmt) {
  std::string out;
  if (stmt.views) {
    for (const std::string& name : catalog_->ViewNames()) {
      const ViewInfo* view = catalog_->FindView(name);
      out += name + " ON " + view->table + " INDEX ON";
      for (const std::string& column : view->index_columns) {
        out += " " + column;
      }
      out += "\n";
    }
    if (catalog_->ViewNames().empty()) out += "(no views)\n";
  } else {
    for (const std::string& name : catalog_->TableNames()) {
      out += name + "\n";
    }
    if (catalog_->TableNames().empty()) out += "(no tables)\n";
  }
  return out;
}

}  // namespace msv::query
