// Bounded-error (WITHIN x%) and bounded-time (WITHIN t MS) ESTIMATE
// semantics:
//
//   * Grammar — the WITHIN clauses parse into EstimateStmt with strict
//     validation (range, integrality, duplicates).
//   * StoppingRule — the pure stopping predicate: warm-up gate, relative
//     error against |value|, deadline-first precedence, zero-value edge.
//   * Coverage — over 200 seeded runs, the CI produced when the rule
//     stops at "error bound met" contains the exact answer at (within
//     binomial tolerance of) the nominal confidence, and early stopping
//     does not bias the point estimate. Mirrors the harness style of
//     statistical_test.cc: fresh build seed per run, ground truth by
//     heap scan.
//   * Executor plumbing — bound-outcome output lines, the statement
//     ledger's estimate block, and the GROUP BY + WITHIN % rejection.

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "obs/log.h"
#include "query/executor.h"
#include "query/parser.h"
#include "relation/sale_generator.h"
#include "sampling/online_aggregator.h"
#include "sampling/stopping_rule.h"
#include "storage/record.h"
#include "storage/record_view.h"
#include "test_util.h"

namespace msv {
namespace {

using msv::testing::ValueOrDie;
using query::EstimateStmt;
using query::ParseOne;
using sampling::StoppingRule;
using storage::SaleRecord;

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

TEST(WithinGrammarTest, ErrorBoundClause) {
  auto stmt = std::get<EstimateStmt>(ValueOrDie(ParseOne(
      "ESTIMATE AVG(amount) FROM v WHERE day BETWEEN 1 AND 2 WITHIN 2%")));
  EXPECT_DOUBLE_EQ(stmt.within_pct, 2.0);
  EXPECT_EQ(stmt.within_ms, 0u);
  EXPECT_FALSE(stmt.samples_set);
}

TEST(WithinGrammarTest, DeadlineClause) {
  auto stmt = std::get<EstimateStmt>(ValueOrDie(ParseOne(
      "ESTIMATE SUM(amount) FROM v WHERE day BETWEEN 1 AND 2 WITHIN 500 MS")));
  EXPECT_DOUBLE_EQ(stmt.within_pct, 0.0);
  EXPECT_EQ(stmt.within_ms, 500u);
}

TEST(WithinGrammarTest, BothClausesEitherOrder) {
  auto stmt = std::get<EstimateStmt>(
      ValueOrDie(ParseOne("ESTIMATE AVG(amount) FROM v WHERE day BETWEEN 1 "
                          "AND 2 WITHIN 250 MS WITHIN 1.5%")));
  EXPECT_DOUBLE_EQ(stmt.within_pct, 1.5);
  EXPECT_EQ(stmt.within_ms, 250u);
}

TEST(WithinGrammarTest, ComposesWithSamplesAndConfidence) {
  auto stmt = std::get<EstimateStmt>(ValueOrDie(
      ParseOne("ESTIMATE AVG(amount) FROM v WHERE day BETWEEN 1 AND 2 "
               "SAMPLES 5000 CONFIDENCE 0.99 WITHIN 2%")));
  EXPECT_TRUE(stmt.samples_set);
  EXPECT_EQ(stmt.samples, 5000u);
  EXPECT_DOUBLE_EQ(stmt.confidence, 0.99);
  EXPECT_DOUBLE_EQ(stmt.within_pct, 2.0);
}

TEST(WithinGrammarTest, RejectsMalformedBounds) {
  const char* bad[] = {
      // Out-of-range error bounds.
      "ESTIMATE AVG(a) FROM v WHERE d BETWEEN 1 AND 2 WITHIN 0%",
      "ESTIMATE AVG(a) FROM v WHERE d BETWEEN 1 AND 2 WITHIN 100%",
      "ESTIMATE AVG(a) FROM v WHERE d BETWEEN 1 AND 2 WITHIN -3%",
      // Non-positive / fractional deadlines.
      "ESTIMATE AVG(a) FROM v WHERE d BETWEEN 1 AND 2 WITHIN 0 MS",
      "ESTIMATE AVG(a) FROM v WHERE d BETWEEN 1 AND 2 WITHIN 2.5 MS",
      // Missing unit, duplicate clauses.
      "ESTIMATE AVG(a) FROM v WHERE d BETWEEN 1 AND 2 WITHIN 2",
      "ESTIMATE AVG(a) FROM v WHERE d BETWEEN 1 AND 2 WITHIN 2% WITHIN 3%",
      "ESTIMATE AVG(a) FROM v WHERE d BETWEEN 1 AND 2 WITHIN 10 MS WITHIN "
      "20 MS",
  };
  for (const char* sql : bad) {
    EXPECT_FALSE(ParseOne(sql).ok()) << sql;
  }
}

TEST(WithinGrammarTest, DeadlineMustFitTwoToThe53Milliseconds) {
  // 1e309 lexes as inf, whose cast to uint64_t is undefined; 2^64 / 1000
  // ms passed the old check and its µs product wrapped to 384 µs.
  for (const char* sql :
       {"ESTIMATE AVG(a) FROM v WITHIN 1e309 MS",
        "ESTIMATE AVG(a) FROM v WITHIN 18446744073709552 MS",
        "ESTIMATE AVG(a) FROM v WITHIN 9007199254740994 MS"}) {
    auto stmt = ParseOne(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_TRUE(stmt.status().IsInvalidArgument()) << sql;
  }
  auto top = std::get<EstimateStmt>(ValueOrDie(
      ParseOne("ESTIMATE AVG(a) FROM v WITHIN 9007199254740992 MS")));
  EXPECT_EQ(top.within_ms, uint64_t{1} << 53);
}

// ---------------------------------------------------------------------------
// StoppingRule
// ---------------------------------------------------------------------------

sampling::Estimate MakeEstimate(double value, double half_width,
                                uint64_t samples) {
  sampling::Estimate e;
  e.value = value;
  e.half_width = half_width;
  e.samples = samples;
  return e;
}

TEST(StoppingRuleTest, InactiveWithoutBounds) {
  StoppingRule rule({});
  EXPECT_FALSE(rule.active());
  EXPECT_EQ(rule.Check(MakeEstimate(100, 0, 1000)),
            StoppingRule::Verdict::kContinue);
}

TEST(StoppingRuleTest, ErrorBoundAgainstRelativeWidth) {
  StoppingRule::Options options;
  options.rel_error_pct = 5.0;
  StoppingRule rule(options);
  EXPECT_TRUE(rule.active());
  // 4% relative width qualifies, 6% does not.
  EXPECT_EQ(rule.Check(MakeEstimate(100, 4, 1000)),
            StoppingRule::Verdict::kErrorBoundMet);
  EXPECT_EQ(rule.Check(MakeEstimate(100, 6, 1000)),
            StoppingRule::Verdict::kContinue);
}

TEST(StoppingRuleTest, WarmupGateBlocksEarlyTrigger) {
  StoppingRule::Options options;
  options.rel_error_pct = 5.0;
  StoppingRule rule(options);
  ASSERT_EQ(StoppingRule::kMinSamples, 30u);
  // A 1-sample "estimate" has half_width 0 — without the warm-up gate it
  // would satisfy any error bound instantly.
  EXPECT_EQ(rule.Check(MakeEstimate(100, 0, 1)),
            StoppingRule::Verdict::kContinue);
  EXPECT_EQ(rule.Check(MakeEstimate(100, 0, 30)),
            StoppingRule::Verdict::kErrorBoundMet);
}

TEST(StoppingRuleTest, ZeroValueNeedsZeroWidth) {
  StoppingRule::Options options;
  options.rel_error_pct = 5.0;
  StoppingRule rule(options);
  // Relative error is undefined at value == 0: only an exact (zero-width)
  // interval qualifies.
  EXPECT_EQ(rule.Check(MakeEstimate(0, 1, 1000)),
            StoppingRule::Verdict::kContinue);
  EXPECT_EQ(rule.Check(MakeEstimate(0, 0, 1000)),
            StoppingRule::Verdict::kErrorBoundMet);
}

TEST(StoppingRuleTest, DeadlineTakesPrecedence) {
  StoppingRule::Options options;
  options.rel_error_pct = 50.0;
  options.deadline_us = 1000;
  // Fake elapsed budget: the modeled-disk hook reports the deadline is
  // long blown, so even an estimate meeting the error bound reports the
  // deadline verdict (checked first).
  options.extra_elapsed_us = [] { return uint64_t{10'000'000}; };
  StoppingRule rule(options);
  EXPECT_EQ(rule.Check(MakeEstimate(100, 1, 1000)),
            StoppingRule::Verdict::kDeadlineHit);
}

// ---------------------------------------------------------------------------
// Coverage + unbiasedness over seeded runs
// ---------------------------------------------------------------------------

class BoundedCoverageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    relation::SaleGenOptions gen;
    gen.num_records = 2000;
    gen.seed = 7;
    ASSERT_TRUE(relation::GenerateSaleRelation(env_.get(), "sale", gen).ok());
    layout_ = SaleRecord::Layout1D();

    auto heap = ValueOrDie(storage::HeapFile::Open(env_.get(), "sale"));
    auto scanner = heap->NewScanner();
    for (uint64_t i = 0; i < heap->record_count(); ++i) {
      const char* rec = ValueOrDie(scanner.Next());
      SaleRecord r = SaleRecord::DecodeFrom(rec);
      if (r.day >= kLo && r.day <= kHi) {
        ++matching_;
        true_sum_ += r.amount;
      }
    }
    ASSERT_GT(matching_, 500u);
    true_avg_ = true_sum_ / static_cast<double>(matching_);
  }

  static constexpr double kLo = 20000.0;
  static constexpr double kHi = 70000.0;

  std::unique_ptr<core::AceTree> BuildTree(uint64_t build_seed) {
    core::AceBuildOptions build;
    build.page_size = 4096;
    build.key_dims = 1;
    build.seed = build_seed;
    build.sort.memory_budget_bytes = 1 << 20;
    std::string name = "sale.ace." + std::to_string(build_seed);
    EXPECT_TRUE(
        core::BuildAceTree(env_.get(), "sale", name, layout_, build).ok());
    return ValueOrDie(core::AceTree::Open(env_.get(), name, layout_));
  }

  std::unique_ptr<io::Env> env_;
  storage::RecordLayout layout_;
  uint64_t matching_ = 0;
  double true_sum_ = 0.0;
  double true_avg_ = 0.0;
};

TEST_F(BoundedCoverageTest, ErrorBoundCiCoversTruthAtNominalRate) {
  constexpr int kRuns = 200;
  constexpr double kConfidence = 0.95;
  constexpr double kRelPct = 5.0;

  int covered = 0;
  int stopped_early = 0;
  double estimate_sum = 0.0;
  double estimate_sq_sum = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    auto tree = BuildTree(3000 + static_cast<uint64_t>(run));
    core::AceSampler sampler(tree.get(),
                             sampling::RangeQuery::OneDim(kLo, kHi),
                             /*seed=*/900 + static_cast<uint64_t>(run));
    sampling::OnlineAggregator agg(
        storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
        matching_, kConfidence);

    StoppingRule::Options options;
    options.rel_error_pct = kRelPct;
    StoppingRule rule(options);
    auto verdict = StoppingRule::Verdict::kContinue;
    while (!sampler.done()) {
      sampling::SampleBatch batch = ValueOrDie(sampler.NextBatch());
      agg.Consume(batch);
      verdict = rule.Check(agg.Avg());
      if (verdict != StoppingRule::Verdict::kContinue) break;
    }
    const sampling::Estimate e = agg.Avg();
    if (verdict == StoppingRule::Verdict::kErrorBoundMet) {
      ++stopped_early;
      EXPECT_LE(e.half_width, std::fabs(e.value) * kRelPct / 100.0);
    }
    if (std::fabs(e.value - true_avg_) <= e.half_width) ++covered;
    estimate_sum += e.value;
    estimate_sq_sum += e.value * e.value;
  }

  // The bound must actually bind: these runs should stop on the error
  // bound, not drain the stream (a drained stream has a trivially exact
  // answer and would mask a broken rule).
  EXPECT_GT(stopped_early, kRuns / 2);

  // Nominal 95% coverage over 200 runs: binomial SE is ~1.5%, so demand
  // >= 90% (3+ SE below nominal fails).
  const double coverage = static_cast<double>(covered) / kRuns;
  EXPECT_GE(coverage, 0.90) << "covered " << covered << "/" << kRuns;

  // Early stopping must not bias the point estimate: the mean of the 200
  // stopped estimates stays within 4 standard errors of the truth.
  const double mean = estimate_sum / kRuns;
  const double var =
      (estimate_sq_sum - kRuns * mean * mean) / (kRuns - 1);
  const double se_mean = std::sqrt(std::max(var, 0.0) / kRuns);
  EXPECT_NEAR(mean, true_avg_, 4.0 * se_mean)
      << "stopped-estimate mean biased: " << mean << " vs " << true_avg_;
}

// ---------------------------------------------------------------------------
// Executor plumbing
// ---------------------------------------------------------------------------

class BoundedExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = io::NewMemEnv();
    executor_ = ValueOrDie(query::Executor::Open(env_.get()));
    ASSERT_TRUE(executor_
                    ->Run("GENERATE TABLE sale ROWS 20000 SEED 7; CREATE "
                          "MATERIALIZED SAMPLE VIEW sv AS SELECT * FROM "
                          "sale INDEX ON day;")
                    .ok());
  }

  std::unique_ptr<io::Env> env_;
  std::unique_ptr<query::Executor> executor_;
};

TEST_F(BoundedExecutorTest, ErrorBoundFillsLedgerAndOutput) {
  auto out = ValueOrDie(executor_->Run(
      "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 1 AND 90000 WITHIN "
      "5%;"));
  EXPECT_NE(out.find("bound: within 5.0000% met"), std::string::npos) << out;
  const obs::StatementLedger& ledger = obs::ThreadStatementLedger();
  EXPECT_TRUE(ledger.has_estimate);
  EXPECT_FALSE(ledger.is_partial);
  EXPECT_DOUBLE_EQ(ledger.target_rel_pct, 5.0);
  EXPECT_GT(ledger.samples, 0u);
  EXPECT_GT(ledger.ci_half_width, 0.0);
  EXPECT_LE(ledger.ci_half_width, std::fabs(ledger.estimate_value) * 0.05);
}

TEST_F(BoundedExecutorTest, UnboundedStatementLeavesBoundsUnset) {
  ASSERT_TRUE(executor_
                  ->Run("ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 1 "
                        "AND 90000 SAMPLES 100;")
                  .ok());
  const obs::StatementLedger& ledger = obs::ThreadStatementLedger();
  EXPECT_TRUE(ledger.has_estimate);
  EXPECT_DOUBLE_EQ(ledger.target_rel_pct, 0.0);
  EXPECT_EQ(ledger.deadline_us, 0u);
  EXPECT_FALSE(ledger.is_partial);
}

TEST_F(BoundedExecutorTest, GroupByWithErrorBoundIsRejected) {
  auto result = executor_->Run(
      "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 1 AND 90000 GROUP BY "
      "day WITHIN 5%;");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("GROUP BY"),
            std::string_view::npos);
}

TEST_F(BoundedExecutorTest, CountWithBoundIsTriviallyComplete) {
  auto out = ValueOrDie(executor_->Run(
      "ESTIMATE COUNT(*) FROM sv WHERE day BETWEEN 1 AND 90000 WITHIN "
      "2%;"));
  EXPECT_NE(out.find("COUNT"), std::string::npos);
  const obs::StatementLedger& ledger = obs::ThreadStatementLedger();
  EXPECT_TRUE(ledger.has_estimate);
  EXPECT_FALSE(ledger.is_partial);
}

}  // namespace
}  // namespace msv
