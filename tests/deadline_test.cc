// Bounded-time (WITHIN t MS) queries against the simulated disk.
//
// The deadline budget charges wall-clock time PLUS the modeled disk time
// the statement's thread accrues (io::ThreadDiskBusyUs()) — on a
// simulated device a statement "spends" milliseconds of seek/rotation in
// microseconds of wall time, so these tests pin the budget arithmetic
// without long real sleeps:
//
//   * a deadline query stops within deadline + one leaf-batch slack
//     (paper-grade random page cost is ~7 modeled ms; the rule checks
//     once per batch, so the overshoot is bounded by one batch's cost),
//   * the result is marked partial and still carries a valid CI,
//   * a longer deadline on the same seeded stream never yields a worse
//     interval than a shorter one.

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/disk_model.h"
#include "io/env.h"
#include "obs/log.h"
#include "query/executor.h"
#include "relation/sale_generator.h"
#include "sampling/online_aggregator.h"
#include "sampling/stopping_rule.h"
#include "storage/record.h"
#include "storage/record_view.h"
#include "test_util.h"

namespace msv {
namespace {

using msv::testing::ValueOrDie;
using sampling::StoppingRule;
using storage::SaleRecord;

/// One random-page budget under the default (paper-grade) disk model:
/// seek + rotational + page transfer + overhead, with margin for a batch
/// touching a few pages plus wall-clock scheduling noise.
constexpr uint64_t kLeafBatchSlackUs = 40'000;

class DeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_env_ = io::NewMemEnv();
    relation::SaleGenOptions gen;
    gen.num_records = 20000;
    gen.seed = 7;
    ASSERT_TRUE(
        relation::GenerateSaleRelation(mem_env_.get(), "sale", gen).ok());
    layout_ = SaleRecord::Layout1D();

    core::AceBuildOptions build;
    build.page_size = 4096;
    build.key_dims = 1;
    build.seed = 99;
    build.sort.memory_budget_bytes = 1 << 20;
    ASSERT_TRUE(
        core::BuildAceTree(mem_env_.get(), "sale", "sale.ace", layout_, build)
            .ok());

    device_ = std::make_shared<io::DiskDevice>(io::DiskModelOptions{});
    sim_env_ = io::NewSimEnv(mem_env_.get(), device_);
    tree_ = ValueOrDie(core::AceTree::Open(sim_env_.get(), "sale.ace",
                                           layout_));
  }

  /// Runs one bounded AVG estimate over the simulated disk; returns the
  /// final estimate, the verdict and the budget the rule consumed.
  struct BoundedRun {
    sampling::Estimate estimate;
    StoppingRule::Verdict verdict = StoppingRule::Verdict::kContinue;
    uint64_t elapsed_us = 0;
    bool stream_done = false;
  };
  BoundedRun RunBounded(uint64_t seed, uint64_t deadline_ms) {
    core::AceSampler sampler(tree_.get(),
                             sampling::RangeQuery::OneDim(20000.0, 70000.0),
                             seed);
    sampling::OnlineAggregator agg(
        storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
        /*population=*/10000);
    const uint64_t disk_before = io::ThreadDiskBusyUs();
    StoppingRule::Options options;
    options.deadline_us = deadline_ms * 1000;
    options.extra_elapsed_us = [disk_before] {
      return io::ThreadDiskBusyUs() - disk_before;
    };
    StoppingRule rule(options);
    BoundedRun run;
    while (!sampler.done()) {
      agg.Consume(ValueOrDie(sampler.NextBatch()));
      run.verdict = rule.Check(agg.Avg());
      if (run.verdict != StoppingRule::Verdict::kContinue) break;
    }
    run.estimate = agg.Avg();
    run.elapsed_us = rule.ElapsedUs();
    run.stream_done = sampler.done();
    return run;
  }

  std::unique_ptr<io::Env> mem_env_;
  std::shared_ptr<io::DiskDevice> device_;
  std::unique_ptr<io::Env> sim_env_;
  storage::RecordLayout layout_;
  std::unique_ptr<core::AceTree> tree_;
};

TEST_F(DeadlineTest, StopsWithinDeadlinePlusOneBatch) {
  const BoundedRun run = RunBounded(/*seed=*/11, /*deadline_ms=*/50);
  EXPECT_EQ(run.verdict, StoppingRule::Verdict::kDeadlineHit);
  EXPECT_FALSE(run.stream_done);
  EXPECT_GE(run.elapsed_us, 50'000u);  // the deadline actually fired
  EXPECT_LE(run.elapsed_us, 50'000u + kLeafBatchSlackUs)
      << "overshot the deadline by more than one leaf batch";
}

TEST_F(DeadlineTest, PartialResultCarriesValidCi) {
  const BoundedRun run = RunBounded(/*seed=*/12, /*deadline_ms=*/50);
  ASSERT_EQ(run.verdict, StoppingRule::Verdict::kDeadlineHit);
  EXPECT_GT(run.estimate.samples, 0u);
  EXPECT_GT(run.estimate.half_width, 0.0);
  EXPECT_TRUE(std::isfinite(run.estimate.value));
  // The partial CI is a real interval around a plausible mean (amount is
  // uniform in (0, 10000), so the estimate must land well inside).
  EXPECT_GT(run.estimate.value, 0.0);
  EXPECT_LT(run.estimate.value, 10000.0);
}

TEST_F(DeadlineTest, LongerDeadlineNeverWorsensTheInterval) {
  // Same seed => the longer run consumes a superset of the shorter run's
  // sample stream. The deadlines are far apart (4x) so the CLT width
  // shrink dominates any sample-variance wobble.
  const BoundedRun short_run = RunBounded(/*seed=*/21, /*deadline_ms=*/50);
  const BoundedRun long_run = RunBounded(/*seed=*/21, /*deadline_ms=*/200);
  ASSERT_EQ(short_run.verdict, StoppingRule::Verdict::kDeadlineHit);
  EXPECT_GT(long_run.estimate.samples, short_run.estimate.samples);
  EXPECT_LE(long_run.estimate.half_width, short_run.estimate.half_width)
      << "more budget produced a wider interval";
}

TEST_F(DeadlineTest, ModeledDiskTimeCountsAgainstTheBudget) {
  // The run above finishes in far less wall time than its modeled
  // budget: the rule must be charging simulated microseconds. Verify by
  // re-running and checking modeled disk time dominates the elapsed
  // budget (on a memory-backed device wall time is microseconds).
  const uint64_t disk_before = io::ThreadDiskBusyUs();
  const BoundedRun run = RunBounded(/*seed=*/31, /*deadline_ms=*/50);
  const uint64_t disk_delta = io::ThreadDiskBusyUs() - disk_before;
  EXPECT_EQ(run.verdict, StoppingRule::Verdict::kDeadlineHit);
  EXPECT_GT(disk_delta, run.elapsed_us / 2)
      << "modeled disk time should dominate the consumed budget";
}

/// Executor-level: the WITHIN ... MS plumbing over a simulated-disk
/// catalog env reports a partial estimate in the statement ledger.
TEST(DeadlineExecutorTest, PartialEstimateThroughExecutor) {
  auto mem = io::NewMemEnv();
  auto device = std::make_shared<io::DiskDevice>(io::DiskModelOptions{});
  auto sim = io::NewSimEnv(mem.get(), device);
  auto executor = ValueOrDie(query::Executor::Open(sim.get()));
  // Large enough that a 10 ms budget cannot drain the stream even when
  // every page is already resident (pure-wall sampling), so the result
  // is partial regardless of buffer-pool warmth.
  ASSERT_TRUE(executor
                  ->Run("GENERATE TABLE sale ROWS 100000 SEED 7; CREATE "
                        "MATERIALIZED SAMPLE VIEW sv AS SELECT * FROM sale "
                        "INDEX ON day;")
                  .ok());
  auto out = ValueOrDie(executor->Run(
      "ESTIMATE AVG(amount) FROM sv WHERE day BETWEEN 20000 AND 70000 "
      "WITHIN 10 MS;"));
  EXPECT_NE(out.find("deadline 10 ms hit"), std::string::npos) << out;
  EXPECT_NE(out.find("partial"), std::string::npos) << out;
  const obs::StatementLedger& ledger = obs::ThreadStatementLedger();
  EXPECT_TRUE(ledger.has_estimate);
  EXPECT_TRUE(ledger.is_partial);
  EXPECT_EQ(ledger.deadline_us, 10'000u);
  EXPECT_GE(ledger.elapsed_us, 10'000u);
  EXPECT_LE(ledger.elapsed_us, 10'000u + kLeafBatchSlackUs);
  EXPECT_GT(ledger.ci_half_width, 0.0);
}

}  // namespace
}  // namespace msv
