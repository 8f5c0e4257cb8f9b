// Crash-point sweep over the ACE build, and fault injection during query
// serving.
//
// The sweep drives the atomic-build protocol (write <name>.tmp, sync,
// rename, sync dir) through every operation index k: arm a sticky fault
// at k, run the build until it dies, simulate power loss, recover, and
// assert the invariant the protocol promises — after a crash at ANY
// point, the tree name either does not exist (NotFound) or opens as a
// complete tree passing CheckInvariants(). Nothing in between.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ace_builder.h"
#include "core/ace_sampler.h"
#include "core/ace_tree.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "query/executor.h"
#include "storage/record.h"
#include "test_util.h"

namespace msv::core {
namespace {

using msv::testing::MakeSale;
using msv::testing::ValueOrDie;

AceBuildOptions SmallBuild(uint64_t seed = 99) {
  AceBuildOptions build;
  build.page_size = 512;  // many leaves from few records -> height > 1
  build.key_dims = 1;
  build.seed = seed;
  build.sort.memory_budget_bytes = 1 << 20;  // in-memory sort, fast sweep
  return build;
}

/// One sweep iteration: a fresh store with a durable `sale` relation and
/// a fault env wrapped around it.
struct Fixture {
  std::unique_ptr<io::Env> inner;
  std::unique_ptr<io::FaultInjectionEnv> env;
};

Fixture FreshFixture(uint64_t records) {
  Fixture f;
  f.inner = io::NewMemEnv();
  // The input relation is written straight to the inner env BEFORE the
  // fault env snapshots it, so it predates the crash window and survives
  // every simulated power loss.
  MakeSale(f.inner.get(), "sale", records, /*seed=*/7);
  f.env = io::NewFaultInjectionEnv(f.inner.get());
  return f;
}

TEST(CrashSweepTest, FreshBuildAtomicAtEveryFaultIndex) {
  const uint64_t kRecords = 400;
  const storage::RecordLayout layout = storage::SaleRecord::Layout1D();

  // Fault-free reference run: total op count and a green invariant check.
  int64_t total_ops = 0;
  {
    Fixture f = FreshFixture(kRecords);
    MSV_ASSERT_OK(
        BuildAceTree(f.env.get(), "sale", "sale.ace", layout, SmallBuild()));
    total_ops = f.env->op_count();
    MSV_ASSERT_OK(f.env->DropUnsyncedData());
    auto tree = ValueOrDie(AceTree::Open(f.env.get(), "sale.ace", layout));
    auto report = tree->CheckInvariants();
    ASSERT_TRUE(report.ok()) << report.ToString();
  }
  ASSERT_GT(total_ops, 0);
  ASSERT_LT(total_ops, 20000) << "sweep would be unreasonably slow";

  for (int64_t k = 0; k < total_ops; ++k) {
    Fixture f = FreshFixture(kRecords);
    f.env->ArmFault(k, io::FaultMode::kError, /*sticky=*/true);
    Status build =
        BuildAceTree(f.env.get(), "sale", "sale.ace", layout, SmallBuild());
    const bool fired = f.env->fault_fired();
    f.env->ClearFault();
    MSV_ASSERT_OK(f.env->DropUnsyncedData());

    auto tree = AceTree::Open(f.env.get(), "sale.ace", layout);
    if (tree.ok()) {
      auto report = (*tree)->CheckInvariants();
      EXPECT_TRUE(report.ok()) << "fault index " << k
                               << " left a corrupt tree: " << report.ToString();
    } else {
      // No tree may only mean "cleanly absent", never a torn open.
      EXPECT_TRUE(tree.status().IsNotFound())
          << "fault index " << k
          << " left a torn tree: " << tree.status().ToString();
      EXPECT_FALSE(build.ok()) << "fault index " << k;
    }
    ASSERT_TRUE(fired) << "sweep ended early at index " << k << " of "
                       << total_ops;
  }
}

TEST(CrashSweepTest, RebuildOverExistingKeepsOldOrNew) {
  const uint64_t kRecords = 400;
  const storage::RecordLayout layout = storage::SaleRecord::Layout1D();

  // Reference rebuild to size the sweep.
  int64_t total_ops = 0;
  {
    Fixture f = FreshFixture(kRecords);
    MSV_ASSERT_OK(BuildAceTree(f.inner.get(), "sale", "sale.ace", layout,
                               SmallBuild(/*seed=*/1)));
    auto probe = io::NewFaultInjectionEnv(f.inner.get());
    MSV_ASSERT_OK(BuildAceTree(probe.get(), "sale", "sale.ace", layout,
                               SmallBuild(/*seed=*/2)));
    total_ops = probe->op_count();
  }
  ASSERT_GT(total_ops, 0);

  // Stride the sweep: rebuilds exercise the same protocol as fresh builds,
  // so spot-checking ~100 crash points (always including the first and
  // last few, where the rename/dir-sync endgame lives) keeps this fast.
  const int64_t stride = std::max<int64_t>(1, total_ops / 100);
  std::vector<int64_t> points;
  for (int64_t k = 0; k < total_ops; k += stride) points.push_back(k);
  for (int64_t k = std::max<int64_t>(0, total_ops - 8); k < total_ops; ++k) {
    points.push_back(k);
  }

  for (int64_t k : points) {
    Fixture f = FreshFixture(kRecords);
    // The pre-existing tree is built durably in the inner env...
    MSV_ASSERT_OK(BuildAceTree(f.inner.get(), "sale", "sale.ace", layout,
                               SmallBuild(/*seed=*/1)));
    // ...but the fault env snapshotted before it existed; re-wrap so the
    // old tree is part of the durable image.
    f.env = io::NewFaultInjectionEnv(f.inner.get());
    f.env->ArmFault(k, io::FaultMode::kError, /*sticky=*/true);
    Status build = BuildAceTree(f.env.get(), "sale", "sale.ace", layout,
                                SmallBuild(/*seed=*/2));
    f.env->ClearFault();
    MSV_ASSERT_OK(f.env->DropUnsyncedData());

    // Rebuilding over an existing name must never lose the tree: after a
    // crash anywhere, the name opens (old or new) and verifies.
    auto tree = AceTree::Open(f.env.get(), "sale.ace", layout);
    ASSERT_TRUE(tree.ok()) << "fault index " << k << " (build: "
                           << build.ToString()
                           << "): " << tree.status().ToString();
    auto report = (*tree)->CheckInvariants();
    EXPECT_TRUE(report.ok()) << "fault index " << k << ": "
                             << report.ToString();
  }
}

// ---------------------------------------------------------------------------
// Fault injection during serving
// ---------------------------------------------------------------------------

TEST(FaultServingTest, ExecutorReturnsErrorsWithoutHanging) {
  auto inner = io::NewMemEnv();
  auto fault = io::NewFaultInjectionEnv(inner.get());
  auto exec = ValueOrDie(query::Executor::Open(fault.get()));
  auto setup = exec->Run(
      "GENERATE TABLE sale ROWS 3000 SEED 7; "
      "CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale "
      "INDEX ON day;");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();

  fault->ArmFault(fault->op_count(), io::FaultMode::kError, /*sticky=*/true);
  std::vector<std::string> scripts;
  for (int t = 0; t < 4; ++t) {
    scripts.push_back(
        "ESTIMATE AVG(amount) FROM v WHERE day BETWEEN 10000 AND 60000 "
        "SAMPLES 100;");
    scripts.push_back("SAMPLE FROM v WHERE day BETWEEN 0 AND 90000 LIMIT 30;");
  }
  auto results = msv::testing::RunScriptsOnThreads(exec.get(), scripts, 4);
  ASSERT_EQ(results.size(), scripts.size());
  for (size_t i = 0; i < results.size(); ++i) {
    // Every leaf read hits the dead device: each script must come back
    // with a clean error Status — no crash, no hang, threads joined.
    EXPECT_FALSE(results[i].ok()) << "script " << i << " succeeded";
    EXPECT_TRUE(results[i].status().IsIOError())
        << "script " << i << ": " << results[i].status().ToString();
  }

  // The device "recovers": the executor must still be fully serviceable.
  fault->ClearFault();
  auto after =
      exec->Run("SAMPLE FROM v WHERE day BETWEEN 0 AND 90000 LIMIT 10;");
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

}  // namespace
}  // namespace msv::core
