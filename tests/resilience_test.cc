// Execution resilience: deterministic fault injection, the task-retry
// degradation ladder (fused -> per-query, temp -> base recompute, memory
// pressure -> serialized multi-word kernel), cooperative cancellation and
// deadlines, and the no-leaked-temp-tables invariant on every failure path.
//
// The differential core: for any fault seed, a run that recovers must
// produce the same result *content* as the fault-free run (degraded rungs
// may reorder result rows — from-base recompute changes first-occurrence
// order — so content is compared canonically sorted; all aggregates here
// are int64 COUNTs, so values are exact), the Catalog must end with zero
// temp bytes whether the run recovered or not, and tasks_retried /
// tasks_degraded must be pure functions of (plan, seed), independent of
// the worker count.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/fault_injector.h"
#include "core/gbmqo.h"
#include "counters_testing.h"
#include "data/tpch_gen.h"

namespace gbmqo {
namespace {

PlanNode Leaf(ColumnSet cols) {
  PlanNode n;
  n.columns = cols;
  n.required = true;
  return n;
}

struct Fixture {
  explicit Fixture(size_t rows = 8000)
      : table(GenerateLineitem({.rows = rows, .seed = 12})) {
    EXPECT_TRUE(catalog.RegisterBase(table).ok());
  }
  TablePtr table;
  Catalog catalog;
};

/// Result content per request, canonically sorted: one "v1|v2|..." string
/// per row, rows sorted. Degraded recovery rungs may permute result rows,
/// so equality is on content, not order.
std::map<ColumnSet, std::vector<std::string>> CanonicalResults(
    const ExecutionResult& r) {
  std::map<ColumnSet, std::vector<std::string>> out;
  for (const auto& [cols, table] : r.results) {
    std::vector<std::string> rows;
    rows.reserve(table->num_rows());
    for (size_t row = 0; row < table->num_rows(); ++row) {
      std::string s;
      for (int c = 0; c < table->schema().num_columns(); ++c) {
        s += table->column(c).ValueAt(row).ToString();
        s += '|';
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    out[cols] = std::move(rows);
  }
  return out;
}

/// Fan-out plan with fusable siblings at two levels (same shape as the
/// parallel-executor fusion matrix): a materialized root whose four plain
/// children share one scan of it, plus a base-level leaf that fuses with
/// the root over the base relation.
LogicalPlan FanOutPlan() {
  PlanNode root;
  root.columns = {kReturnflag, kLinestatus, kShipmode};
  root.required = true;
  root.children = {Leaf({kReturnflag}), Leaf({kLinestatus}),
                   Leaf({kShipmode}), Leaf({kReturnflag, kLinestatus})};
  LogicalPlan plan;
  plan.subplans = {root, Leaf({kQuantity})};
  return plan;
}

std::vector<GroupByRequest> FanOutRequests() {
  return {GroupByRequest::Count({kReturnflag, kLinestatus, kShipmode}),
          GroupByRequest::Count({kReturnflag}),
          GroupByRequest::Count({kLinestatus}),
          GroupByRequest::Count({kShipmode}),
          GroupByRequest::Count({kReturnflag, kLinestatus}),
          GroupByRequest::Count({kQuantity})};
}

/// Materialized root with one dependent leaf: the leaf's task reads the
/// root's temp table, so its from-base degradation rung is exercisable.
LogicalPlan ChainPlan() {
  PlanNode root;
  root.columns = {kReturnflag, kLinestatus};
  root.required = true;
  root.children = {Leaf({kReturnflag})};
  LogicalPlan plan;
  plan.subplans = {root};
  return plan;
}

std::vector<GroupByRequest> ChainRequests() {
  return {GroupByRequest::Count({kReturnflag, kLinestatus}),
          GroupByRequest::Count({kReturnflag})};
}

// ---- randomized fault-injection differential --------------------------------

TEST(ResilienceDifferentialTest, RandomizedFaultTrialsMatchFaultFreeRun) {
  Fixture f;
  const auto requests = FanOutRequests();
  const LogicalPlan plan = FanOutPlan();
  ASSERT_TRUE(plan.Validate(requests).ok());

  PlanExecutor ref(&f.catalog, "lineitem", ScanMode::kRowStore, 4);
  ref.set_fusion_enabled(true);
  auto baseline = ref.Execute(plan, requests);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->counters.tasks_retried, 0u);
  EXPECT_EQ(baseline->counters.tasks_degraded, 0u);
  const auto want = CanonicalResults(*baseline);

  const int kTrials = 60;
  int recovered = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const uint64_t seed = 1000 + static_cast<uint64_t>(trial);
    const int workers = 1 + (trial % 8);
    auto run = [&]() -> Result<ExecutionResult> {
      FaultInjector inj(seed);
      inj.ArmProbability(FaultSite::kTaskStart, 0.10);
      inj.ArmProbability(FaultSite::kAllocPressure, 0.05);
      inj.ArmProbability(FaultSite::kTempRegister, 0.05);
      inj.ArmProbability(FaultSite::kSharedScanBatch, 0.05);
      ScopedFaultInjection scoped(&inj);
      PlanExecutor exec(&f.catalog, "lineitem", ScanMode::kRowStore, workers);
      exec.set_fusion_enabled(true);
      exec.set_max_task_retries(4);
      return exec.Execute(plan, requests);
    };
    auto r = run();
    // Recovered or not, no temp table may survive the call.
    EXPECT_EQ(f.catalog.temp_bytes(), 0u) << "temp tables leaked";
    if (!r.ok()) continue;  // retry budget exhausted: legal, but must be clean
    ++recovered;
    EXPECT_EQ(want, CanonicalResults(*r));
    // Deterministic replay: the same seed and worker count reproduces the
    // run bit-identically, including the retry/degradation attribution.
    auto again = run();
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(r->counters, again->counters);
    EXPECT_EQ(f.catalog.temp_bytes(), 0u);
  }
  // The fault rates are chosen so the 4-attempt budget recovers most
  // trials; a flaky harness would show up as mass failure here.
  EXPECT_GE(recovered, kTrials / 2)
      << "only " << recovered << "/" << kTrials << " trials recovered";
}

TEST(ResilienceDifferentialTest, RetryCountersIndependentOfWorkerCount) {
  Fixture f;
  const auto requests = FanOutRequests();
  const LogicalPlan plan = FanOutPlan();

  // Probability-armed decisions are keyed on (task id, attempt), never hit
  // order, so a seed that retries at one worker count retries identically
  // at every other. Find a seed whose single-worker run recovers with at
  // least one retry, then pin the whole counter set across worker counts.
  auto run = [&](uint64_t seed, int workers) -> Result<ExecutionResult> {
    FaultInjector inj(seed);
    inj.ArmProbability(FaultSite::kTaskStart, 0.25);
    inj.ArmProbability(FaultSite::kSharedScanBatch, 0.25);
    ScopedFaultInjection scoped(&inj);
    PlanExecutor exec(&f.catalog, "lineitem", ScanMode::kRowStore, workers);
    exec.set_fusion_enabled(true);
    exec.set_max_task_retries(4);
    return exec.Execute(plan, requests);
  };

  uint64_t seed = 0;
  Result<ExecutionResult> one = Status::Internal("unset");
  for (uint64_t s = 1; s <= 64; ++s) {
    auto r = run(s, 1);
    EXPECT_EQ(f.catalog.temp_bytes(), 0u);
    if (r.ok() && r->counters.tasks_retried > 0) {
      seed = s;
      one = std::move(r);
      break;
    }
  }
  ASSERT_GT(seed, 0u) << "no seed with a recovered retry in 64 tries";

  for (const int workers : {2, 8}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    auto r = run(seed, workers);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(one->counters, r->counters);
    EXPECT_EQ(CanonicalResults(*one), CanonicalResults(*r));
    EXPECT_EQ(f.catalog.temp_bytes(), 0u);
  }
}

// ---- degradation-ladder rungs ----------------------------------------------

TEST(DegradationLadderTest, FusedTaskSplitsIntoPerQueryPasses) {
  Fixture f;
  const auto requests = FanOutRequests();
  const LogicalPlan plan = FanOutPlan();

  PlanExecutor plain(&f.catalog, "lineitem");
  auto baseline = plain.Execute(plan, requests);  // unfused, fault-free
  ASSERT_TRUE(baseline.ok());
  const auto want = CanonicalResults(*baseline);

  std::optional<WorkCounters> pinned;
  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    FaultInjector inj(7);
    // Every shared-scan batch read fails, so every fused task must fall
    // back to independent per-query passes on its first retry.
    inj.ArmProbability(FaultSite::kSharedScanBatch, 1.0);
    ScopedFaultInjection scoped(&inj);
    PlanExecutor exec(&f.catalog, "lineitem", ScanMode::kRowStore, workers);
    exec.set_fusion_enabled(true);
    exec.set_max_task_retries(1);
    auto r = exec.Execute(plan, requests);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Both fused tasks (base level and root level) retried once, degraded.
    EXPECT_EQ(r->counters.tasks_retried, 2u);
    EXPECT_EQ(r->counters.tasks_degraded, 2u);
    EXPECT_EQ(want, CanonicalResults(*r));
    EXPECT_EQ(f.catalog.temp_bytes(), 0u);
    if (!pinned.has_value()) {
      pinned = r->counters;
    } else {
      EXPECT_EQ(*pinned, r->counters);
    }
  }
}

TEST(DegradationLadderTest, TempReaderRecomputesFromBase) {
  Fixture f;
  const auto requests = ChainRequests();
  const LogicalPlan plan = ChainPlan();
  ASSERT_TRUE(plan.Validate(requests).ok());

  PlanExecutor plain(&f.catalog, "lineitem");
  auto baseline = plain.Execute(plan, requests);
  ASSERT_TRUE(baseline.ok());

  FaultInjector inj(3);
  // Single worker: attempt starts arrive in task order, so hit #1 is the
  // first attempt of the dependent leaf — the task that reads the root's
  // temp table. Its retry must recompute from the base relation.
  inj.ArmOneShot(FaultSite::kTaskStart, 1);
  ScopedFaultInjection scoped(&inj);
  PlanExecutor exec(&f.catalog, "lineitem");
  exec.set_max_task_retries(1);
  auto r = exec.Execute(plan, requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(inj.fires(FaultSite::kTaskStart), 1u);
  EXPECT_EQ(r->counters.tasks_retried, 1u);
  EXPECT_EQ(r->counters.tasks_degraded, 1u);
  // From-base recompute scans the base relation once more than planned.
  EXPECT_GT(r->counters.rows_scanned, baseline->counters.rows_scanned);
  EXPECT_EQ(CanonicalResults(*baseline), CanonicalResults(*r));
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
}

TEST(DegradationLadderTest, MemoryPressureForcesMultiWordKernel) {
  Fixture f;
  std::vector<GroupByRequest> requests = {GroupByRequest::Count({kReturnflag})};
  const LogicalPlan plan = NaivePlan(requests);

  PlanExecutor plain(&f.catalog, "lineitem");
  auto baseline = plain.Execute(plan, requests);
  ASSERT_TRUE(baseline.ok());
  // Fault-free, this low-cardinality query runs on the dense-array kernel.
  EXPECT_GT(baseline->counters.dense_kernel_rows, 0u);
  EXPECT_EQ(baseline->counters.multiword_kernel_rows, 0u);

  FaultInjector inj(11);
  inj.ArmOneShot(FaultSite::kAllocPressure, 0);  // first group-table alloc
  ScopedFaultInjection scoped(&inj);
  PlanExecutor exec(&f.catalog, "lineitem");
  exec.set_max_task_retries(1);
  auto r = exec.Execute(plan, requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The injected bad_alloc surfaced as ResourceExhausted, and the retry ran
  // serialized on the low-footprint multi-word kernel.
  EXPECT_EQ(r->counters.tasks_retried, 1u);
  EXPECT_EQ(r->counters.tasks_degraded, 1u);
  EXPECT_EQ(r->counters.dense_kernel_rows, 0u);
  EXPECT_GT(r->counters.multiword_kernel_rows, 0u);
  EXPECT_EQ(CanonicalResults(*baseline), CanonicalResults(*r));
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
}

TEST(DegradationLadderTest, ResourceExhaustedRetriesOnSpillRungFirst) {
  // With out-of-core aggregation enabled, the ladder gains a rung *above*
  // "serialize + multi-word": a ResourceExhausted attempt first retries with
  // spill forced, keeping its kernel and parallelism. 150k rows = multiple
  // morsels, so the retried query is spill-eligible.
  Fixture f(150000);
  std::vector<GroupByRequest> requests = {GroupByRequest::Count({kQuantity})};
  const LogicalPlan plan = NaivePlan(requests);

  PlanExecutor plain(&f.catalog, "lineitem", ScanMode::kRowStore, 4);
  auto baseline = plain.Execute(plan, requests);
  ASSERT_TRUE(baseline.ok());
  EXPECT_GT(baseline->counters.dense_kernel_rows, 0u);

  FaultInjector inj(11);
  inj.ArmOneShot(FaultSite::kAllocPressure, 0);  // first group-table alloc
  ScopedFaultInjection scoped(&inj);
  PlanExecutor exec(&f.catalog, "lineitem", ScanMode::kRowStore, 4);
  exec.set_max_task_retries(1);
  SpillOptions spill;
  spill.memory_budget_bytes = 1ull << 40;  // enabled, never trips on its own
  exec.set_spill(spill);
  auto r = exec.Execute(plan, requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->counters.tasks_retried, 1u);
  EXPECT_EQ(r->counters.tasks_degraded, 1u);
  // The retry spilled instead of falling to the multi-word rung: the query
  // kept its dense kernel and never ran multi-word.
  EXPECT_EQ(r->counters.queries_spilled, 1u);
  EXPECT_GT(r->counters.dense_kernel_rows, 0u);
  EXPECT_EQ(r->counters.multiword_kernel_rows, 0u);
  EXPECT_EQ(CanonicalResults(*baseline), CanonicalResults(*r));
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
}

TEST(DegradationLadderTest, SpillFaultRollsBackAndRecovers) {
  // A fault inside the spill pipeline itself (partition write, replay read,
  // partition merge) fails that attempt with Internal; the retry re-runs the
  // spill path clean. No temp table and no spill file may survive either
  // attempt.
  Fixture f(150000);
  std::vector<GroupByRequest> requests = {GroupByRequest::Count({kQuantity})};
  const LogicalPlan plan = NaivePlan(requests);

  PlanExecutor plain(&f.catalog, "lineitem");
  auto baseline = plain.Execute(plan, requests);
  ASSERT_TRUE(baseline.ok());

  const auto dir = std::filesystem::temp_directory_path() /
                   ("gbmqo-resilience-spill-" +
                    std::to_string(static_cast<uint64_t>(::getpid())));
  std::filesystem::create_directories(dir);
  for (FaultSite site : {FaultSite::kSpillWrite, FaultSite::kSpillRead,
                         FaultSite::kSpillMerge}) {
    SCOPED_TRACE(FaultSiteName(site));
    FaultInjector inj(23);
    inj.ArmOneShot(site, 0);
    ScopedFaultInjection scoped(&inj);
    // Single worker: the spill pipeline runs its passes in deterministic
    // order, so the one-shot always hits the first attempt.
    PlanExecutor exec(&f.catalog, "lineitem");
    exec.set_max_task_retries(1);
    SpillOptions spill;
    spill.force = true;
    spill.directory = dir.string();
    exec.set_spill(spill);
    auto r = exec.Execute(plan, requests);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(inj.fires(site), 1u);
    EXPECT_EQ(r->counters.tasks_retried, 1u);
    EXPECT_EQ(r->counters.queries_spilled, 1u);  // the clean retry
    EXPECT_EQ(CanonicalResults(*baseline), CanonicalResults(*r));
    EXPECT_EQ(f.catalog.temp_bytes(), 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << "leaked spill files";
  }
  std::filesystem::remove_all(dir);
}

TEST(DegradationLadderTest, SpillCorruptionRecoversInPlaceWithoutRetry) {
  // Bit rot in a spill partition (every frame CRC fails under probability
  // 1.0) is repaired *inside* the attempt: the corrupt partition is
  // re-derived from the resident input (SpillOptions::recover_corrupt,
  // default on), so the query succeeds with no ladder retry and the result
  // matches an unfaulted run raw-bit.
  Fixture f(150000);
  std::vector<GroupByRequest> requests = {GroupByRequest::Count({kQuantity})};
  const LogicalPlan plan = NaivePlan(requests);

  PlanExecutor plain(&f.catalog, "lineitem");
  auto baseline = plain.Execute(plan, requests);
  ASSERT_TRUE(baseline.ok());

  const auto dir = std::filesystem::temp_directory_path() /
                   ("gbmqo-resilience-corrupt-" +
                    std::to_string(static_cast<uint64_t>(::getpid())));
  std::filesystem::create_directories(dir);
  FaultInjector inj(29);
  inj.ArmProbability(FaultSite::kSpillCorrupt, 1.0);
  ScopedFaultInjection scoped(&inj);
  PlanExecutor exec(&f.catalog, "lineitem");
  SpillOptions spill;
  spill.force = true;
  spill.directory = dir.string();
  exec.set_spill(spill);
  auto r = exec.Execute(plan, requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(inj.fires(FaultSite::kSpillCorrupt), 0u);
  EXPECT_GT(r->counters.spill_corrupt_recoveries, 0u);
  EXPECT_EQ(r->counters.tasks_retried, 0u);   // repaired inside the attempt
  EXPECT_EQ(r->counters.tasks_degraded, 0u);  // kernel and parallelism kept
  EXPECT_EQ(r->counters.queries_spilled, 1u);
  EXPECT_EQ(CanonicalResults(*baseline), CanonicalResults(*r));
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "leaked spill files";
  std::filesystem::remove_all(dir);
}

TEST(DegradationLadderTest, SpillCorruptionWithoutRecoveryClimbsLadder) {
  // With recover_corrupt off, a corrupt spill record fails the attempt with
  // Internal naming the damage; the ladder's same-plan retry re-runs the
  // spill clean (the one-shot fault has been consumed) with no degradation.
  Fixture f(150000);
  std::vector<GroupByRequest> requests = {GroupByRequest::Count({kQuantity})};
  const LogicalPlan plan = NaivePlan(requests);

  PlanExecutor plain(&f.catalog, "lineitem");
  auto baseline = plain.Execute(plan, requests);
  ASSERT_TRUE(baseline.ok());

  const auto dir = std::filesystem::temp_directory_path() /
                   ("gbmqo-resilience-corrupt2-" +
                    std::to_string(static_cast<uint64_t>(::getpid())));
  std::filesystem::create_directories(dir);
  FaultInjector inj(31);
  inj.ArmOneShot(FaultSite::kSpillCorrupt, 0);
  ScopedFaultInjection scoped(&inj);
  PlanExecutor exec(&f.catalog, "lineitem");
  exec.set_max_task_retries(1);
  SpillOptions spill;
  spill.force = true;
  spill.directory = dir.string();
  spill.recover_corrupt = false;
  exec.set_spill(spill);
  auto r = exec.Execute(plan, requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(inj.fires(FaultSite::kSpillCorrupt), 1u);
  EXPECT_EQ(r->counters.spill_corrupt_recoveries, 0u);
  EXPECT_GE(r->counters.tasks_retried, 1u);
  EXPECT_EQ(r->counters.tasks_degraded, 0u);
  EXPECT_EQ(CanonicalResults(*baseline), CanonicalResults(*r));
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "leaked spill files";
  std::filesystem::remove_all(dir);
}

TEST(DegradationLadderTest, TempRegistrationFaultRollsBackAndRecovers) {
  Fixture f;
  const auto requests = ChainRequests();
  const LogicalPlan plan = ChainPlan();

  PlanExecutor plain(&f.catalog, "lineitem");
  auto baseline = plain.Execute(plan, requests);
  ASSERT_TRUE(baseline.ok());

  FaultInjector inj(13);
  inj.ArmOneShot(FaultSite::kTempRegister, 0);  // root's registration fails
  ScopedFaultInjection scoped(&inj);
  PlanExecutor exec(&f.catalog, "lineitem");
  exec.set_max_task_retries(1);
  auto r = exec.Execute(plan, requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->counters.tasks_retried, 1u);
  EXPECT_EQ(CanonicalResults(*baseline), CanonicalResults(*r));
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
}

// ---- temp-table cleanup on failure ------------------------------------------

TEST(TempCleanupTest, ExhaustedRetriesLeaveCatalogClean) {
  Fixture f;
  const auto requests = ChainRequests();
  const LogicalPlan plan = ChainPlan();

  FaultInjector inj(17);
  inj.ArmProbability(FaultSite::kTaskStart, 1.0);  // every attempt fails
  ScopedFaultInjection scoped(&inj);
  PlanExecutor exec(&f.catalog, "lineitem", ScanMode::kRowStore, 4);
  exec.set_max_task_retries(2);
  auto r = exec.Execute(plan, requests);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(f.catalog.temp_bytes(), 0u) << "temp tables leaked on failure";
}

TEST(TempCleanupTest, CompositeSubtreeDropsTempsOnInjectedThrow) {
  // Regression for the temp-ref leak: a CUBE subtree registers lattice
  // temps as it goes; an exception thrown from a query mid-subtree
  // (injected bad_alloc while building a group table) must not strand
  // them in the Catalog. The subtree's RAII guard drops the leftovers on
  // the unwind path.
  Fixture f;
  std::vector<GroupByRequest> requests = {
      GroupByRequest::Count({kReturnflag}),
      GroupByRequest::Count({kLinestatus}),
      GroupByRequest::Count({kReturnflag, kLinestatus})};
  PlanNode cube;
  cube.columns = {kReturnflag, kLinestatus};
  cube.kind = NodeKind::kCube;
  cube.required = true;
  cube.children = {Leaf({kReturnflag}), Leaf({kLinestatus})};
  LogicalPlan plan;
  plan.subplans = {cube};
  ASSERT_TRUE(plan.Validate(requests).ok());

  FaultInjector inj(19);
  // Hit #2 is the third group-table allocation: mid-lattice, after at
  // least one lattice temp has been registered.
  inj.ArmOneShot(FaultSite::kAllocPressure, 2);
  ScopedFaultInjection scoped(&inj);
  PlanExecutor exec(&f.catalog, "lineitem");
  auto r = exec.Execute(plan, requests);  // fail-fast: no retries configured
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_EQ(inj.fires(FaultSite::kAllocPressure), 1u);
  EXPECT_EQ(f.catalog.temp_bytes(), 0u) << "composite subtree leaked temps";

  // With a retry budget the same fault recovers (the one-shot has fired).
  FaultInjector inj2(19);
  inj2.ArmOneShot(FaultSite::kAllocPressure, 2);
  ScopedFaultInjection scoped2(&inj2);
  PlanExecutor retrying(&f.catalog, "lineitem");
  retrying.set_max_task_retries(1);
  auto ok = retrying.Execute(plan, requests);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->counters.tasks_retried, 1u);
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
}

// ---- cancellation and deadlines ---------------------------------------------

TEST(CancellationTest, CancelDuringRetryBackoffReturnsPromptly) {
  // Regression: the retry loop used to sleep attempt * backoff_ms
  // unconditionally, so with a large backoff a Cancel() issued while the
  // executor sat in backoff was not observed until the full sleep elapsed.
  // The backoff wait must poll the token and unwind within a slice.
  Fixture f(1000);
  const auto requests = FanOutRequests();
  const LogicalPlan plan = FanOutPlan();
  FaultInjector inj(7);
  inj.ArmProbability(FaultSite::kTaskStart, 1.0);  // every attempt fails
  ScopedFaultInjection scoped(&inj);
  CancellationToken token;
  PlanExecutor exec(&f.catalog, "lineitem");
  exec.set_cancellation(&token);
  exec.set_max_task_retries(3);
  exec.set_retry_backoff_ms(60000);  // would stall ~minutes if unconditional

  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  auto r = exec.Execute(plan, requests);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_LT(elapsed_s, 5.0) << "backoff ignored the cancellation token";
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
}

TEST(CancellationTest, RetryBackoffBoundedByDeadline) {
  // The backoff wait is capped by the remaining deadline: a 100ms deadline
  // must not sit out a 60s backoff before reporting DeadlineExceeded.
  Fixture f(1000);
  const auto requests = FanOutRequests();
  const LogicalPlan plan = FanOutPlan();
  FaultInjector inj(7);
  inj.ArmProbability(FaultSite::kTaskStart, 1.0);
  ScopedFaultInjection scoped(&inj);
  CancellationToken token;
  token.SetDeadlineAfterMs(100);
  PlanExecutor exec(&f.catalog, "lineitem");
  exec.set_cancellation(&token);
  exec.set_max_task_retries(3);
  exec.set_retry_backoff_ms(60000);

  const auto start = std::chrono::steady_clock::now();
  auto r = exec.Execute(plan, requests);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  EXPECT_LT(elapsed_s, 5.0) << "backoff overslept the deadline";
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
}

TEST(CancellationTest, PreCancelledTokenStopsExecution) {
  Fixture f;
  const auto requests = FanOutRequests();
  const LogicalPlan plan = FanOutPlan();
  CancellationToken token;
  token.Cancel();
  PlanExecutor exec(&f.catalog, "lineitem", ScanMode::kRowStore, 4);
  exec.set_cancellation(&token);
  exec.set_max_task_retries(5);  // cancellation must not be retried
  auto r = exec.Execute(plan, requests);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);
}

TEST(CancellationTest, DeadlineExpiresDuringExecution) {
  Fixture f(200000);  // large enough that 1ms always expires mid-plan
  const auto requests = FanOutRequests();
  const LogicalPlan plan = FanOutPlan();
  CancellationToken token;
  token.SetDeadlineAfterMs(1);
  PlanExecutor exec(&f.catalog, "lineitem", ScanMode::kRowStore, 2);
  exec.set_cancellation(&token);
  exec.set_max_task_retries(5);
  auto r = exec.Execute(plan, requests);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  EXPECT_EQ(f.catalog.temp_bytes(), 0u);

  // Reset re-arms the token for a fault-free run.
  token.Reset();
  auto ok = exec.Execute(plan, requests);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->results.size(), requests.size());
}

TEST(SessionResilienceTest, OptionsPlumbRetriesDeadlineAndCancellation) {
  SessionOptions options;
  options.max_task_retries = 2;
  options.exec_deadline_ms = 60000;
  Session session(GenerateLineitem({.rows = 4000, .seed = 5}), options);

  auto r = session.Execute("SINGLE(l_returnflag, l_shipmode)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->results.size(), 2u);

  // An explicit Cancel persists across calls (the per-call deadline re-arm
  // must not clear it) until the caller resets the token.
  session.cancellation()->Cancel();
  auto cancelled = session.Execute("SINGLE(l_returnflag, l_shipmode)");
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled())
      << cancelled.status().ToString();

  session.cancellation()->Reset();
  auto again = session.Execute("SINGLE(l_returnflag, l_shipmode)");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(session.catalog()->temp_bytes(), 0u);
}

}  // namespace
}  // namespace gbmqo
