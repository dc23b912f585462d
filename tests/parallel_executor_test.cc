// Parallel sub-plan execution: the sub-plans of a logical plan share only
// the immutable base relation, so PlanExecutor can run them on several
// threads. Results must be identical to serial execution, temp tables must
// not leak, and the catalog must survive concurrent register/drop traffic.
#include <gtest/gtest.h>

#include <optional>

#include "common/rng.h"
#include "core/gbmqo.h"
#include "cost/optimizer_cost_model.h"
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
  explicit Fixture(size_t rows = 20000)
      : table(GenerateLineitem({.rows = rows, .seed = 12})), stats(*table),
        whatif(&stats) {
    EXPECT_TRUE(catalog.RegisterBase(table).ok());
  }
  TablePtr table;
  Catalog catalog;
  StatisticsManager stats;
  WhatIfProvider whatif;
};

class ParallelismTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelismTest, MatchesSerialExecution) {
  const int workers = GetParam();
  Fixture f;
  auto requests = SingleColumnRequests(LineitemAnalysisColumns());
  OptimizerCostModel model(*f.table);
  GbMqoOptimizer opt(&model, &f.whatif);
  auto plan = opt.Optimize(requests);
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan->plan.subplans.size(), 1u) << "need parallelizable forest";

  PlanExecutor serial(&f.catalog, "lineitem");
  auto a = serial.Execute(plan->plan, requests);
  ASSERT_TRUE(a.ok());

  PlanExecutor parallel(&f.catalog, "lineitem", ScanMode::kRowStore, workers);
  auto b = parallel.Execute(plan->plan, requests);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a->results.size(), b->results.size());
  for (const auto& [cols, ta] : a->results) {
    const TablePtr& tb = b->results.at(cols);
    ASSERT_EQ(ta->num_rows(), tb->num_rows()) << cols.ToString();
    // Total counts agree.
    const int cnt_a = ta->schema().FindColumn("cnt");
    const int cnt_b = tb->schema().FindColumn("cnt");
    int64_t sum_a = 0, sum_b = 0;
    for (size_t r = 0; r < ta->num_rows(); ++r) {
      sum_a += ta->column(cnt_a).Int64At(r);
    }
    for (size_t r = 0; r < tb->num_rows(); ++r) {
      sum_b += tb->column(cnt_b).Int64At(r);
    }
    EXPECT_EQ(sum_a, sum_b) << cols.ToString();
  }
  // Deterministic work is independent of the thread count.
  EXPECT_EQ(a->counters.rows_scanned, b->counters.rows_scanned);
  EXPECT_EQ(a->counters.rows_emitted, b->counters.rows_emitted);
  EXPECT_EQ(f.catalog.temp_bytes(), 0u) << "temp tables leaked";
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelismTest, ::testing::Values(2, 4, 8));

TEST(ParallelExecutorTest, NaivePlanParallelizesPerQuery) {
  Fixture f;
  auto requests = SingleColumnRequests(LineitemAnalysisColumns());
  PlanExecutor parallel(&f.catalog, "lineitem", ScanMode::kRowStore, 4);
  auto r = parallel.Execute(NaivePlan(requests), requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->results.size(), requests.size());
}

TEST(ParallelExecutorTest, SingleSubPlanFallsBackToSerial) {
  Fixture f;
  std::vector<GroupByRequest> requests = {GroupByRequest::Count({kReturnflag})};
  PlanExecutor parallel(&f.catalog, "lineitem", ScanMode::kRowStore, 8);
  auto r = parallel.Execute(NaivePlan(requests), requests);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->results.size(), 1u);
}

TEST(ParallelExecutorTest, RepeatedRunsStayConsistent) {
  // Stress the concurrent catalog register/drop path.
  Fixture f(8000);
  auto requests = SingleColumnRequests(LineitemAnalysisColumns());
  OptimizerCostModel model(*f.table);
  GbMqoOptimizer opt(&model, &f.whatif);
  auto plan = opt.Optimize(requests);
  ASSERT_TRUE(plan.ok());
  PlanExecutor parallel(&f.catalog, "lineitem", ScanMode::kRowStore, 6);
  for (int i = 0; i < 5; ++i) {
    auto r = parallel.Execute(plan->plan, requests);
    ASSERT_TRUE(r.ok()) << "iteration " << i << ": "
                        << r.status().ToString();
    EXPECT_EQ(f.catalog.temp_bytes(), 0u);
  }
}

// ---- fusion x node-parallelism matrix --------------------------------------

/// Cell-by-cell result equality: same tables, same row order, same values.
void ExpectIdenticalResults(const ExecutionResult& a,
                            const ExecutionResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [cols, ta] : a.results) {
    ASSERT_TRUE(b.results.count(cols)) << cols.ToString();
    const TablePtr& tb = b.results.at(cols);
    ASSERT_EQ(ta->num_rows(), tb->num_rows()) << cols.ToString();
    ASSERT_EQ(ta->schema().num_columns(), tb->schema().num_columns());
    for (int c = 0; c < ta->schema().num_columns(); ++c) {
      for (size_t r = 0; r < ta->num_rows(); ++r) {
        ASSERT_EQ(ta->column(c).ValueAt(r), tb->column(c).ValueAt(r))
            << cols.ToString() << " col " << c << " row " << r;
      }
    }
  }
}

/// Fan-out plan with fusable siblings at two levels: a materialized root
/// whose four plain children share one scan of it, plus a second sub-plan
/// root that can fuse with the first over the base relation.
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

TEST(FusionMatrixTest, FusionAndWorkersPreserveResultsAndCounters) {
  Fixture f;
  const auto requests = FanOutRequests();
  const LogicalPlan plan = FanOutPlan();
  ASSERT_TRUE(plan.Validate(requests).ok());

  // Baseline: the sequential seed path — no fusion, one task at a time.
  PlanExecutor seq(&f.catalog, "lineitem");
  seq.set_node_parallel(false);
  auto baseline = seq.Execute(plan, requests);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::optional<ExecutionResult> fused_ref;
  for (const bool fusion : {false, true}) {
    for (const int workers : {1, 2, 8}) {
      SCOPED_TRACE("fusion=" + std::to_string(fusion) +
                   " workers=" + std::to_string(workers));
      PlanExecutor exec(&f.catalog, "lineitem", ScanMode::kRowStore, workers);
      exec.set_fusion_enabled(fusion);
      auto r = exec.Execute(plan, requests);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // Results are bit-identical to the sequential baseline in every cell.
      ExpectIdenticalResults(*baseline, *r);
      EXPECT_EQ(f.catalog.temp_bytes(), 0u);
      if (!fusion) {
        // Unfused cells match the baseline counters exactly.
        EXPECT_EQ(baseline->counters, r->counters);
      } else if (!fused_ref.has_value()) {
        // First fused cell becomes the fused reference: fewer scanned rows
        // than one scan per plan edge, same emitted rows.
        EXPECT_LT(r->counters.rows_scanned, baseline->counters.rows_scanned);
        EXPECT_EQ(r->counters.rows_emitted, baseline->counters.rows_emitted);
        fused_ref = std::move(*r);
      } else {
        // Fused counters are bit-identical across worker counts.
        EXPECT_EQ(fused_ref->counters, r->counters);
      }
    }
  }
}

// ---- storage-aware admission gate ------------------------------------------

/// Base table for exact storage accounting: every column a non-nullable
/// int64 and every aggregate COUNT(*), so a materialized GROUP BY holds
/// exactly 8 * (columns + 1) bytes per distinct group — and with exact
/// statistics the what-if estimate equals the realized ByteSize.
TablePtr MakeWideTable(size_t rows) {
  Schema schema({{"c0", DataType::kInt64, false},
                 {"c1", DataType::kInt64, false},
                 {"c2", DataType::kInt64, false}});
  TableBuilder b(schema);
  Rng rng(99);
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(b.AppendRow({Value(static_cast<int64_t>(rng.Uniform(100))),
                             Value(static_cast<int64_t>(rng.Uniform(90))),
                             Value(static_cast<int64_t>(rng.Uniform(80)))})
                    .ok());
  }
  return *b.Build("wide");
}

/// Root {c0,c1,c2} with three materialized pair children, each serving one
/// single-column leaf. The pairs are fusable siblings over the root.
LogicalPlan WidePlan() {
  PlanNode c01;
  c01.columns = {0, 1};
  c01.required = true;
  c01.children = {Leaf({0})};
  PlanNode c12;
  c12.columns = {1, 2};
  c12.required = true;
  c12.children = {Leaf({1})};
  PlanNode c02;
  c02.columns = {0, 2};
  c02.required = true;
  c02.children = {Leaf({2})};
  PlanNode root;
  root.columns = {0, 1, 2};
  root.required = true;
  root.children = {c01, c12, c02};
  LogicalPlan plan;
  plan.subplans = {root};
  return plan;
}

std::vector<GroupByRequest> WideRequests() {
  return {GroupByRequest::Count({0, 1, 2}), GroupByRequest::Count({0, 1}),
          GroupByRequest::Count({1, 2}),    GroupByRequest::Count({0, 2}),
          GroupByRequest::Count({0}),       GroupByRequest::Count({1}),
          GroupByRequest::Count({2})};
}

TEST(StorageBudgetTest, AdmissionGateKeepsPeakUnderBudget) {
  TablePtr t = MakeWideTable(60000);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterBase(t).ok());
  StatisticsManager stats(*t);
  WhatIfProvider whatif(&stats);

  const auto requests = WideRequests();
  LogicalPlan plan = WidePlan();
  ASSERT_TRUE(plan.Validate(requests).ok());
  const double budget = SchedulePlanStorage(&plan, &whatif);
  ASSERT_GT(budget, 0.0);

  // Ungated, fused: the shared-scan task registers all three pair tables
  // before the root can drop, so the realized peak deterministically
  // exceeds the scheduled bound for any worker count.
  PlanExecutor ungated(&catalog, "wide");
  ungated.set_fusion_enabled(true);
  auto over = ungated.Execute(plan, requests);
  ASSERT_TRUE(over.ok()) << over.status().ToString();
  EXPECT_GT(static_cast<double>(over->peak_temp_bytes), budget);

  // Gated at the SchedulePlanStorage bound with node parallelism: the
  // admission gate defers pair siblings instead of letting them pile up, so
  // the realized peak never exceeds the scheduled estimate.
  PlanExecutor gated(&catalog, "wide", ScanMode::kRowStore, 4);
  gated.set_storage_budget(budget, &whatif);
  auto under = gated.Execute(plan, requests);
  ASSERT_TRUE(under.ok()) << under.status().ToString();
  EXPECT_LE(static_cast<double>(under->peak_temp_bytes), budget);
  EXPECT_EQ(catalog.temp_bytes(), 0u);

  // Gating changes scheduling only, never answers.
  ExpectIdenticalResults(*over, *under);
}

TEST(StorageBudgetTest, RealizedPeakMatchesEstimateExactly) {
  // With exact statistics over all-int64 data the Section 4.4 estimate is
  // not just a bound: the sequential DF execution realizes it to the byte.
  TablePtr t = MakeWideTable(60000);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterBase(t).ok());
  StatisticsManager stats(*t);
  WhatIfProvider whatif(&stats);

  const auto requests = WideRequests();
  LogicalPlan plan = WidePlan();
  ASSERT_TRUE(plan.Validate(requests).ok());
  const double scheduled = SchedulePlanStorage(&plan, &whatif);

  PlanExecutor exec(&catalog, "wide");
  exec.set_node_parallel(false);
  auto r = exec.Execute(plan, requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(static_cast<double>(r->peak_temp_bytes), scheduled);
}

}  // namespace
}  // namespace gbmqo
