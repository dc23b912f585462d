#include "core/optimizer.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cost/optimizer_cost_model.h"
#include "data/tpch_gen.h"

namespace gbmqo {
namespace {

/// Small correlated table: (a,b) pair has tiny joint cardinality, c is
/// near-unique — merging (a),(b) should pay off, merging with (c) should not.
TablePtr MakeCorrelatedTable(int rows) {
  TableBuilder b(Schema({{"a", DataType::kInt64, false},
                         {"b", DataType::kInt64, false},
                         {"c", DataType::kInt64, false},
                         {"d", DataType::kInt64, false}}));
  Rng rng(3);
  for (int i = 0; i < rows; ++i) {
    const int64_t a = static_cast<int64_t>(rng.Uniform(8));
    EXPECT_TRUE(b.AppendRow({Value(a), Value(a * 3 + static_cast<int64_t>(rng.Uniform(3))),
                             Value(static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(rows)))),
                             Value(static_cast<int64_t>(rng.Uniform(12)))})
                    .ok());
  }
  return *b.Build("corr");
}

struct Fixture {
  explicit Fixture(int rows = 20000)
      : table(MakeCorrelatedTable(rows)), stats(*table), whatif(&stats) {}
  TablePtr table;
  StatisticsManager stats;
  WhatIfProvider whatif;
};

TEST(OptimizerTest, NeverWorseThanNaive) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  GbMqoOptimizer opt(&model, &f.whatif);
  auto r = opt.Optimize(SingleColumnRequests({0, 1, 2, 3}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LE(r->cost, r->naive_cost);
}

TEST(OptimizerTest, MergesCorrelatedColumns) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  GbMqoOptimizer opt(&model, &f.whatif);
  auto r = opt.Optimize(SingleColumnRequests({0, 1, 2, 3}));
  ASSERT_TRUE(r.ok());
  // (a), (b), (d) are cheap to merge; (c) is near-unique and must stay a
  // direct child of R.
  EXPECT_LT(r->cost, r->naive_cost);
  bool c_is_root_child = false;
  for (const PlanNode& sub : r->plan.subplans) {
    if (sub.columns == ColumnSet{2} && sub.is_leaf()) c_is_root_child = true;
    // No intermediate should include the near-unique column c.
    if (!sub.is_leaf()) {
      EXPECT_FALSE(sub.columns.Contains(2));
    }
  }
  EXPECT_TRUE(c_is_root_child);
}

TEST(OptimizerTest, PlanValidatesAndCostMatchesRecomputation) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  GbMqoOptimizer opt(&model, &f.whatif);
  auto requests = SingleColumnRequests({0, 1, 3});
  auto r = opt.Optimize(requests);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->plan.Validate(requests).ok());
  // The incrementally tracked cost must equal pricing the final plan.
  EXPECT_NEAR(r->cost, CostPlan(r->plan, &model, &f.whatif),
              1e-6 * (1 + r->cost));
}

TEST(OptimizerTest, SingleRequestIsNaive) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  GbMqoOptimizer opt(&model, &f.whatif);
  auto r = opt.Optimize(SingleColumnRequests({0}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan.subplans.size(), 1u);
  EXPECT_TRUE(r->plan.subplans[0].is_leaf());
  EXPECT_DOUBLE_EQ(r->cost, r->naive_cost);
}

TEST(OptimizerTest, RejectsInvalidRequests) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  GbMqoOptimizer opt(&model, &f.whatif);
  EXPECT_FALSE(opt.Optimize({}).ok());
  EXPECT_FALSE(opt.Optimize({GroupByRequest::Count(ColumnSet{40})}).ok());
}

// Pruning soundness (Section 4.3): under the cardinality cost model with
// type-(b) merges only, enabling either pruning technique must not change
// the final plan cost.
class PruningSoundnessTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(PruningSoundnessTest, SameCostAsUnpruned) {
  auto [subsumption, monotonicity] = GetParam();
  TablePtr t = GenerateLineitem({.rows = 5000, .seed = 99});
  StatisticsManager stats(*t);
  WhatIfProvider whatif(&stats);
  auto requests = SingleColumnRequests(LineitemAnalysisColumns());

  auto run = [&](bool s, bool m) {
    CardinalityCostModel model;
    OptimizerOptions opts;
    opts.only_type_b = true;
    opts.subsumption_pruning = s;
    opts.monotonicity_pruning = m;
    GbMqoOptimizer opt(&model, &whatif, opts);
    auto r = opt.Optimize(requests);
    EXPECT_TRUE(r.ok());
    return r->cost;
  };

  const double base = run(false, false);
  const double pruned = run(subsumption, monotonicity);
  EXPECT_NEAR(pruned, base, 1e-6 * (1 + base));
}

INSTANTIATE_TEST_SUITE_P(Prunings, PruningSoundnessTest,
                         ::testing::Values(std::make_tuple(true, false),
                                           std::make_tuple(false, true),
                                           std::make_tuple(true, true)));

TEST(OptimizerTest, PruningReducesMergeEvaluations) {
  TablePtr t = GenerateLineitem({.rows = 5000, .seed = 99});
  StatisticsManager stats(*t);
  WhatIfProvider whatif(&stats);
  auto requests = TwoColumnRequests(
      {kQuantity, kReturnflag, kLinestatus, kShipdate, kShipmode});

  auto run = [&](bool s, bool m) {
    OptimizerCostModel model(*t);
    OptimizerOptions opts;
    opts.subsumption_pruning = s;
    opts.monotonicity_pruning = m;
    GbMqoOptimizer opt(&model, &whatif, opts);
    auto r = opt.Optimize(requests);
    EXPECT_TRUE(r.ok());
    return r->stats;
  };
  const OptimizerStats none = run(false, false);
  const OptimizerStats both = run(true, true);
  EXPECT_LT(both.merges_evaluated, none.merges_evaluated);
  EXPECT_GT(both.pairs_pruned_subsumption + both.pairs_pruned_monotonicity,
            0u);
}

TEST(OptimizerTest, BinaryRestrictionCostsNoMoreEvaluationsThanFull) {
  Fixture f;
  auto requests = SingleColumnRequests({0, 1, 2, 3});
  OptimizerCostModel m1(*f.table), m2(*f.table);
  OptimizerOptions binary;
  binary.only_type_b = true;
  GbMqoOptimizer full(&m1, &f.whatif), restricted(&m2, &f.whatif, binary);
  auto rf = full.Optimize(requests);
  auto rb = restricted.Optimize(requests);
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_LE(rb->stats.candidates_costed, rf->stats.candidates_costed);
  EXPECT_TRUE(rb->plan.Validate(requests).ok());
}

TEST(OptimizerTest, StorageConstraintForcesNaive) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  OptimizerOptions opts;
  opts.max_intermediate_storage_bytes = 1.0;  // nothing fits
  GbMqoOptimizer opt(&model, &f.whatif, opts);
  auto requests = SingleColumnRequests({0, 1, 3});
  auto r = opt.Optimize(requests);
  ASSERT_TRUE(r.ok());
  // Every sub-plan must be a leaf: no materialization possible.
  for (const PlanNode& sub : r->plan.subplans) EXPECT_TRUE(sub.is_leaf());
  EXPECT_DOUBLE_EQ(r->cost, r->naive_cost);
}

TEST(OptimizerTest, StorageConstraintLooseEqualsUnconstrained) {
  Fixture f;
  auto requests = SingleColumnRequests({0, 1, 2, 3});
  OptimizerCostModel m1(*f.table), m2(*f.table);
  OptimizerOptions capped;
  capped.max_intermediate_storage_bytes = 1e15;
  GbMqoOptimizer unconstrained(&m1, &f.whatif);
  GbMqoOptimizer constrained(&m2, &f.whatif, capped);
  auto r1 = unconstrained.Optimize(requests);
  auto r2 = constrained.Optimize(requests);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->cost, r2->cost);
}

TEST(OptimizerTest, CubeExtensionStillValid) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  OptimizerOptions opts;
  opts.enable_cube = true;
  opts.enable_rollup = true;
  GbMqoOptimizer opt(&model, &f.whatif, opts);
  auto requests = std::vector<GroupByRequest>{
      GroupByRequest::Count({0}), GroupByRequest::Count({1}),
      GroupByRequest::Count({0, 1})};
  auto r = opt.Optimize(requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->plan.Validate(requests).ok());
  EXPECT_LE(r->cost, r->naive_cost);
}

TEST(OptimizerTest, MultiAggregateRequestsCarryThrough) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  GbMqoOptimizer opt(&model, &f.whatif);
  std::vector<GroupByRequest> requests = {
      {ColumnSet{0}, {AggRequest{}, AggRequest{AggKind::kSum, 2}}},
      {ColumnSet{1}, {AggRequest{AggKind::kMin, 3}}},
      GroupByRequest::Count({3}),
  };
  auto r = opt.Optimize(requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->plan.Validate(requests).ok());
}

TEST(OptimizerTest, StatsPopulated) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  GbMqoOptimizer opt(&model, &f.whatif);
  auto r = opt.Optimize(SingleColumnRequests({0, 1, 2, 3}));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.iterations, 0u);
  EXPECT_GT(r->stats.merges_evaluated, 0u);
  EXPECT_GT(r->stats.candidates_costed, 0u);
  EXPECT_GT(r->stats.optimizer_calls, 0u);
  EXPECT_GE(r->stats.optimization_seconds, 0.0);
}

TEST(OptimizerTest, QuadraticMergeBound) {
  // The memoized search evaluates each pair at most once: merges_evaluated
  // <= C(n + iterations, 2) — comfortably bounded by (2n)^2.
  TablePtr t = GenerateLineitem({.rows = 3000, .seed = 5});
  StatisticsManager stats(*t);
  WhatIfProvider whatif(&stats);
  OptimizerCostModel model(*t);
  OptimizerOptions opts;
  opts.subsumption_pruning = false;
  opts.monotonicity_pruning = false;
  GbMqoOptimizer opt(&model, &whatif, opts);
  auto requests = SingleColumnRequests(LineitemAnalysisColumns());
  const uint64_t n = requests.size();
  auto r = opt.Optimize(requests);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->stats.merges_evaluated, (2 * n) * (2 * n));
}

TEST(OptimizerTest, ExactCachedViewServesRequestForFree) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  auto requests = SingleColumnRequests({0, 1, 2, 3});

  OptimizerOptions opts;
  CachedViewDesc view;
  view.columns = requests[2].columns;  // {2}, the expensive near-unique one
  view.aggs = requests[2].aggs;
  const NodeDesc d = f.whatif.Describe(view.columns, 1);
  view.rows = d.rows;
  view.row_width = d.row_width;
  opts.cached_views.push_back(view);

  GbMqoOptimizer opt(&model, &f.whatif, opts);
  auto r = opt.Optimize(requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->cache_edges.size(), 1u);
  EXPECT_EQ(r->cache_edges.begin()->first, 2u);
  EXPECT_EQ(r->cache_edges.begin()->second, 0u);
  // The served request has no leaf in the plan.
  for (const PlanNode& sub : r->plan.subplans) {
    EXPECT_FALSE(sub.required && sub.columns == requests[2].columns);
  }
  // naive_cost still prices every request from R, so serving {2} for free
  // must beat both the naive plan and the cache-less optimum.
  GbMqoOptimizer no_cache(&model, &f.whatif);
  auto base = no_cache.Optimize(requests);
  ASSERT_TRUE(base.ok());
  EXPECT_LT(r->cost, base->cost);
  EXPECT_EQ(r->naive_cost, base->naive_cost);
}

TEST(OptimizerTest, SupersetCachedViewCostedAsReaggregation) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  auto requests = SingleColumnRequests({0, 1});

  // A pinned (a,b) COUNT(*) aggregate covers both single-column requests by
  // re-aggregation; its tiny cardinality makes the serve edge beat a base
  // scan for each.
  OptimizerOptions opts;
  CachedViewDesc view;
  view.columns = ColumnSet{0, 1};
  view.aggs = {AggRequest{}};
  const NodeDesc d = f.whatif.Describe(view.columns, 1);
  view.rows = d.rows;
  view.row_width = d.row_width;
  opts.cached_views.push_back(view);

  GbMqoOptimizer opt(&model, &f.whatif, opts);
  auto r = opt.Optimize(requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->cache_edges.size(), 2u);
  EXPECT_TRUE(r->plan.subplans.empty());
  EXPECT_GT(r->cost, 0.0);  // re-aggregation is cheap but not free
  EXPECT_LT(r->cost, r->naive_cost);
}

TEST(OptimizerTest, CachedViewMissingAggregateIsIgnored) {
  Fixture f;
  OptimizerCostModel model(*f.table);
  std::vector<GroupByRequest> requests = {
      GroupByRequest{ColumnSet{0}, {AggRequest{AggKind::kSum, 2}}}};

  OptimizerOptions opts;
  CachedViewDesc view;
  view.columns = ColumnSet{0};
  view.aggs = {AggRequest{}};  // COUNT(*) only — cannot answer SUM(c)
  const NodeDesc d = f.whatif.Describe(view.columns, 1);
  view.rows = d.rows;
  view.row_width = d.row_width;
  opts.cached_views.push_back(view);

  GbMqoOptimizer opt(&model, &f.whatif, opts);
  auto r = opt.Optimize(requests);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->cache_edges.empty());
  ASSERT_EQ(r->plan.subplans.size(), 1u);
}

}  // namespace
}  // namespace gbmqo
