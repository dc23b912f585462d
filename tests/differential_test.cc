// Randomized differential testing of the whole planning + execution stack:
// for seeded random request sets, the optimizer plan, the exhaustive-DP
// plan, and the GROUPING SETS baseline plan must all produce row-for-row
// identical result tables — and each plan must produce bit-identical
// results *and WorkCounters* at parallelism 1 and 4 (the morsel engine's
// fixed shard/partition layout makes counters thread-count independent).
// Each trial additionally re-runs the optimizer plan with every aggregation
// kernel forced (dense-array, packed, multi-word, sort-runs — see
// exec/agg_kernel.h) and requires the same results and per-kernel counter
// invariance.
//
// Aggregates are chosen so exact cross-plan comparison is sound: COUNT(*)
// and SUM over small-integer columns are exact in double at these row
// counts regardless of accumulation order, and MIN/MAX are order-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/exhaustive.h"
#include "core/grouping_sets_planner.h"
#include "core/optimizer.h"
#include "core/plan_executor.h"
#include "cost/optimizer_cost_model.h"
#include "counters_testing.h"
#include "data/sales_gen.h"
#include "data/tpch_gen.h"

namespace gbmqo {
namespace {

/// One dataset shared by all trials (exact statistics are cached across
/// trials in the StatisticsManager, so repeated optimizer runs stay cheap).
struct Dataset {
  Dataset(TablePtr t, std::vector<int> pool, int sum_col, int minmax_col)
      : table(std::move(t)),
        stats(*table),
        whatif(&stats),
        group_pool(std::move(pool)),
        sum_col(sum_col),
        minmax_col(minmax_col) {
    EXPECT_TRUE(catalog.RegisterBase(table).ok());
  }

  TablePtr table;
  Catalog catalog;
  StatisticsManager stats;
  WhatIfProvider whatif;
  std::vector<int> group_pool;  ///< grouping-column candidates
  int sum_col;                  ///< small-integer column (exact SUM)
  int minmax_col;               ///< any numeric column (order-free MIN/MAX)
};

/// ~66k rows: just over one 64Ki-row morsel, so hash aggregation takes the
/// real multi-shard build + partitioned-merge path.
Dataset& SalesData() {
  static Dataset* d = new Dataset(
      GenerateSales({.rows = 66000, .seed = 101}),
      {kStoreId, kRegion, kState, kCategory, kSubcategory, kBrand, kPromoId,
       kChannel, kOrderDate, kPaymentType},
      kSalesQuantity, kUnitPrice);
  return *d;
}

/// Small skewed lineitem (single-morsel fast path; Zipf draws as in the
/// paper's Figure 13 variants).
Dataset& ZipfData() {
  static Dataset* d = new Dataset(
      GenerateLineitem({.rows = 4000, .zipf_theta = 0.8, .seed = 33}),
      LineitemAnalysisColumns(), kQuantity, kExtendedprice);
  return *d;
}

/// 2–5 distinct random requests of 1–3 grouping columns; aggregates beyond
/// COUNT(*) are added with per-request coin flips.
std::vector<GroupByRequest> RandomRequests(Rng* rng, const Dataset& d) {
  const size_t nreq = 2 + rng->Uniform(4);
  std::set<uint64_t> seen;
  std::vector<GroupByRequest> out;
  for (int attempts = 0; out.size() < nreq && attempts < 100; ++attempts) {
    const size_t ncols = 1 + rng->Uniform(3);
    ColumnSet cols;
    for (size_t c = 0; c < ncols; ++c) {
      cols = cols.With(d.group_pool[rng->Uniform(d.group_pool.size())]);
    }
    if (!seen.insert(cols.mask()).second) continue;
    GroupByRequest req;
    req.columns = cols;
    req.aggs = {AggRequest{}};  // COUNT(*)
    if (rng->Uniform(2) == 0) {
      req.aggs.push_back(AggRequest{AggKind::kSum, d.sum_col});
    }
    if (rng->Uniform(3) == 0) {
      req.aggs.push_back(AggRequest{AggKind::kMax, d.minmax_col});
    }
    if (rng->Uniform(4) == 0) {
      req.aggs.push_back(AggRequest{AggKind::kMin, d.minmax_col});
    }
    out.push_back(std::move(req));
  }
  return out;
}

/// Order-independent canonical form of a result table, projected onto what
/// the request asked for: grouping columns plus the request's aggregate
/// output columns. (A plan may legally materialize *extra* aggregate
/// columns on a result node that also feeds children — UnionAggs — so raw
/// schemas are not comparable across plans, but the requested projection
/// must be.) Rows are rendered as name=value runs and sorted.
std::vector<std::string> CanonicalRows(const Table& t,
                                       const GroupByRequest& req,
                                       const Schema& base_schema) {
  std::vector<std::string> names;
  for (int c : req.columns.ToVector()) {
    names.push_back(base_schema.column(c).name);
  }
  for (const AggRequest& agg : req.aggs) {
    names.push_back(AggOutputName(agg, base_schema));
  }
  std::vector<const Column*> cols;
  for (const std::string& name : names) {
    const int ord = t.schema().FindColumn(name);
    EXPECT_GE(ord, 0) << "result " << t.name() << " lacks column " << name;
    if (ord < 0) return {};
    cols.push_back(&t.column(ord));
  }
  std::vector<std::string> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string s;
    for (size_t c = 0; c < cols.size(); ++c) {
      s += names[c] + "=" + cols[c]->ValueAt(r).ToString() + "|";
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

using CanonicalResults = std::map<ColumnSet, std::vector<std::string>>;

struct RunOutcome {
  CanonicalResults results;
  WorkCounters counters;
};

RunOutcome Execute(Dataset* d, const LogicalPlan& plan,
                   const std::vector<GroupByRequest>& requests, ScanMode mode,
                   int parallelism,
                   std::optional<AggKernel> forced_kernel = std::nullopt,
                   bool force_scalar = false) {
  PlanExecutor exec(&d->catalog, d->table->name(), mode, parallelism);
  exec.set_forced_kernel(forced_kernel);
  exec.set_force_scalar(force_scalar);
  auto r = exec.Execute(plan, requests);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  RunOutcome out;
  if (!r.ok()) return out;
  out.counters = r->counters;
  for (const GroupByRequest& req : requests) {
    auto it = r->results.find(req.columns);
    EXPECT_TRUE(it != r->results.end())
        << "no result for " << req.columns.ToString();
    if (it == r->results.end()) continue;
    out.results[req.columns] =
        CanonicalRows(*it->second, req, d->table->schema());
  }
  return out;
}

void RunTrial(Dataset* d, uint64_t seed, ScanMode mode) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  const std::vector<GroupByRequest> requests = RandomRequests(&rng, *d);
  ASSERT_GE(requests.size(), 2u);
  ASSERT_TRUE(ValidateRequests(requests, d->table->schema()).ok());

  OptimizerCostModel greedy_model(*d->table);
  GbMqoOptimizer optimizer(&greedy_model, &d->whatif);
  auto greedy = optimizer.Optimize(requests);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();

  OptimizerCostModel exact_model(*d->table);
  ExhaustiveOptimizer exhaustive(&exact_model, &d->whatif);
  auto exact = exhaustive.Optimize(requests);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();

  auto baseline = GroupingSetsPlanner().Plan(requests, d->table->schema());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::vector<std::pair<std::string, const LogicalPlan*>> plans = {
      {"optimizer", &greedy->plan},
      {"exhaustive", &exact->plan},
      {"grouping-sets", &*baseline},
  };

  CanonicalResults reference;
  for (const auto& [name, plan] : plans) {
    const RunOutcome serial = Execute(d, *plan, requests, mode, 1);
    const RunOutcome parallel = Execute(d, *plan, requests, mode, 4);
    // Same plan, different thread count: results AND counters identical.
    EXPECT_EQ(serial.results, parallel.results) << name;
    EXPECT_EQ(serial.counters, parallel.counters) << name;
    // Across plans: identical result tables (counters legitimately differ —
    // that difference is the whole point of GB-MQO).
    if (reference.empty()) {
      reference = serial.results;
      ASSERT_EQ(reference.size(), requests.size()) << name;
    } else {
      EXPECT_EQ(reference, serial.results) << name << " vs optimizer plan";
    }
  }

  // Every aggregation kernel, forced end to end through the optimizer plan,
  // must reproduce the reference results — and each kernel's counters must
  // themselves be thread-count invariant. (A forced kernel that is
  // ineligible for some query falls down the ladder, so this also covers
  // mixed-kernel plans.) Each kernel is additionally re-run pinned to the
  // scalar SIMD tier (set_force_scalar) at 1 and 8 workers: the vectorized
  // hot loops — key formation, tagged hash probe, columnar selection and
  // accumulate — must be bit-identical to scalar execution in both result
  // tables and every WorkCounters field, across the force_scalar x
  // parallelism {1,4,8} matrix.
  for (AggKernel kernel : {AggKernel::kDenseArray, AggKernel::kPackedKey,
                           AggKernel::kMultiWord, AggKernel::kSortRuns}) {
    const std::string what = std::string("forced ") + AggKernelName(kernel);
    SCOPED_TRACE(what);
    const RunOutcome serial =
        Execute(d, greedy->plan, requests, mode, 1, kernel);
    const RunOutcome parallel =
        Execute(d, greedy->plan, requests, mode, 4, kernel);
    EXPECT_EQ(serial.results, reference);
    EXPECT_EQ(parallel.results, reference);
    EXPECT_EQ(serial.counters, parallel.counters) << what;

    const RunOutcome scalar_serial = Execute(d, greedy->plan, requests, mode,
                                             1, kernel, /*force_scalar=*/true);
    const RunOutcome scalar_wide = Execute(d, greedy->plan, requests, mode, 8,
                                           kernel, /*force_scalar=*/true);
    EXPECT_EQ(scalar_serial.results, reference) << what << " scalar";
    EXPECT_EQ(scalar_wide.results, reference) << what << " scalar par8";
    EXPECT_EQ(serial.counters, scalar_serial.counters)
        << what << " simd-vs-scalar";
    EXPECT_EQ(scalar_serial.counters, scalar_wide.counters)
        << what << " scalar par1-vs-par8";
  }
}

TEST(DifferentialTest, ZipfLineitemTrials) {
  // 40 fast trials on the single-morsel path (columnar scans keep the
  // 3-plans x 2-parallelism matrix cheap).
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RunTrial(&ZipfData(), seed, ScanMode::kColumnar);
  }
}

TEST(DifferentialTest, ZipfLineitemRowStoreTrials) {
  // Row-store scans add the scan-touch checksum to the counters under test.
  for (uint64_t seed = 100; seed < 108; ++seed) {
    RunTrial(&ZipfData(), seed, ScanMode::kRowStore);
  }
}

TEST(DifferentialTest, SalesMultiMorselTrials) {
  // 66k rows: two morsels, so parallel runs take the real multi-shard
  // build + partitioned-merge path and the checksum crosses shards.
  for (uint64_t seed = 200; seed < 208; ++seed) {
    RunTrial(&SalesData(), seed, ScanMode::kRowStore);
  }
}

}  // namespace
}  // namespace gbmqo
