// Node-level DAG pipeline bench: sibling shared-scan fusion and the
// storage-aware admission gate in PlanExecutor.
//
//  (a) Fan-out workload — six single-column Group Bys over a 1M-row,
//      15-column sales table (one parent scan, six siblings): wall-clock
//      speedup of fused (one shared scan) over unfused (one scan per
//      sibling) execution at plan parallelism 1 and 4.
//  (b) Determinism — the fused run's WorkCounters and result-content
//      checksum at 1/2/8 workers, compared bit-for-bit.
//  (c) Storage — realized vs estimated peak temp bytes on a root+pairs
//      plan over an all-int64 table: the Section 4.4 schedule estimate,
//      the admission-gated run (must stay <= estimate) and the ungated
//      fused run (exceeds it by design).
//
// Emits BENCH_plan_pipeline.json at the repo root after the tables.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "data/sales_gen.h"

namespace gbmqo {
namespace {

using bench::Banner;
using bench::Speedup;

struct PipelineOutcome {
  double seconds = 0;
  WorkCounters counters;
  uint64_t peak_temp_bytes = 0;
  uint64_t content_checksum = 0;
};

/// FNV-1a over every cell of every result table, in canonical (ColumnSet,
/// row, column) order — equal checksums mean bit-identical result content.
uint64_t ContentChecksum(const ExecutionResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  for (const auto& [cols, table] : r.results) {
    mix(cols.ToString());
    for (size_t row = 0; row < table->num_rows(); ++row) {
      for (int c = 0; c < table->schema().num_columns(); ++c) {
        mix(table->column(c).ValueAt(row).ToString());
      }
    }
  }
  return h;
}

/// One full plan execution with the PR's knobs; `reps` keeps the minimum
/// wall time and the last run's counters/checksum (identical each rep).
PipelineOutcome RunPipeline(Catalog* catalog, const std::string& base,
                            const LogicalPlan& plan,
                            const std::vector<GroupByRequest>& requests,
                            int parallelism, bool fusion, int reps,
                            double budget = 0, WhatIfProvider* whatif = nullptr) {
  PipelineOutcome out;
  out.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    PlanExecutor exec(catalog, base, ScanMode::kRowStore, parallelism);
    exec.set_fusion_enabled(fusion);
    if (budget > 0 && whatif != nullptr) {
      exec.set_storage_budget(budget, whatif);
    }
    auto r = exec.Execute(plan, requests);
    if (!r.ok()) {
      std::fprintf(stderr, "plan execution failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    out.seconds = std::min(out.seconds, r->wall_seconds);
    out.counters = r->counters;
    out.peak_temp_bytes = r->peak_temp_bytes;
    out.content_checksum = ContentChecksum(*r);
  }
  return out;
}

/// Six fusable single-column siblings over the base relation.
LogicalPlan FanOutPlan(const std::vector<int>& cols) {
  LogicalPlan plan;
  for (int c : cols) {
    PlanNode leaf;
    leaf.columns = ColumnSet{c};
    leaf.required = true;
    plan.subplans.push_back(leaf);
  }
  return plan;
}

/// All-int64 base whose GROUP BY results realize the Section 4.4 estimates
/// to the byte (exact stats, 8-byte columns, COUNT(*) aggregates).
TablePtr MakeWideTable(size_t rows) {
  Schema schema({{"c0", DataType::kInt64, false},
                 {"c1", DataType::kInt64, false},
                 {"c2", DataType::kInt64, false}});
  TableBuilder b(schema);
  Rng rng(99);
  for (size_t i = 0; i < rows; ++i) {
    if (!b.AppendRow({Value(static_cast<int64_t>(rng.Uniform(100))),
                      Value(static_cast<int64_t>(rng.Uniform(90))),
                      Value(static_cast<int64_t>(rng.Uniform(80)))})
             .ok()) {
      std::fprintf(stderr, "table build failed\n");
      std::exit(1);
    }
  }
  return *b.Build("wide");
}

/// Root {c0,c1,c2} feeding three materialized pair siblings (fusable over
/// the root), each serving one single-column leaf.
LogicalPlan WidePlan() {
  auto pair_node = [](std::initializer_list<int> cols, int leaf) {
    PlanNode n;
    n.columns = ColumnSet(cols);
    n.required = true;
    PlanNode l;
    l.columns = ColumnSet{leaf};
    l.required = true;
    n.children = {l};
    return n;
  };
  PlanNode root;
  root.columns = {0, 1, 2};
  root.required = true;
  root.children = {pair_node({0, 1}, 0), pair_node({1, 2}, 1),
                   pair_node({0, 2}, 2)};
  LogicalPlan plan;
  plan.subplans = {root};
  return plan;
}

std::vector<GroupByRequest> RequestsOf(const LogicalPlan& plan) {
  std::vector<GroupByRequest> out;
  std::vector<const PlanNode*> stack;
  for (const PlanNode& sub : plan.subplans) stack.push_back(&sub);
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    if (n->required) out.push_back(GroupByRequest::Count(n->columns));
    for (const PlanNode& c : n->children) stack.push_back(&c);
  }
  return out;
}

}  // namespace
}  // namespace gbmqo

int main() {
  using namespace gbmqo;

  const size_t rows = bench::RowsFromEnv(1000000);
  Banner("bench_plan_pipeline: DAG scheduling + shared-scan fusion",
         "Section 5.2 execution layer (this repo's PlanExecutor)");
  std::printf("rows=%zu (set GBMQO_ROWS to change)\n", rows);

  // ---- (a) fusion speedup on the fan-out workload --------------------------
  TablePtr sales = GenerateSales({.rows = rows, .seed = 7});
  Catalog catalog;
  if (!catalog.RegisterBase(sales).ok()) return 1;
  const std::vector<int> fan_cols = {kRegion,      kState,   kCategory,
                                     kSubcategory, kChannel, kPaymentType};
  const LogicalPlan fan_plan = FanOutPlan(fan_cols);
  const auto fan_requests = RequestsOf(fan_plan);

  std::printf("\nfan-out: %zu sibling group-bys over one %d-column scan\n",
              fan_cols.size(), sales->schema().num_columns());
  std::printf("%-8s | %-12s | %-12s | %s\n", "workers", "unfused s",
              "fused s", "fusion speedup");
  struct FusionRow {
    int workers;
    double unfused_s;
    double fused_s;
  };
  std::vector<FusionRow> fusion_rows;
  for (const int workers : {1, 4}) {
    const auto unfused = RunPipeline(&catalog, "sales", fan_plan, fan_requests,
                                     workers, /*fusion=*/false, /*reps=*/3);
    const auto fused = RunPipeline(&catalog, "sales", fan_plan, fan_requests,
                                   workers, /*fusion=*/true, /*reps=*/3);
    std::printf("%-8d | %-12.4f | %-12.4f | %.2fx\n", workers,
                unfused.seconds, fused.seconds,
                Speedup(unfused.seconds, fused.seconds));
    fusion_rows.push_back({workers, unfused.seconds, fused.seconds});
  }

  // ---- (b) fused determinism across worker counts --------------------------
  std::printf("\nfused determinism vs 1 worker\n");
  std::printf("%-8s | %-10s | %s\n", "workers", "counters", "content");
  const auto fused1 = RunPipeline(&catalog, "sales", fan_plan, fan_requests, 1,
                                  true, 1);
  bool deterministic = true;
  for (const int workers : {2, 8}) {
    const auto r = RunPipeline(&catalog, "sales", fan_plan, fan_requests,
                               workers, true, 1);
    const bool counters_ok = fused1.counters == r.counters;
    const bool content_ok = fused1.content_checksum == r.content_checksum;
    deterministic = deterministic && counters_ok && content_ok;
    std::printf("%-8d | %-10s | %s\n", workers,
                counters_ok ? "identical" : "DIFFERENT",
                content_ok ? "identical" : "DIFFERENT");
  }

  // ---- (c) realized vs estimated peak storage ------------------------------
  const size_t wide_rows = std::max<size_t>(rows / 8, 10000);
  TablePtr wide = MakeWideTable(wide_rows);
  Catalog wide_catalog;
  if (!wide_catalog.RegisterBase(wide).ok()) return 1;
  StatisticsManager stats(*wide);
  WhatIfProvider whatif(&stats);
  LogicalPlan wide_plan = WidePlan();
  const auto wide_requests = RequestsOf(wide_plan);
  const double estimated = SchedulePlanStorage(&wide_plan, &whatif);

  const auto gated = RunPipeline(&wide_catalog, "wide", wide_plan,
                                 wide_requests, 4, /*fusion=*/false, 1,
                                 estimated, &whatif);
  const auto ungated = RunPipeline(&wide_catalog, "wide", wide_plan,
                                   wide_requests, 4, /*fusion=*/true, 1);
  std::printf("\nstorage (wide table, %zu rows)\n", wide_rows);
  std::printf("scheduled estimate : %12.0f bytes\n", estimated);
  std::printf("gated peak         : %12llu bytes (<= estimate: %s)\n",
              static_cast<unsigned long long>(gated.peak_temp_bytes),
              static_cast<double>(gated.peak_temp_bytes) <= estimated ? "yes"
                                                                     : "NO");
  std::printf("ungated fused peak : %12llu bytes\n",
              static_cast<unsigned long long>(ungated.peak_temp_bytes));

  // ---- JSON ----------------------------------------------------------------
#ifdef GBMQO_REPO_ROOT
  const std::string json_path =
      std::string(GBMQO_REPO_ROOT) + "/BENCH_plan_pipeline.json";
#else
  const std::string json_path = "BENCH_plan_pipeline.json";
#endif
  std::string json = "{\n  \"rows\": " + std::to_string(rows) +
                     ",\n  \"fusion\": [";
  for (size_t i = 0; i < fusion_rows.size(); ++i) {
    const FusionRow& fr = fusion_rows[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"workers\": %d, \"unfused_seconds\": %.6f, "
                  "\"fused_seconds\": %.6f, \"speedup\": %.3f}",
                  i == 0 ? "" : ",", fr.workers, fr.unfused_s, fr.fused_s,
                  Speedup(fr.unfused_s, fr.fused_s));
    json += buf;
  }
  json += "\n  ],\n  \"fused_deterministic_1_2_8\": ";
  json += deterministic ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\n  \"storage\": {\"estimated_peak_bytes\": %.0f, "
                "\"gated_peak_bytes\": %llu, \"ungated_peak_bytes\": %llu, "
                "\"gated_within_estimate\": %s}\n}\n",
                estimated,
                static_cast<unsigned long long>(gated.peak_temp_bytes),
                static_cast<unsigned long long>(ungated.peak_temp_bytes),
                static_cast<double>(gated.peak_temp_bytes) <= estimated
                    ? "true"
                    : "false");
  json += buf;

  std::printf("\n%s", json.c_str());
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
  }
  return 0;
}
