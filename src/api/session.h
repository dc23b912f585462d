// Session: the one-object entry point to the library — the client-side
// realization of Section 5 as an application would embed it. Bundles the
// catalog, statistics, cost model, optimizer, executor and the GROUPING
// SETS parser behind a handful of calls:
//
//   Session session(GenerateLineitem({.rows = 100000}));
//   auto result = session.Execute("SINGLE(l_returnflag, l_shipmode)");
//   std::cout << session.Explain("SINGLE(l_returnflag, l_shipmode)");
#ifndef GBMQO_API_SESSION_H_
#define GBMQO_API_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "core/delta_maintenance.h"
#include "core/gbmqo.h"
#include "stats/statistics_manager.h"

namespace gbmqo {

struct SessionOptions {
  /// Statistics: exact (fullscan) or sampled (shared sample + hybrid
  /// GEE/Chao estimation).
  DistinctMode stats_mode = DistinctMode::kExact;
  uint64_t sample_size = 100000;
  /// Search configuration (pruning, merge shapes, CUBE/ROLLUP, storage cap).
  OptimizerOptions optimizer;
  /// Row-store scan simulation vs native columnar execution.
  ScanMode scan_mode = ScanMode::kRowStore;
  /// Total execution thread budget, split between independent sub-plans and
  /// intra-query morsel parallelism (see PlanExecutor). Results and work
  /// counters are bit-identical for any value.
  int parallelism = 1;
  /// Fuse eligible sibling Group By nodes into one shared-scan pass (see
  /// PlanExecutor::set_fusion_enabled). Off by default so scan counters
  /// reflect one scan per plan edge; results are identical either way.
  bool shared_scan_fusion = false;
  /// Run independent plan-DAG tasks concurrently (see
  /// PlanExecutor::set_node_parallel). On by default; only changes wall
  /// clock, never results or counters.
  bool node_parallelism = true;
  /// Storage-aware admission gate: when > 0, a plan node is not scheduled
  /// while the estimated live temp-table bytes would exceed this budget
  /// (see PlanExecutor::set_storage_budget). 0 disables the gate.
  double max_exec_storage_bytes = 0;
  /// Out-of-core aggregation (see QueryExecutor::SpillOptions and
  /// PlanExecutor::set_spill). When max_spill_bytes > 0 or force_spill is
  /// set, max_exec_storage_bytes becomes a hard cap instead of a refusal: a
  /// hash aggregation whose realized group-table bytes would exceed it
  /// radix-partitions its input into spill files and completes partition-
  /// wise, with results bit-identical to the in-memory path. Directory ""
  /// = the system temp directory; files live in a per-aggregation
  /// subdirectory removed when the aggregation ends, however it ends.
  std::string spill_directory;
  /// Cap on one aggregation's total spill-file bytes; exceeding it fails
  /// the query with ResourceExhausted. 0 together with force_spill unset
  /// keeps out-of-core execution disabled (the refuse-over-budget seed
  /// behaviour).
  uint64_t max_spill_bytes = 0;
  /// Routes every eligible hash aggregation through the spill path even
  /// when under budget (differential-testing and bench knob).
  bool force_spill = false;
  /// Resilience: extra attempts allowed per failed DAG task (default 0 =
  /// fail fast). Re-attempts walk the degradation ladder — fused tasks
  /// split into per-query passes, temp-table readers recompute from the
  /// base relation, memory-pressure failures retry serialized on the
  /// low-footprint kernel (see PlanExecutor::set_max_task_retries).
  int max_task_retries = 0;
  /// Sleep before the k-th re-attempt of a task: k * retry_backoff_ms.
  double retry_backoff_ms = 0;
  /// Wall-clock deadline for each ExecutePlan call, in milliseconds; when
  /// > 0 the session arms its cancellation token at call entry and the
  /// executor returns Status::DeadlineExceeded once it fires. 0 disables.
  uint64_t exec_deadline_ms = 0;
  /// Pins execution to the scalar SIMD tier regardless of the host CPU
  /// (see QueryExecutor::set_force_scalar and exec/simd.h). Results and
  /// work counters are bit-identical either way; this is a differential-
  /// testing and bench-baseline knob. The GBMQO_DISABLE_SIMD environment
  /// variable forces the same thing process-wide.
  bool force_scalar = false;
};

// ---- SessionOptions -> executors ---------------------------------------
//
// The one place SessionOptions become executor settings. Session and Server
// build every executor through these, then add what differs between them:
// the storage gate, cancellation, aggregate cache and governor.

/// A PlanExecutor over `base_table` with the options' scan mode,
/// parallelism, fusion, node parallelism, SIMD tier, task retries and spill.
PlanExecutor MakePlanExecutor(Catalog* catalog, std::string base_table,
                              const SessionOptions& options);

/// A QueryExecutor with the options' scan mode, parallelism and SIMD tier.
QueryExecutor MakeQueryExecutor(ExecContext* ctx,
                                const SessionOptions& options);

/// Cache-maintenance settings: the options' parallelism and SIMD tier
/// (maintenance keeps its own columnar scan mode).
DeltaMaintenanceOptions MakeMaintenanceOptions(const SessionOptions& options);

/// Owns everything needed to optimize and execute multi-Group-By workloads
/// over one base relation. Not thread-safe (one session per thread).
class Session {
 public:
  /// Takes shared ownership of the base relation.
  explicit Session(TablePtr base, SessionOptions options = {});

  // ---- workload specification --------------------------------------------

  /// Parses a GROUPING SETS spec ("(a), (b), (a, c)" or "SINGLE(...)" /
  /// "PAIRS(...)") against the base schema.
  Result<std::vector<GroupByRequest>> Parse(const std::string& spec) const;

  // ---- planning / inspection ---------------------------------------------

  /// Runs GB-MQO and returns the plan with costs and search stats.
  Result<OptimizerResult> Optimize(const std::vector<GroupByRequest>& requests);
  Result<OptimizerResult> Optimize(const std::string& spec);

  /// EXPLAIN rendering of the GB-MQO plan for the workload.
  Result<std::string> Explain(const std::string& spec);

  /// The Section 5.2 SQL script for the GB-MQO plan.
  Result<std::vector<SqlStatement>> GenerateSql(const std::string& spec);

  // ---- execution -----------------------------------------------------------

  /// Optimizes and executes; one result table per request.
  Result<ExecutionResult> Execute(const std::vector<GroupByRequest>& requests);
  Result<ExecutionResult> Execute(const std::string& spec);

  /// Executes a specific plan (e.g. the naive plan, or a baseline).
  Result<ExecutionResult> ExecutePlan(const LogicalPlan& plan,
                                      const std::vector<GroupByRequest>& requests);

  // ---- component access ----------------------------------------------------

  const Table& base() const { return *base_; }
  Catalog* catalog() { return &catalog_; }
  StatisticsManager* stats() { return stats_.get(); }
  PlanCostModel* cost_model() { return model_.get(); }

  /// The session's cancellation token, shared by every ExecutePlan call.
  /// Cancel() (from any thread) makes the running — and any subsequent —
  /// execution return Status::Cancelled; ExecutePlan re-arms the deadline
  /// (and clears a previous deadline expiry, but not an explicit Cancel)
  /// at each call when exec_deadline_ms > 0.
  CancellationToken* cancellation() { return &cancel_; }

 private:
  TablePtr base_;
  SessionOptions options_;
  Catalog catalog_;
  std::unique_ptr<StatisticsManager> stats_;
  std::unique_ptr<WhatIfProvider> whatif_;
  std::unique_ptr<OptimizerCostModel> model_;
  CancellationToken cancel_;
};

}  // namespace gbmqo

#endif  // GBMQO_API_SESSION_H_
