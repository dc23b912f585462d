// PlanExecutor: the client-side realization of Section 5.2. Flattens a
// LogicalPlan into a dependency DAG of node-level tasks and issues one
// group-by query per edge against the engine:
//
//   SELECT v, COUNT(*) AS cnt INTO T_v FROM T_u GROUP BY v      -- interior
//   SELECT v, COUNT(*) AS cnt FROM T_u GROUP BY v               -- leaf
//
// with COUNT(*) replaced by SUM(cnt) (and SUM/MIN/MAX re-aggregated) when
// T_u is itself an intermediate. Temp-table lifetime is reference-counted:
// T_u is dropped the moment its last consumer task has read it, and the
// task order encodes the BF/DF marks chosen by StorageScheduler, so the
// Catalog's peak temp bytes realize the Section 4.4 accounting. Eligible
// sibling Group By children of one parent can be fused into a single
// shared-scan pass (set_fusion_enabled), and the Section 4.4 d(u) estimates
// can gate task admission against a storage budget (set_storage_budget).
// CUBE nodes are expanded bottom-up over a spanning tree of the lattice;
// ROLLUP nodes as a prefix chain; both drop each level as soon as its last
// consumer has read it.
#ifndef GBMQO_CORE_PLAN_EXECUTOR_H_
#define GBMQO_CORE_PLAN_EXECUTOR_H_

#include <limits>
#include <map>
#include <string>

#include "common/cancellation.h"
#include "core/logical_plan.h"
#include "cost/whatif.h"
#include "exec/query_executor.h"
#include "storage/catalog.h"

namespace gbmqo {

class AggregateCache;
class StorageGovernor;

/// Outcome of executing a plan.
struct ExecutionResult {
  /// Result table per required column set (grouping columns + aggregates).
  std::map<ColumnSet, TablePtr> results;
  /// Deterministic work performed (the reproducible cost metric).
  WorkCounters counters;
  /// Wall-clock seconds for the whole plan.
  double wall_seconds = 0;
  /// High-water mark of live temp-table bytes during execution.
  uint64_t peak_temp_bytes = 0;
  /// Generation of the base relation the result was computed against.
  /// Filled by the serving layer (api/server.h): 0 = the as-loaded table,
  /// k = after the k-th applied append batch. Always 0 from a bare
  /// PlanExecutor, which has no ingestion.
  uint64_t base_version = 0;
};

/// Builds the executor-level query `SELECT base_cols, aggs GROUP BY
/// base_cols` against `input`, which is either the base relation R
/// (`input_is_base`) or a materialized intermediate carrying R's column
/// names plus aggregate columns. Grouping columns are base-schema ordinals;
/// against an intermediate the aggregates re-aggregate the carried columns
/// (COUNT(*) -> SUM(cnt), SUM -> SUM(sum_x), MIN/MAX re-applied). Exported
/// because the serving layer answers subset requests from cached aggregates
/// with exactly this rewrite (see api/server.h).
Result<GroupByQuery> BuildGroupByOver(const Table& input, bool input_is_base,
                                      const Schema& base_schema,
                                      ColumnSet base_cols,
                                      const std::vector<AggRequest>& aggs);

class PlanExecutor {
 public:
  /// `base_table` is R's name in `catalog`. The catalog outlives the
  /// executor; temp tables are created and dropped inside Execute.
  /// `scan_mode` selects the row-store scan simulation (default, matching
  /// the paper's substrate) or native columnar scans. `parallelism` is the
  /// total thread budget, shared between concurrent DAG tasks and
  /// intra-query morsel parallelism: each dispatched task runs its queries
  /// at parallelism / (running tasks), so the two levels never
  /// oversubscribe, and a lone task gets the whole budget. Wall-clock gains
  /// require multiple cores; the deterministic work counters are
  /// independent of the thread count either way.
  PlanExecutor(Catalog* catalog, std::string base_table,
               ScanMode scan_mode = ScanMode::kRowStore, int parallelism = 1)
      : catalog_(catalog),
        base_table_(std::move(base_table)),
        scan_mode_(scan_mode),
        parallelism_(parallelism < 1 ? 1 : parallelism) {}

  /// Executes `plan` (validated against `requests` first) and returns one
  /// result table per request.
  Result<ExecutionResult> Execute(const LogicalPlan& plan,
                                  const std::vector<GroupByRequest>& requests);

  /// Test/bench knob forwarded to every QueryExecutor this executor
  /// creates: starts the hash-aggregation kernel ladder at `kernel` (see
  /// QueryExecutor::set_forced_kernel). nullopt = automatic selection.
  void set_forced_kernel(std::optional<AggKernel> kernel) {
    forced_kernel_ = kernel;
  }

  /// Pins every QueryExecutor this executor creates to the scalar SIMD
  /// tier (QueryExecutor::set_force_scalar). Results and counters are
  /// bit-identical either way; this is a differential-testing and
  /// bench-baseline knob.
  void set_force_scalar(bool force) { force_scalar_ = force; }
  bool force_scalar() const { return force_scalar_; }

  /// Sibling shared-scan fusion: plain Group By children of one parent that
  /// would each hash-aggregate over it (single-copy, kAuto/kHash hint, no
  /// covering base index claiming the edge) are computed by one
  /// ExecuteSharedScan pass instead of one scan per child. Off by default
  /// so per-edge scan counters — and A/B comparisons against the unfused
  /// path — stay available; results are bit-identical either way.
  void set_fusion_enabled(bool on) { fusion_enabled_ = on; }

  /// Node-level parallelism: when on (default), independent DAG tasks run
  /// concurrently on the worker pool, subject to data dependencies and the
  /// storage gate. Off = strict priority order on one worker, with the
  /// whole thread budget given to intra-query morsel parallelism.
  void set_node_parallel(bool on) { node_parallel_ = on; }

  /// Storage-aware admission gate (Section 4.4 at runtime): a task is not
  /// dispatched while the d(u) estimates (from `whatif`) of live temp
  /// tables plus its own reservation would exceed `max_bytes` — unless
  /// nothing is running, which forces progress so an over-budget node
  /// cannot deadlock the plan. Pass infinity / nullptr to disable (the
  /// default).
  void set_storage_budget(double max_bytes, WhatIfProvider* whatif) {
    storage_budget_ = max_bytes;
    whatif_ = whatif;
  }

  /// Resilience: extra attempts allowed per failed task (default 0 = fail
  /// fast, the seed behaviour). Each re-attempt walks the degradation
  /// ladder — a failed fused task re-runs its members as independent
  /// per-query passes, a failed task that read a temp table recomputes
  /// directly from the base relation, and a ResourceExhausted failure
  /// serializes the task's internal parallelism and forces the multi-word
  /// kernel. Recovered runs produce the same result content as the
  /// fault-free run and are surfaced via WorkCounters::tasks_retried /
  /// tasks_degraded.
  void set_max_task_retries(int retries) {
    max_task_retries_ = retries < 0 ? 0 : retries;
  }

  /// Sleep before the k-th re-attempt of a task: k * backoff_ms.
  void set_retry_backoff_ms(double backoff_ms) {
    retry_backoff_ms_ = backoff_ms < 0 ? 0 : backoff_ms;
  }

  /// Cooperative cancellation / deadline: the token is checked at every
  /// task start and at morsel/block boundaries inside the engine; once it
  /// fires, Execute unwinds (no retries), releases all temp tables, and
  /// returns Status::Cancelled or DeadlineExceeded. nullptr disables.
  void set_cancellation(const CancellationToken* token) { cancel_ = token; }

  /// Cross-request aggregate cache (core/aggregate_cache.h). When attached:
  /// before computing a plain or fused node the executor looks its
  /// (grouping set, aggregates) key up and, on a hit, serves the pinned
  /// table instead of scanning — taking the node's consumer references
  /// atomically with the lookup, so downstream tasks release it exactly
  /// like a computed temp while the cache's own pin keeps it alive across
  /// plans. On success, every materialized intermediate and required leaf
  /// this plan computed is offered to the cache for admission. Hits and
  /// misses are surfaced via WorkCounters::cache_hits / cache_misses.
  /// Composite (CUBE/ROLLUP/multi-copy) subtrees manage their own
  /// materializations and bypass the cache. nullptr (default) disables.
  void set_aggregate_cache(AggregateCache* cache) { cache_ = cache; }

  /// Global storage governor shared across concurrent executors (and the
  /// aggregate cache). Each task's Section 4.4 d(u) reservation is also
  /// charged against the governor at admission; forced admissions (the
  /// no-deadlock path) reserve unconditionally. Requires a what-if provider
  /// (set_storage_budget supplies it; a per-plan budget of infinity is fine)
  /// for the d(u) estimates. nullptr (default) disables.
  void set_storage_governor(StorageGovernor* governor) {
    governor_ = governor;
  }

  /// Out-of-core aggregation (see QueryExecutor::SpillOptions), forwarded
  /// to every QueryExecutor this executor creates. Makes the memory budget
  /// a hard cap instead of a refusal, in two places: (1) a hash aggregation
  /// whose realized group-table bytes trip the budget restarts on the
  /// radix-spill path with bit-identical results; (2) a task whose d(u)
  /// reservation alone exceeds the whole admission budget is downgraded to
  /// a forced-spill run instead of being rejected. The resilience ladder
  /// also gains a spill rung: a ResourceExhausted attempt first retries
  /// with spill forced, and only if that still fails serializes and forces
  /// the multi-word kernel. spill.governor defaults to the storage
  /// governor set above.
  void set_spill(const SpillOptions& spill) { spill_ = spill; }

 private:
  Catalog* catalog_;
  std::string base_table_;
  ScanMode scan_mode_;
  int parallelism_;
  std::optional<AggKernel> forced_kernel_;
  bool force_scalar_ = false;
  bool fusion_enabled_ = false;
  bool node_parallel_ = true;
  double storage_budget_ = std::numeric_limits<double>::infinity();
  WhatIfProvider* whatif_ = nullptr;
  int max_task_retries_ = 0;
  double retry_backoff_ms_ = 0;
  const CancellationToken* cancel_ = nullptr;
  AggregateCache* cache_ = nullptr;
  StorageGovernor* governor_ = nullptr;
  SpillOptions spill_;
};

}  // namespace gbmqo

#endif  // GBMQO_CORE_PLAN_EXECUTOR_H_
