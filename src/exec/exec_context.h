// ExecContext: deterministic work counters accumulated by the execution
// engine. Wall-clock times vary across machines; these counters let every
// experiment's *shape* be reproduced exactly, and define the simulated-cost
// metric reported next to wall time by the benchmark harnesses.
#ifndef GBMQO_EXEC_EXEC_CONTEXT_H_
#define GBMQO_EXEC_EXEC_CONTEXT_H_

#include <algorithm>
#include <cstdint>

#include "common/cancellation.h"

namespace gbmqo {

/// The hash-aggregation kernel executing a group-by. QueryExecutor selects
/// one per (input table, grouping set) pair — a pure function of the input's
/// column code-domain metadata, never of the thread count — walking the
/// ladder dense -> packed -> multi-word until one is eligible (see
/// exec/agg_kernel.h).
enum class AggKernel {
  kDenseArray,  ///< direct-indexed accumulator array, no hashing
  kPackedKey,   ///< all grouping columns bit-packed into one uint64 hash key
  kMultiWord,   ///< one key word per grouping column (+ null word); fallback
  kSortRuns,    ///< sort packed keys, fold equal-key runs; high-group-count
                ///< and spill-replay rung (packed-eligible inputs only)
};

inline const char* AggKernelName(AggKernel k) {
  switch (k) {
    case AggKernel::kDenseArray:
      return "dense";
    case AggKernel::kPackedKey:
      return "packed";
    case AggKernel::kMultiWord:
      return "multiword";
    case AggKernel::kSortRuns:
      return "sort";
  }
  return "?";
}

/// Per-input-row CPU units of multi-word hash aggregation as a function of
/// the output group count. Small group counts stay cache-resident (cheap
/// probes); large ones pay main-memory latency on most probes. The same
/// function is used by the engine's work accounting and by
/// OptimizerCostModel, so estimated and measured costs agree on *why* a
/// high-cardinality intermediate is a bad materialization candidate (see
/// the Section 6 benches).
inline double HashAggCpuPerRow(double groups) {
  return 4.0 + 1200.0 * (groups / (groups + 200000.0));
}

/// Packed-key kernel: same cache-miss ramp, but a one-word hash and one-word
/// key compares cut both the base cost and the miss penalty.
inline double PackedAggCpuPerRow(double groups) {
  return 2.0 + 600.0 * (groups / (groups + 200000.0));
}

/// Dense-array kernel: one bounded array index per row. The slot budget
/// (kDenseSlotBudget in exec/agg_kernel.h) keeps the accumulators
/// cache-resident, so there is no cardinality ramp.
inline constexpr double kDenseArrayAggCpuPerRow = 1.5;

/// Sort-runs kernel: the per-row cost is dominated by the LSD radix sort of
/// packed keys (linear passes over the key's bit width), which is nearly
/// flat in the group count — runs of equal keys fold sequentially with no
/// probing, so there is no cache-miss ramp to pay.
/// Costs more than a cache-resident hash build at low group counts, far less
/// than the hash kernels' miss-dominated tail at high ones (the hash-vs-sort
/// crossover; see OptimizerCostModel's sort_crossover_groups).
inline double SortAggCpuPerRow(double groups) {
  return 6.0 + 90.0 * (groups / (groups + 200000.0));
}

/// Per-input-row aggregation CPU for `kernel` producing `groups` groups.
inline double AggCpuPerRow(AggKernel kernel, double groups) {
  switch (kernel) {
    case AggKernel::kDenseArray:
      return kDenseArrayAggCpuPerRow;
    case AggKernel::kPackedKey:
      return PackedAggCpuPerRow(groups);
    case AggKernel::kMultiWord:
      return HashAggCpuPerRow(groups);
    case AggKernel::kSortRuns:
      return SortAggCpuPerRow(groups);
  }
  return HashAggCpuPerRow(groups);
}

/// Work performed by one or more executed queries.
struct WorkCounters {
  uint64_t rows_scanned = 0;       ///< input rows read (table or index scans)
  uint64_t bytes_scanned = 0;      ///< full-row-width bytes read
  uint64_t rows_emitted = 0;       ///< result groups produced
  uint64_t bytes_materialized = 0; ///< bytes written into temp tables
  uint64_t hash_probes = 0;        ///< group hash-table lookups
  uint64_t rows_sorted = 0;        ///< rows passed through sort operators
  uint64_t queries_executed = 0;   ///< group-by queries run
  /// Aggregation CPU in work units: rows x AggCpuPerRow(kernel, groups) for
  /// hash paths, 1 unit/row for stream paths.
  double agg_cpu_units = 0;
  /// Input rows aggregated by each hash kernel. Kernel choice is a pure
  /// function of the input table, so these are thread-count deterministic
  /// like every other counter (and show which kernel a query actually ran).
  uint64_t dense_kernel_rows = 0;
  uint64_t packed_kernel_rows = 0;
  uint64_t multiword_kernel_rows = 0;
  uint64_t sort_kernel_rows = 0;
  /// Out-of-core aggregation (exec/spill_partitioner.h): queries completed
  /// via the radix-spill path, partition files replayed, and spill I/O. All
  /// pure functions of (input, budget) like the other counters — whether a
  /// query spills depends only on its realized group-table bytes.
  uint64_t queries_spilled = 0;
  uint64_t spill_partitions = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;
  /// Spill files whose CRC check failed on replay and whose records were
  /// re-derived from the resident input (SpillOptions::recover_corrupt).
  uint64_t spill_corrupt_recoveries = 0;
  /// Accumulator of the row-store scan simulation (ScanMode::kRowStore):
  /// folding every column of every scanned row in here keeps the full-width
  /// touch from being optimized away. Value is meaningless; ignore it.
  uint64_t scan_touch_checksum = 0;
  /// Resilience: extra task attempts performed after a failure, and tasks
  /// that succeeded via a degraded plan (fused -> per-query, temp -> base
  /// recompute, forced multi-word under memory pressure). Both are pure
  /// functions of (plan, fault seed) — see PlanExecutor's retry ladder.
  uint64_t tasks_retried = 0;
  uint64_t tasks_degraded = 0;
  /// Cross-request aggregate cache (core/aggregate_cache.h): plan nodes
  /// served from a pinned prior materialization vs. computed because no
  /// usable entry existed. Both stay zero when no cache is attached.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  WorkCounters& operator+=(const WorkCounters& o) {
    rows_scanned += o.rows_scanned;
    bytes_scanned += o.bytes_scanned;
    rows_emitted += o.rows_emitted;
    bytes_materialized += o.bytes_materialized;
    hash_probes += o.hash_probes;
    rows_sorted += o.rows_sorted;
    queries_executed += o.queries_executed;
    agg_cpu_units += o.agg_cpu_units;
    dense_kernel_rows += o.dense_kernel_rows;
    packed_kernel_rows += o.packed_kernel_rows;
    multiword_kernel_rows += o.multiword_kernel_rows;
    sort_kernel_rows += o.sort_kernel_rows;
    queries_spilled += o.queries_spilled;
    spill_partitions += o.spill_partitions;
    spill_bytes_written += o.spill_bytes_written;
    spill_bytes_read += o.spill_bytes_read;
    spill_corrupt_recoveries += o.spill_corrupt_recoveries;
    scan_touch_checksum ^= o.scan_touch_checksum;
    tasks_retried += o.tasks_retried;
    tasks_degraded += o.tasks_degraded;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    return *this;
  }

  /// Field-by-field equality over every counter (the differential suites'
  /// bit-identity check).
  bool operator==(const WorkCounters&) const = default;

  /// Scalar "simulated time" in abstract work units: full-width scan bytes
  /// (as in the paper's cardinality cost model), cardinality-aware
  /// aggregation CPU, materialization writes charged double (write + later
  /// re-read pressure), an extra per-row sorting charge, and one unit per
  /// spill byte moved in either direction.
  double WorkUnits() const {
    return static_cast<double>(bytes_scanned) + agg_cpu_units +
           2.0 * static_cast<double>(bytes_materialized) +
           64.0 * static_cast<double>(rows_sorted) +
           static_cast<double>(spill_bytes_written + spill_bytes_read);
  }
};

/// Mutable execution-scope state threaded through the engine.
///
/// Thread-safety contract: an ExecContext is single-writer. Parallel code
/// never shares one context between workers; each worker charges work to its
/// own private ExecContext (or to worker-local accumulators, as the morsel
/// engine in QueryExecutor does) and the owner folds the workers' counters
/// in with AbsorbWorker() after joining them. Because every counter is a sum
/// (or an XOR, for the checksum), the fold order does not change the totals.
class ExecContext {
 public:
  WorkCounters& counters() { return counters_; }
  const WorkCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = WorkCounters(); }

  /// Folds a joined worker's counters into this context and resets the
  /// worker, so a retained worker context cannot be double-counted. Call
  /// only after the worker's thread has been joined.
  void AbsorbWorker(ExecContext* worker) {
    counters_ += worker->counters_;
    worker->ResetCounters();
  }

  // ---- resilience plumbing -------------------------------------------------

  /// Cooperative-cancellation token checked by the engine at task starts
  /// and morsel/block boundaries; nullptr (default) disables the checks.
  void set_cancellation(const CancellationToken* token) { cancel_ = token; }
  const CancellationToken* cancellation() const { return cancel_; }

  /// OK, or the token's Cancelled/DeadlineExceeded status once fired.
  Status CheckCancelled() const {
    if (cancel_ == nullptr) return Status::OK();
    return cancel_->Check();
  }

  /// Stable salt mixed into fault-injection keys by the engine's fault
  /// sites (see common/fault_injector.h). The DAG executor derives it from
  /// (task id, attempt), so injected decisions are reproducible for any
  /// thread count.
  void set_fault_salt(uint64_t salt) { fault_salt_ = salt; }
  uint64_t fault_salt() const { return fault_salt_; }

 private:
  WorkCounters counters_;
  const CancellationToken* cancel_ = nullptr;
  uint64_t fault_salt_ = 0;
};

}  // namespace gbmqo

#endif  // GBMQO_EXEC_EXEC_CONTEXT_H_
