// QueryExecutor: runs single Group By queries (hash, sort or index-stream
// aggregation) and shared-scan batches of Group By queries over one input —
// the physical layer beneath both the GB-MQO plans and the GROUPING SETS
// baseline.
#ifndef GBMQO_EXEC_QUERY_EXECUTOR_H_
#define GBMQO_EXEC_QUERY_EXECUTOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/column_set.h"
#include "common/status.h"
#include "exec/aggregate_spec.h"
#include "exec/exec_context.h"
#include "exec/simd.h"
#include "storage/table.h"

namespace gbmqo {

class StorageGovernor;

/// Out-of-core aggregation configuration (see exec/spill_partitioner.h).
/// With a memory budget set, a hash aggregation whose realized group-table
/// bytes exceed it restarts on the radix-spill path instead of failing —
/// the budget is a hard cap, not an admission filter. Results are
/// bit-identical to the uncapped in-memory run. Inputs that fit a single
/// morsel shard never spill (their group state is bounded by one morsel's
/// rows, already far below any useful budget).
struct SpillOptions {
  /// Group-table memory budget in bytes for one hash aggregation (realized
  /// table + accumulator bytes across all shards, build and merge phases;
  /// for shared scans, summed over the fused queries). 0 = uncapped.
  uint64_t memory_budget_bytes = 0;
  /// Directory spill files are created under; "" = the system temp
  /// directory. Each aggregation gets its own subdirectory, removed (with
  /// every file) when the aggregation ends, however it ends.
  std::string directory;
  /// Cap on one aggregation's total spill-file bytes; 0 = unlimited.
  /// Exceeding it fails the query with ResourceExhausted (realized vs
  /// budgeted numbers in the message).
  uint64_t max_spill_bytes = 0;
  /// Routes every eligible hash aggregation through the spill path without
  /// waiting for a budget trip (test/bench knob, and the retry ladder's
  /// spill rung).
  bool force = false;
  /// When a spill file's CRC check fails on replay, re-derive that
  /// (shard, partition)'s records from the still-resident input instead of
  /// failing the query — the rebuilt bytes are bit-identical to the lost
  /// file, so the result is unchanged (counted in spill_corrupt_recoveries).
  /// Off, the corruption surfaces as an Internal error that the plan-level
  /// retry ladder treats as transient (same plan shape, fresh attempt).
  bool recover_corrupt = true;
  /// Optional governor charged with the spill path's RAM working set (one
  /// partition at a time) and its disk bytes, so callers can assert the
  /// realized RAM peak stayed under the cap and meter global disk use.
  StorageGovernor* governor = nullptr;

  bool enabled() const { return force || memory_budget_bytes > 0; }
};

/// One group-by query over a specific input table. `grouping` holds the
/// input table's column ordinals.
struct GroupByQuery {
  ColumnSet grouping;
  std::vector<AggregateSpec> aggregates;
};

/// Physical strategy for a single group-by.
enum class AggStrategy {
  kAuto,         ///< index-stream if a covering index exists, else hash
  kHash,         ///< hash aggregation (one pass, unordered)
  kSort,         ///< sort rows by key, then stream-aggregate
  kIndexStream,  ///< stream over a covering index; error if none exists
};

/// What a table scan physically costs.
///
/// The paper's substrate is a row store: scanning R pays for the *full row
/// width* regardless of how many columns the query touches, which is
/// exactly why computing from a narrower materialized intermediate wins.
/// kRowStore (the default) simulates that by touching every column of each
/// scanned row, so wall-clock times reproduce the paper's trade-off.
/// kColumnar reads only the referenced columns (this engine's native
/// behaviour) — faster, but it understates the benefit a row-store system
/// gets from GB-MQO plans. Index streams always read narrow leaf pages.
enum class ScanMode {
  kRowStore,
  kColumnar,
};

/// Executes group-by queries against in-memory tables, charging work to an
/// ExecContext. Stateless apart from the context pointer; safe to reuse.
///
/// Hash aggregation runs one pipeline: a single hash group-by is a
/// shared-scan batch of one. It is morsel-driven: the input is split into
/// kMorselRows-row morsels, morsel i belongs to pre-aggregation shard
/// i mod kBuildShards, and each shard is built into a thread-local group
/// table per query before a partitioned merge in which each worker owns a
/// disjoint (query, key range). `parallelism` sets how many worker threads
/// execute that pipeline. The shard and partition counts are fixed
/// (independent of `parallelism`), so every WorkCounters field — including
/// measured hash probes and the scan-touch checksum — is bit-identical for
/// any thread count. Inputs that fit in a single morsel take a one-shard
/// fast path that behaves exactly like serial aggregation.
///
/// Each hash aggregation runs one of four kernels — dense-array, packed
/// single-word key, sort-runs over packed keys, or multi-word key —
/// selected per (input, grouping) from the input columns' code-domain
/// metadata (see exec/agg_kernel.h). The choice is a pure function of the
/// input table, never of the thread count.
class QueryExecutor {
 public:
  /// Rows per scan morsel (the unit of the parallel hash-aggregation scan).
  static constexpr size_t kMorselRows = 1 << 16;
  /// Pre-aggregation shards built during the scan phase. Fixed, so counters
  /// do not depend on the worker count; also the maximum build parallelism.
  static constexpr int kBuildShards = 16;
  /// Hash partitions merged exclusively by one worker each (power of two).
  static constexpr int kMergePartitions = 16;

  explicit QueryExecutor(ExecContext* ctx,
                         ScanMode scan_mode = ScanMode::kRowStore,
                         int parallelism = 1)
      : ctx_(ctx),
        scan_mode_(scan_mode),
        parallelism_(parallelism < 1 ? 1 : parallelism) {}

  int parallelism() const { return parallelism_; }
  void set_parallelism(int parallelism) {
    parallelism_ = parallelism < 1 ? 1 : parallelism;
  }

  /// Test/bench knob: starts the kernel fallback ladder at `kernel` instead
  /// of trying the most specialized kernel first. A forced kernel that is
  /// ineligible for some input (e.g. dense over a huge domain) falls down
  /// the ladder as usual, so forcing is always safe. nullopt = automatic.
  void set_forced_kernel(std::optional<AggKernel> kernel) {
    forced_kernel_ = kernel;
  }
  std::optional<AggKernel> forced_kernel() const { return forced_kernel_; }

  /// Pins this executor's hot loops (key formation, hash probe, columnar
  /// accumulate) to the scalar SIMD tier regardless of the host CPU.
  /// Results and every WorkCounters field are bit-identical either way —
  /// the vectorized loops preserve the scalar visit and accumulation
  /// orders — so this is a differential-testing and bench-baseline knob,
  /// not a semantic one. See exec/simd.h for the process-wide
  /// GBMQO_DISABLE_SIMD override.
  void set_force_scalar(bool force) { force_scalar_ = force; }
  bool force_scalar() const { return force_scalar_; }

  /// Configures out-of-core aggregation (disabled by default). Single
  /// group-bys spill transparently when the memory budget trips; shared
  /// scans cannot spill (their shard state interleaves queries), so a
  /// tripped budget fails them with ResourceExhausted and the plan-level
  /// retry ladder splits the fused batch into spillable per-query runs.
  void set_spill(const SpillOptions& spill) { spill_ = spill; }
  const SpillOptions& spill() const { return spill_; }

  /// The SIMD tier this executor's queries run at.
  SimdLevel simd_level() const { return EffectiveSimdLevel(force_scalar_); }

  /// Runs one group-by and returns the (unregistered) result table named
  /// `output_name`. Grouping columns keep their input names; aggregates use
  /// their `output_name`s.
  Result<TablePtr> ExecuteGroupBy(const Table& input, const GroupByQuery& query,
                                  const std::string& output_name,
                                  AggStrategy strategy = AggStrategy::kAuto);

  /// Runs several group-bys over `input` in a single shared scan (the
  /// commercial-engine optimization leveraged by GROUPING SETS, and by
  /// PlanExecutor's sibling fusion — `input` may be the base relation or a
  /// materialized intermediate). Counter attribution: scan-side work
  /// (rows_scanned, bytes_scanned, the touch checksum) is charged once for
  /// the shared pass, while per-query work — kernel rows, hash probes,
  /// aggregation CPU, rows_emitted, queries_executed — is charged per
  /// query, so a fused run is distinguishable from N separate scans by its
  /// scan counters alone. Each query keeps its own hash state and kernel
  /// plan; outputs are bit-identical to per-query ExecuteGroupBy hash runs.
  Result<std::vector<TablePtr>> ExecuteSharedScan(
      const Table& input, const std::vector<GroupByQuery>& queries,
      const std::vector<std::string>& output_names);

 private:
  /// The one hash-aggregation pipeline (shard build -> partitioned merge ->
  /// emit) behind both entry points, over validated queries. `shared`
  /// marks an ExecuteSharedScan batch: it consults the shared-scan fault
  /// site and never spills, whereas a single group-by restarts on the
  /// spill path when the budget trips. A GroupIdSpaceExhausted thrown from
  /// any group table (including from a joined morsel worker, rethrown by
  /// RunTasks) surfaces as Status::ResourceExhausted instead of wrapping
  /// ids silently.
  Result<std::vector<TablePtr>> RunHashBatch(
      const Table& input, std::span<const GroupByQuery> queries,
      std::span<const std::string> output_names, bool shared);

  ExecContext* ctx_;
  ScanMode scan_mode_;
  int parallelism_;
  std::optional<AggKernel> forced_kernel_;
  bool force_scalar_ = false;
  SpillOptions spill_;
};

}  // namespace gbmqo

#endif  // GBMQO_EXEC_QUERY_EXECUTOR_H_
