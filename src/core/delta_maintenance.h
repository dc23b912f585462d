// DeltaMaintainer: incremental maintenance of the AggregateCache's pinned
// group-bys after an append batch (the continuous-analytics scenario of
// ROADMAP item 2).
//
// The paper's Section 4.4 temp tables are exactly the maintained-aggregate
// schemas delta propagation wants: per-group COUNT/SUM/MIN/MAX beside the
// base relation. Because every aggregate we support is insert-mergeable —
//
//   COUNT(*)  merges by SUM(cnt)
//   SUM(x)    merges by SUM(sum_x)
//   MIN/MAX   merge by MIN(min_x)/MAX(max_x) on inserts (monotone)
//   AVG       is derivable downstream as sum_x / cnt
//
// — a cached aggregate at base version v advances to v+1 by aggregating
// only the delta batch, concatenating the per-group partials with the old
// pinned table, and folding the two parts with the same re-aggregation
// rewrite PlanExecutor uses for intermediates (BuildGroupByOver with
// input_is_base = false). That fold runs through QueryExecutor's canonical
// accumulator, so for COUNT and integer SUM/MIN/MAX the maintained table is
// bit-identical to a cold recompute over the full relation (all partial
// sums are integers below 2^53, exact in the double accumulator regardless
// of association). SUM over DOUBLE columns is the documented exception:
// merge order can perturb the last ulp, same as any parallel fold.
//
// Deltas roll up the lattice (Section 4.4, now over deltas): entries are
// maintained finest-first, each computed delta aggregate is memoized by
// (grouping set, aggregate signature), and a coarser entry whose signature
// matches reuses the finest memoized superset instead of re-scanning the
// delta batch.
//
// Limitations — by design, surfaced instead of silently mishandled:
//  * Insert-only. MIN/MAX cannot be maintained under deletion (removing the
//    current extremum needs the base relation); a caller that retracts rows
//    must MarkNeedsRecompute (per entry) or Invalidate (whole cache). The
//    per-entry needs_recompute flag makes the next ApplyDelta rebuild that
//    entry from the new base relation — the escape hatch, not the fast path.
//  * Maintenance must be serialized against concurrent cache readers by the
//    caller (the Server's ingest lock) if a consistent generation across
//    entries is required; each individual ReplaceEntry swap is atomic.
#ifndef GBMQO_CORE_DELTA_MAINTENANCE_H_
#define GBMQO_CORE_DELTA_MAINTENANCE_H_

#include <cstdint>
#include <optional>

#include "common/status.h"
#include "core/aggregate_cache.h"
#include "exec/exec_context.h"
#include "exec/query_executor.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace gbmqo {

struct DeltaMaintenanceOptions {
  /// Scan mode for the maintenance queries. Columnar by default: the inputs
  /// are narrow aggregate tables and small delta batches, where simulating
  /// row-store width would only distort the maintenance-vs-recompute ratio.
  ScanMode scan_mode = ScanMode::kColumnar;
  /// Morsel parallelism for the maintenance queries.
  int parallelism = 1;
  /// Forwarded to QueryExecutor::set_forced_kernel (test/bench knob).
  std::optional<AggKernel> forced_kernel;
  /// Forwarded to QueryExecutor::set_force_scalar.
  bool force_scalar = false;
  /// Reuse finer memoized delta aggregates for coarser grouping sets
  /// (the delta lattice). Off = every entry aggregates the delta directly.
  bool rollup_from_finer = true;
};

/// What one ApplyDelta call did. All counts are deterministic functions of
/// (cache contents, delta, options) — test assertions rely on that.
struct DeltaMaintenanceReport {
  uint64_t delta_rows = 0;          ///< rows in the applied batch
  uint64_t entries_refreshed = 0;   ///< delta-merged and swapped in place
  uint64_t entries_recomputed = 0;  ///< rebuilt from base (escape hatch)
  uint64_t entries_dropped = 0;     ///< evicted: merge failed or did not fit
  uint64_t rollup_reuses = 0;       ///< delta aggs served from a finer one
  WorkCounters counters;            ///< engine work of all maintenance queries
};

/// Propagates append-batch deltas through every entry of an AggregateCache.
/// Stateless across calls apart from the configuration; safe to reuse, but
/// not concurrently (callers serialize ApplyDelta — the Server's ingest path
/// already holds its exclusive lock here).
class DeltaMaintainer {
 public:
  DeltaMaintainer(Catalog* catalog, AggregateCache* cache,
                  DeltaMaintenanceOptions options = {})
      : catalog_(catalog), cache_(cache), options_(options) {}

  /// Advances every cached entry to `new_version`. `delta` holds just the
  /// appended rows, `new_base` the full relation after the append (used by
  /// the needs_recompute path), both with `base_schema`. Entries that
  /// cannot be refreshed are evicted, never left stale; the call itself
  /// only fails on engine errors that would also fail normal queries.
  Result<DeltaMaintenanceReport> ApplyDelta(const TablePtr& delta,
                                            const TablePtr& new_base,
                                            const Schema& base_schema,
                                            uint64_t new_version);

 private:
  Catalog* catalog_;
  AggregateCache* cache_;
  DeltaMaintenanceOptions options_;
};

}  // namespace gbmqo

#endif  // GBMQO_CORE_DELTA_MAINTENANCE_H_
