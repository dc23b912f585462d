#include "core/delta_maintenance.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/plan_executor.h"
#include "core/request.h"

namespace gbmqo {

namespace {

// Canonical aggregate signature: sorted, deduplicated — two entries with the
// same signature carry the same aggregate output columns, which is what
// makes a finer delta aggregate reusable for a coarser grouping set.
std::string SigFor(const std::vector<AggRequest>& aggs) {
  std::vector<AggRequest> sorted = aggs;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string sig;
  for (const AggRequest& a : sorted) {
    sig += std::to_string(static_cast<int>(a.kind));
    sig += ":";
    sig += std::to_string(a.column);
    sig += "|";
  }
  return sig;
}

// Concatenates two parts of the same logical aggregate (the old pinned
// table and the delta's per-group partials) into one unregistered table
// with `part`'s schema. Columns are matched by name so an old table that
// carries extra aggregate columns, or the same columns in another order,
// still lines up.
Result<TablePtr> ConcatParts(const Table& old_part, const Table& delta_part,
                             const std::string& name) {
  std::vector<ColumnPtr> columns;
  columns.reserve(static_cast<size_t>(delta_part.schema().num_columns()));
  for (int c = 0; c < delta_part.schema().num_columns(); ++c) {
    const ColumnDef& def = delta_part.schema().column(c);
    const int old_ord = old_part.schema().FindColumn(def.name);
    if (old_ord < 0) {
      return Status::Internal("cached aggregate " + old_part.name() +
                              " does not carry column '" + def.name + "'");
    }
    if (old_part.schema().column(old_ord).type != def.type) {
      return Status::Internal("cached aggregate " + old_part.name() +
                              " column '" + def.name + "' changed type");
    }
    columns.push_back(
        Column::Concat(old_part.column(old_ord), delta_part.column(c)));
  }
  return std::make_shared<Table>(name, delta_part.schema(), std::move(columns),
                                 old_part.num_rows() + delta_part.num_rows());
}

}  // namespace

Result<DeltaMaintenanceReport> DeltaMaintainer::ApplyDelta(
    const TablePtr& delta, const TablePtr& new_base, const Schema& base_schema,
    uint64_t new_version) {
  DeltaMaintenanceReport report;
  report.delta_rows = delta->num_rows();

  std::vector<RefreshableEntry> entries = cache_->SnapshotEntriesForRefresh();
  // Finest-first (|columns| descending; the snapshot's key order breaks
  // ties), so every coarser entry sees the finer delta aggregates already
  // memoized — the Section 4.4 lattice walked over deltas.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const RefreshableEntry& a, const RefreshableEntry& b) {
                     return a.columns.size() > b.columns.size();
                   });

  ExecContext ctx;
  QueryExecutor exec(&ctx, options_.scan_mode, options_.parallelism);
  exec.set_forced_kernel(options_.forced_kernel);
  exec.set_force_scalar(options_.force_scalar);

  // Memoized delta aggregates of this batch: (signature, grouping mask) ->
  // per-group partials. std::map for deterministic superset selection.
  std::map<std::pair<std::string, uint64_t>, TablePtr> delta_aggs;

  for (const RefreshableEntry& e : entries) {
    Result<TablePtr> fresh = [&]() -> Result<TablePtr> {
      if (e.needs_recompute) {
        // Escape hatch: rebuild from the new base relation.
        Result<GroupByQuery> q = BuildGroupByOver(
            *new_base, /*input_is_base=*/true, base_schema, e.columns, e.aggs);
        if (!q.ok()) return q.status();
        return exec.ExecuteGroupBy(*new_base, *q,
                                   catalog_->NextTempName("maint"));
      }
      const std::string sig = SigFor(e.aggs);

      // Delta aggregate for this grouping set: reuse the finest memoized
      // superset with the same signature, else aggregate the delta batch.
      TablePtr delta_agg;
      if (options_.rollup_from_finer) {
        const TablePtr* best = nullptr;
        int best_size = ColumnSet::kMaxColumns + 1;
        for (const auto& [key, table] : delta_aggs) {
          if (key.first != sig) continue;
          const ColumnSet have(key.second);
          if (!have.ContainsAll(e.columns)) continue;
          if (have.size() < best_size) {
            best = &table;
            best_size = have.size();
          }
        }
        if (best != nullptr) {
          Result<GroupByQuery> q =
              BuildGroupByOver(**best, /*input_is_base=*/false, base_schema,
                               e.columns, e.aggs);
          if (!q.ok()) return q.status();
          Result<TablePtr> rolled = exec.ExecuteGroupBy(
              **best, *q, catalog_->NextTempName("delta"));
          if (!rolled.ok()) return rolled.status();
          delta_agg = *rolled;
          ++report.rollup_reuses;
        }
      }
      if (delta_agg == nullptr) {
        Result<GroupByQuery> q = BuildGroupByOver(
            *delta, /*input_is_base=*/true, base_schema, e.columns, e.aggs);
        if (!q.ok()) return q.status();
        Result<TablePtr> agg =
            exec.ExecuteGroupBy(*delta, *q, catalog_->NextTempName("delta"));
        if (!agg.ok()) return agg.status();
        delta_agg = *agg;
      }
      delta_aggs[{sig, e.columns.mask()}] = delta_agg;

      // Old per-group values and the delta's partials, folded by the same
      // re-aggregation rewrite intermediates use: COUNT(*) -> SUM(cnt),
      // SUM -> SUM(sum_x), MIN/MAX re-applied.
      Result<TablePtr> merged = ConcatParts(
          *e.table, *delta_agg, catalog_->NextTempName("maint_in"));
      if (!merged.ok()) return merged.status();
      Result<GroupByQuery> fold =
          BuildGroupByOver(**merged, /*input_is_base=*/false, base_schema,
                           e.columns, e.aggs);
      if (!fold.ok()) return fold.status();
      return exec.ExecuteGroupBy(**merged, *fold,
                                 catalog_->NextTempName("maint"));
    }();

    if (!fresh.ok()) {
      // A stale entry must never serve at the new version: drop it and let
      // the next request rebuild it through the normal admission path.
      cache_->Evict(e.columns, e.aggs);
      ++report.entries_dropped;
      continue;
    }
    if (cache_->ReplaceEntry(e.columns, e.aggs, *fresh, /*registered=*/false,
                             new_version)) {
      if (e.needs_recompute) {
        ++report.entries_recomputed;
      } else {
        ++report.entries_refreshed;
      }
    } else {
      ++report.entries_dropped;  // ReplaceEntry evicted it (no room / race)
    }
  }

  cache_->SetSourceVersion(new_version);
  report.counters = ctx.counters();
  return report;
}

}  // namespace gbmqo
