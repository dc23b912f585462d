// Streaming ingestion: the append-batch front door of the continuous-
// analytics scenario (ROADMAP item 2). The engine's tables are immutable
// after build — every scan path, the kernel-selection metadata, and the
// concurrent serving layer rely on that — so an append produces a *new*
// immutable table version, registered in the Catalog under a versioned name
// while readers of the previous version keep their snapshot untouched.
// Each new column is Column::Concat(old column, delta column): it shares the
// old version's append-only value arrays and string dictionary and writes
// only the delta's rows past the end the old version sees, so a batch costs
// amortized O(batch) plus a copy of the null bitmaps, whatever the base
// size. That discipline is what lets the serving layer promise "fully-old
// or fully-new, never torn" without a single reader-side lock on row data.
//
// The Ingestor owns the per-table monotone version counters (mirrored into
// the Catalog's version map) and hands each batch back as (new base, delta
// table, version) so core/delta_maintenance.h can propagate the delta
// through the maintained aggregates instead of recomputing them from R.
#ifndef GBMQO_STORAGE_INGEST_H_
#define GBMQO_STORAGE_INGEST_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace gbmqo {

/// Builds an (unregistered) delta table from value rows, validated against
/// `schema` (arity and types; NULLs allowed only in nullable columns).
Result<TablePtr> BuildDeltaTable(const Schema& schema,
                                 const std::vector<std::vector<Value>>& rows,
                                 const std::string& name);

/// A new immutable table named `name` holding every row of `base` followed
/// by every row of `delta` (schemas must match column-wise by type), built
/// column by column with Column::Concat. Secondary indexes of `base` carry
/// over by merging the delta's rows in (Table::ExtendIndex), so
/// physical-design decisions survive ingestion. Calling it twice on one
/// base is legal; the second call copies the base instead of sharing it.
Result<TablePtr> AppendRows(const Table& base, const Table& delta,
                            std::string name);

/// One applied append batch.
struct IngestBatch {
  TablePtr base;    ///< the new base version, registered in the catalog
  TablePtr delta;   ///< just the appended rows (unregistered)
  uint64_t version = 0;  ///< the table's monotone version after this batch
};

/// Thread-safe append-batch ingestion over a Catalog. Each AppendBatch call
/// on one table family is atomic: the new version is registered under
/// "<table>@v<k>" before the call returns, the previous version's entry is
/// left untouched (the caller decides when unreferenced versions retire),
/// and the family's version counter moves exactly once. Concurrent
/// AppendBatch calls on the same family serialize on an internal mutex.
class Ingestor {
 public:
  explicit Ingestor(Catalog* catalog) : catalog_(catalog) {}

  /// Appends `rows` to the latest version of `table` (the name it was
  /// originally registered under). Empty batches are legal: the version
  /// still advances, so idempotence bookkeeping upstream stays simple.
  Result<IngestBatch> AppendBatch(const std::string& table,
                                  const std::vector<std::vector<Value>>& rows);

  /// The family's current version (0 until the first AppendBatch).
  uint64_t version(const std::string& table) const;

  /// The catalog name of the family's current version ("<table>" at v0,
  /// "<table>@v<k>" after k batches).
  std::string current_name(const std::string& table) const;

  /// Recovery hook (storage/checkpoint.h): positions the family's version
  /// counter at `version` with `current_name` as its live catalog name, as
  /// if that many batches had been applied. The caller must have registered
  /// the table under `current_name` already; subsequent AppendBatch calls
  /// continue from version + 1. Refuses to move a family backwards.
  Status SeedFamily(const std::string& table, uint64_t version,
                    const std::string& current_name);

 private:
  struct Family {
    uint64_t version = 0;
    std::string current_name;
  };

  Catalog* catalog_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Family> families_;
};

}  // namespace gbmqo

#endif  // GBMQO_STORAGE_INGEST_H_
