// Table: an immutable-after-build, in-memory columnar relation, plus optional
// secondary indexes (sorted row permutations) used by the optimizer cost
// model and the index-scan path (Experiment 6.9, physical design).
#ifndef GBMQO_STORAGE_TABLE_H_
#define GBMQO_STORAGE_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/column_set.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace gbmqo {

class Table;
using TablePtr = std::shared_ptr<Table>;

/// A secondary index on a column set: row ids permuted so that rows with
/// equal key values are adjacent (grouping order). The order is total: key
/// columns in ascending ordinal, NULLs first, then by group code, then by
/// row id — so it is unique, and with it the fold order of a stream
/// aggregate over the index. A covering index lets the executor
/// stream-aggregate without a hash table and lets the cost model charge
/// narrow index pages instead of full-width table pages.
class Index {
 public:
  Index(ColumnSet key, std::vector<uint32_t> sorted_rows)
      : key_(key), sorted_rows_(std::move(sorted_rows)) {}

  ColumnSet key() const { return key_; }
  const std::vector<uint32_t>& sorted_rows() const { return sorted_rows_; }

 private:
  ColumnSet key_;
  std::vector<uint32_t> sorted_rows_;
};

/// Builder for assembling a table column by column; validates row counts.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema);

  /// Column accessor for direct typed appends (generators use this).
  Column* column(int ordinal) { return columns_[static_cast<size_t>(ordinal)].get(); }

  /// Appends one row of Values (boundary/test use).
  Status AppendRow(const std::vector<Value>& row);

  /// Finalizes into a table; fails if columns have inconsistent row counts.
  Result<TablePtr> Build(std::string name);

 private:
  Schema schema_;
  std::vector<ColumnPtr> columns_;
};

/// An in-memory relation. After Build() the data is treated as read-only;
/// indexes can still be added (they do not mutate row data).
class Table {
 public:
  Table(std::string name, Schema schema, std::vector<ColumnPtr> columns,
        size_t num_rows);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }

  const Column& column(int ordinal) const {
    return *columns_[static_cast<size_t>(ordinal)];
  }
  ColumnPtr column_ptr(int ordinal) const {
    return columns_[static_cast<size_t>(ordinal)];
  }

  /// Total data bytes (storage accounting for temp tables).
  size_t ByteSize() const;

  /// Average row width in bytes over the given columns (whole table if
  /// `set` is empty); used by the optimizer cost model.
  double AvgRowWidth(ColumnSet set) const;

  // ---- Index management (physical design) ----

  /// Builds and attaches a secondary index on `key`. Replaces any existing
  /// index with the same key.
  Status CreateIndex(ColumnSet key);

  /// Attaches the index CreateIndex(prefix.key()) would build, given
  /// `prefix`, an index on this table's first prefix.sorted_rows().size()
  /// rows with unchanged group codes (the base of an append, storage/
  /// ingest.h). Sorts only the rows after the prefix and merges them in.
  Status ExtendIndex(const Index& prefix);

  /// The attached index on exactly `key`, or nullptr.
  const Index* FindIndex(ColumnSet key) const;

  /// An attached index whose *leading* key columns cover `set` in any order
  /// — i.e. an index on superset K where `set` ⊆ K and the index sort groups
  /// `set` contiguously only when set == prefix. We only exploit exact-key
  /// or full-prefix matches: returns an index whose key set equals `set`, or
  /// whose key's first |set| columns (in index key order) are exactly `set`.
  const Index* FindCoveringIndex(ColumnSet set) const;

  const std::map<ColumnSet, Index>& indexes() const { return indexes_; }

  /// One row as Values (test/inspection use).
  std::vector<Value> Row(size_t row) const;

 private:
  /// Sorts rows [sorted_prefix.size(), num_rows()) in index order, merges
  /// them into `sorted_prefix` and attaches the result as the index on key.
  Status AttachIndex(ColumnSet key, const std::vector<uint32_t>& sorted_prefix);

  std::string name_;
  Schema schema_;
  std::vector<ColumnPtr> columns_;
  size_t num_rows_;
  std::map<ColumnSet, Index> indexes_;
  // Index key order: we store keys in ascending-ordinal order, so a prefix
  // of an index is its lowest-ordinal columns.
};

}  // namespace gbmqo

#endif  // GBMQO_STORAGE_TABLE_H_
