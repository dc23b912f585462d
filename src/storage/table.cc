#include "storage/table.h"

#include <algorithm>
#include <numeric>

namespace gbmqo {

TableBuilder::TableBuilder(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_columns()));
  for (int i = 0; i < schema_.num_columns(); ++i) {
    columns_.push_back(std::make_shared<Column>(schema_.column(i).type));
  }
}

Status TableBuilder::AppendRow(const std::vector<Value>& row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    GBMQO_RETURN_NOT_OK(columns_[i]->AppendValue(row[i]));
  }
  return Status::OK();
}

Result<TablePtr> TableBuilder::Build(std::string name) {
  size_t rows = columns_.empty() ? 0 : columns_[0]->size();
  for (const ColumnPtr& col : columns_) {
    if (col->size() != rows) {
      return Status::Internal("column row counts are inconsistent");
    }
  }
  return std::make_shared<Table>(std::move(name), std::move(schema_),
                                 std::move(columns_), rows);
}

Table::Table(std::string name, Schema schema, std::vector<ColumnPtr> columns,
             size_t num_rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      columns_(std::move(columns)),
      num_rows_(num_rows) {}

size_t Table::ByteSize() const {
  size_t bytes = 0;
  for (const ColumnPtr& col : columns_) bytes += col->ByteSize();
  return bytes;
}

double Table::AvgRowWidth(ColumnSet set) const {
  if (set.empty()) set = ColumnSet::FirstN(schema_.num_columns());
  double width = 0.0;
  for (int ordinal : set.ToVector()) {
    width += column(ordinal).AvgWidthBytes();
  }
  return width;
}

Status Table::CreateIndex(ColumnSet key) { return AttachIndex(key, {}); }

Status Table::ExtendIndex(const Index& prefix) {
  if (prefix.sorted_rows().size() > num_rows_) {
    return Status::InvalidArgument("index prefix is longer than the table");
  }
  return AttachIndex(prefix.key(), prefix.sorted_rows());
}

Status Table::AttachIndex(ColumnSet key,
                          const std::vector<uint32_t>& sorted_prefix) {
  if (key.empty()) return Status::InvalidArgument("index key is empty");
  const std::vector<int> cols = key.ToVector();
  for (int c : cols) {
    if (c >= schema_.num_columns()) {
      return Status::InvalidArgument("index key column out of range");
    }
  }
  auto less = [&](uint32_t a, uint32_t b) {
    for (int c : cols) {
      const Column& col = column(c);
      const bool an = col.IsNull(a), bn = col.IsNull(b);
      if (an != bn) return an > bn;  // NULLs first
      if (an) continue;
      const uint64_t ac = col.CodeAt(a), bc = col.CodeAt(b);
      if (ac != bc) return ac < bc;
    }
    return a < b;
  };
  std::vector<uint32_t> tail(num_rows_ - sorted_prefix.size());
  std::iota(tail.begin(), tail.end(),
            static_cast<uint32_t>(sorted_prefix.size()));
  std::sort(tail.begin(), tail.end(), less);
  // Each tail row lands after every prefix row that orders before it: a
  // binary search per tail row, then the prefix copied run by run.
  std::vector<uint32_t> rows;
  rows.reserve(num_rows_);
  auto from = sorted_prefix.begin();
  for (uint32_t row : tail) {
    auto to = std::upper_bound(from, sorted_prefix.end(), row, less);
    rows.insert(rows.end(), from, to);
    rows.push_back(row);
    from = to;
  }
  rows.insert(rows.end(), from, sorted_prefix.end());
  indexes_.insert_or_assign(key, Index(key, std::move(rows)));
  return Status::OK();
}

const Index* Table::FindIndex(ColumnSet key) const {
  auto it = indexes_.find(key);
  return it == indexes_.end() ? nullptr : &it->second;
}

const Index* Table::FindCoveringIndex(ColumnSet set) const {
  if (set.empty()) return nullptr;
  // Exact match first.
  if (const Index* exact = FindIndex(set)) return exact;
  // Then any index whose lowest-ordinal |set| key columns are exactly `set`.
  // (Key order within an index is ascending ordinal; see header.)
  const int want = set.size();
  for (const auto& [key, index] : indexes_) {
    if (!key.ContainsAll(set)) continue;
    ColumnSet prefix;
    int taken = 0;
    for (int c : key.ToVector()) {
      if (taken == want) break;
      prefix = prefix.With(c);
      ++taken;
    }
    if (prefix == set) return &index;
  }
  return nullptr;
}

std::vector<Value> Table::Row(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const ColumnPtr& col : columns_) out.push_back(col->ValueAt(row));
  return out;
}

}  // namespace gbmqo
