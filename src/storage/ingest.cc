#include "storage/ingest.h"

#include <utility>

namespace gbmqo {

Result<TablePtr> BuildDeltaTable(const Schema& schema,
                                 const std::vector<std::vector<Value>>& rows,
                                 const std::string& name) {
  TableBuilder builder(schema);
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<Value>& row = rows[r];
    if (static_cast<int>(row.size()) != schema.num_columns()) {
      return Status::InvalidArgument(
          "ingest row " + std::to_string(r) + " has " +
          std::to_string(row.size()) + " values, schema has " +
          std::to_string(schema.num_columns()) + " columns");
    }
    for (int c = 0; c < schema.num_columns(); ++c) {
      if (row[static_cast<size_t>(c)].is_null() &&
          !schema.column(c).nullable) {
        return Status::InvalidArgument("ingest row " + std::to_string(r) +
                                       ": NULL in non-nullable column '" +
                                       schema.column(c).name + "'");
      }
    }
    GBMQO_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Build(name);
}

Result<TablePtr> AppendRows(const Table& base, const Table& delta,
                            std::string name) {
  if (delta.schema().num_columns() != base.schema().num_columns()) {
    return Status::InvalidArgument("delta schema arity does not match base");
  }
  for (int c = 0; c < base.schema().num_columns(); ++c) {
    if (delta.schema().column(c).type != base.schema().column(c).type) {
      return Status::InvalidArgument("delta column '" +
                                     delta.schema().column(c).name +
                                     "' type does not match base");
    }
  }
  std::vector<ColumnPtr> columns;
  columns.reserve(static_cast<size_t>(base.schema().num_columns()));
  for (int c = 0; c < base.schema().num_columns(); ++c) {
    columns.push_back(Column::Concat(base.column(c), delta.column(c)));
  }
  auto built =
      std::make_shared<Table>(std::move(name), base.schema(),
                              std::move(columns),
                              base.num_rows() + delta.num_rows());
  for (const auto& [key, index] : base.indexes()) {
    GBMQO_RETURN_NOT_OK(built->ExtendIndex(index));
  }
  return built;
}

Result<IngestBatch> Ingestor::AppendBatch(
    const std::string& table, const std::vector<std::vector<Value>>& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(table);
  const std::string current =
      it == families_.end() ? table : it->second.current_name;
  Result<TablePtr> base = catalog_->Get(current);
  if (!base.ok()) return base.status();

  Result<TablePtr> delta =
      BuildDeltaTable((*base)->schema(), rows, table + "@delta");
  if (!delta.ok()) return delta.status();

  const uint64_t next =
      (it == families_.end() ? 0 : it->second.version) + 1;
  const std::string next_name = table + "@v" + std::to_string(next);
  Result<TablePtr> appended = AppendRows(**base, **delta, next_name);
  if (!appended.ok()) return appended.status();
  GBMQO_RETURN_NOT_OK(catalog_->RegisterBase(*appended));
  catalog_->SetTableVersion(table, next);

  Family& family = families_[table];
  family.version = next;
  family.current_name = next_name;

  IngestBatch out;
  out.base = *std::move(appended);
  out.delta = *std::move(delta);
  out.version = next;
  return out;
}

uint64_t Ingestor::version(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(table);
  return it == families_.end() ? 0 : it->second.version;
}

Status Ingestor::SeedFamily(const std::string& table, uint64_t version,
                            const std::string& current_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(table);
  const uint64_t have = it == families_.end() ? 0 : it->second.version;
  if (version < have) {
    return Status::InvalidArgument(
        "SeedFamily would move '" + table + "' backwards: at version " +
        std::to_string(have) + ", asked for " + std::to_string(version));
  }
  if (!catalog_->Exists(current_name)) {
    return Status::NotFound("SeedFamily: '" + current_name +
                            "' is not registered in the catalog");
  }
  Family& family = families_[table];
  family.version = version;
  family.current_name = current_name;
  catalog_->SetTableVersion(table, version);
  return Status::OK();
}

std::string Ingestor::current_name(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(table);
  return it == families_.end() ? table : it->second.current_name;
}

}  // namespace gbmqo
