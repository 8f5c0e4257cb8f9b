#include "query/catalog.h"

#include <sstream>

#include "util/coding.h"

namespace msv::query {

const Column* TableSchema::Find(const std::string& column_name) const {
  for (const Column& column : columns) {
    if (column.name == column_name) return &column;
  }
  return nullptr;
}

double TableSchema::Value(const char* record, const Column& column) const {
  switch (column.type) {
    case ColumnType::kDouble:
      return DecodeDouble(record + column.offset);
    case ColumnType::kUint64:
      return static_cast<double>(DecodeFixed64(record + column.offset));
  }
  return 0.0;
}

const TableSchema& TableSchema::Sale() {
  static const TableSchema kSale = {
      "sale",
      storage::SaleRecord::kSize,
      {
          {"day", ColumnType::kDouble, storage::SaleRecord::kDayOffset},
          {"amount", ColumnType::kDouble, storage::SaleRecord::kAmountOffset},
          {"cust", ColumnType::kUint64, storage::SaleRecord::kCustOffset},
          {"part", ColumnType::kUint64, storage::SaleRecord::kPartOffset},
          {"supp", ColumnType::kUint64, storage::SaleRecord::kSuppOffset},
          {"row_id", ColumnType::kUint64, storage::SaleRecord::kRowIdOffset},
      },
  };
  return kSale;
}

Result<std::unique_ptr<Catalog>> Catalog::Open(io::Env* env,
                                               std::string file_name) {
  std::unique_ptr<Catalog> catalog(new Catalog(env, std::move(file_name)));
  MSV_ASSIGN_OR_RETURN(bool exists, env->FileExists(catalog->file_name_));
  if (exists) {
    MSV_RETURN_IF_ERROR(catalog->Load());
  }
  return catalog;
}

Status Catalog::Load() {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> file,
                       env_->OpenFile(file_name_, /*create=*/false));
  MSV_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  std::string contents(size, '\0');
  MSV_RETURN_IF_ERROR(file->ReadExact(0, size, contents.data()));

  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "table") {
      TableInfo table;
      std::string schema_name;
      fields >> table.name >> table.file >> schema_name;
      if (schema_name != "sale") {
        return Status::Corruption("unknown schema in catalog: " + schema_name);
      }
      table.schema = &TableSchema::Sale();
      tables_[table.name] = table;
    } else if (kind == "view") {
      ViewInfo view;
      fields >> view.name >> view.table;
      std::string column;
      while (fields >> column) view.index_columns.push_back(column);
      if (view.index_columns.empty()) {
        return Status::Corruption("view without index columns: " + view.name);
      }
      views_[view.name] = view;
    } else {
      return Status::Corruption("bad catalog line: " + line);
    }
  }
  return Status::OK();
}

Status Catalog::Save() const {
  std::ostringstream out;
  for (const auto& [name, table] : tables_) {
    out << "table " << name << " " << table.file << " "
        << table.schema->name << "\n";
  }
  for (const auto& [name, view] : views_) {
    out << "view " << name << " " << view.table;
    for (const std::string& column : view.index_columns) {
      out << " " << column;
    }
    out << "\n";
  }
  // Atomic replace: a crash mid-save must leave the previous catalog, not
  // a torn one.
  return io::WriteFileAtomic(env_, file_name_, out.str());
}

Status Catalog::AddTable(const std::string& name, const std::string& file,
                         const TableSchema* schema) {
  tables_[name] = TableInfo{name, file, schema};
  return Save();
}

Status Catalog::AddView(const ViewInfo& view) {
  if (views_.count(view.name)) {
    return Status::InvalidArgument("view already exists: " + view.name);
  }
  views_[view.name] = view;
  return Save();
}

Status Catalog::DropView(const std::string& name) {
  if (views_.erase(name) == 0) {
    return Status::NotFound("no such view: " + name);
  }
  return Save();
}

const TableInfo* Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const ViewInfo* Catalog::FindView(const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

std::vector<std::string> Catalog::ViewNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : views_) names.push_back(name);
  return names;
}

Result<storage::RecordLayout> Catalog::ViewLayout(const ViewInfo& view) const {
  const TableInfo* table = FindTable(view.table);
  if (table == nullptr) {
    return Status::NotFound("base table missing: " + view.table);
  }
  storage::RecordLayout layout;
  layout.record_size = table->schema->record_size;
  for (const std::string& column_name : view.index_columns) {
    const Column* column = table->schema->Find(column_name);
    if (column == nullptr) {
      return Status::InvalidArgument("no such column: " + column_name);
    }
    if (column->type != ColumnType::kDouble) {
      return Status::InvalidArgument("index column must be numeric (double): " +
                                     column_name);
    }
    layout.key_offsets.push_back(column->offset);
  }
  return layout;
}

}  // namespace msv::query
