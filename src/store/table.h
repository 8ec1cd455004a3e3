// A minimal in-memory column-store table: named, typed columns of equal row
// count. String columns are domain encoded; numeric and date columns are
// plain vectors (they are not the subject of the paper).
#ifndef ADICT_STORE_TABLE_H_
#define ADICT_STORE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/string_column.h"
#include "util/check.h"

namespace adict {

class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  // Movable, not copyable (columns can be large).
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  void AddStringColumn(const std::string& name, StringColumn column) {
    CheckRows(column.num_rows());
    // Bind the workload-profiler heat slot before the column is shared;
    // every later version inherits it through Publish.
    column.BindHeat(obs::Profiler().GetColumn(name_ + "." + name));
    string_index_[name] = string_columns_.size();
    string_columns_.push_back(
        std::make_unique<VersionedStringColumn>(std::move(column)));
    string_column_names_.push_back(name);
    column_names_.push_back(name);
  }
  void AddInt64Column(const std::string& name, std::vector<int64_t> values) {
    CheckRows(values.size());
    int64_index_[name] = int64_columns_.size();
    int64_columns_.push_back(std::move(values));
    column_names_.push_back(name);
  }
  void AddDoubleColumn(const std::string& name, std::vector<double> values) {
    CheckRows(values.size());
    double_index_[name] = double_columns_.size();
    double_columns_.push_back(std::move(values));
    column_names_.push_back(name);
  }
  void AddDateColumn(const std::string& name, std::vector<int32_t> values) {
    CheckRows(values.size());
    date_index_[name] = date_columns_.size();
    date_columns_.push_back(std::move(values));
    column_names_.push_back(name);
  }

  // Single-writer-phase references into the current version of a column
  // (load, reconfiguration, benchmarks and tests that own the table). Valid
  // until the column's next Publish. Anything that may run while a column
  // is published, every query plan and the server included, must use
  // SnapshotStrings() instead.
  const StringColumn& strings(const std::string& name) const {
    return string_columns_[IndexOf(string_index_, name)]->current();
  }
  StringColumn& strings(const std::string& name) {
    return string_columns_[IndexOf(string_index_, name)]->current();
  }

  /// Pinned snapshot of a string column: the reader-side of the snapshot
  /// protocol. The returned version stays valid (and bit-identical) across
  /// any concurrent PublishStrings / merge.
  std::shared_ptr<const StringColumn> SnapshotStrings(
      const std::string& name) const {
    return string_columns_[IndexOf(string_index_, name)]->Snapshot();
  }

  /// The versioned holder of a string column: snapshot + epoch access by
  /// name. The serving layer's result cache records (column, epoch) pairs
  /// through this to invalidate cached results on any publish.
  const VersionedStringColumn& versioned_strings(
      const std::string& name) const {
    return *string_columns_[IndexOf(string_index_, name)];
  }
  VersionedStringColumn& versioned_strings(const std::string& name) {
    return *string_columns_[IndexOf(string_index_, name)];
  }

  /// Publishes the next version of a string column (the writer-side commit
  /// of a delta merge or format change). Readers holding snapshots keep
  /// their old version; new snapshots see `next`.
  void PublishStrings(const std::string& name, StringColumn next) {
    string_columns_[IndexOf(string_index_, name)]->Publish(std::move(next));
  }
  const std::vector<int64_t>& int64s(const std::string& name) const {
    return int64_columns_[IndexOf(int64_index_, name)];
  }
  const std::vector<double>& doubles(const std::string& name) const {
    return double_columns_[IndexOf(double_index_, name)];
  }
  const std::vector<int32_t>& dates(const std::string& name) const {
    return date_columns_[IndexOf(date_index_, name)];
  }

  bool has_string_column(const std::string& name) const {
    return string_index_.contains(name);
  }

  /// Number of string columns; iterate with string_column(i) (e.g. for the
  /// compression manager to reconfigure).
  size_t num_string_columns() const { return string_columns_.size(); }
  /// Versioned string column `i`, in AddStringColumn order.
  VersionedStringColumn& string_column(size_t i) {
    return *string_columns_[i];
  }
  const VersionedStringColumn& string_column(size_t i) const {
    return *string_columns_[i];
  }
  /// Name of string column `i`, parallel to string_column(i).
  const std::string& string_column_name(size_t i) const {
    return string_column_names_[i];
  }

  const std::string& name() const { return name_; }
  uint64_t num_rows() const { return num_rows_; }

  /// Safe to call while columns are published: each string column is
  /// read through a snapshot.
  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& col : string_columns_) {
      bytes += col->Snapshot()->MemoryBytes();
    }
    for (const auto& col : int64_columns_) bytes += col.size() * sizeof(int64_t);
    for (const auto& col : double_columns_) bytes += col.size() * sizeof(double);
    for (const auto& col : date_columns_) bytes += col.size() * sizeof(int32_t);
    return bytes;
  }

 private:
  template <typename Map>
  size_t IndexOf(const Map& map, const std::string& name) const {
    const auto it = map.find(name);
    ADICT_CHECK_MSG(it != map.end(), name.c_str());
    return it->second;
  }

  void CheckRows(uint64_t rows) {
    if (column_names_.empty()) {
      num_rows_ = rows;
    } else {
      ADICT_CHECK_MSG(rows == num_rows_, "column row count mismatch");
    }
  }

  std::string name_;
  uint64_t num_rows_ = 0;
  std::vector<std::string> column_names_;
  // unique_ptr: a VersionedStringColumn owns a Mutex and cannot move, but
  // the Table must stay movable.
  std::vector<std::unique_ptr<VersionedStringColumn>> string_columns_;
  std::vector<std::string> string_column_names_;  // parallel to the above
  std::vector<std::vector<int64_t>> int64_columns_;
  std::vector<std::vector<double>> double_columns_;
  std::vector<std::vector<int32_t>> date_columns_;
  std::unordered_map<std::string, size_t> string_index_;
  std::unordered_map<std::string, size_t> int64_index_;
  std::unordered_map<std::string, size_t> double_index_;
  std::unordered_map<std::string, size_t> date_index_;
};

}  // namespace adict

#endif  // ADICT_STORE_TABLE_H_
