// Internal helpers shared by the TPC-H query implementations.
#ifndef ADICT_TPCH_QUERY_HELPERS_H_
#define ADICT_TPCH_QUERY_HELPERS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/join.h"
#include "engine/predicates.h"
#include "engine/result.h"
#include "store/table.h"
#include "util/date.h"

namespace adict {
namespace tpch_internal {

/// One query's pin on a string column: the version current when the query
/// starts, held until the query returns. Each plan pins every string column
/// it reads once, at its top, and its row loops then touch no name lookup
/// and no version mutex. Every dictionary map and value ID in the plan
/// comes from that one version, however many publishes race the query.
class PinnedColumn {
 public:
  PinnedColumn(const Table& table, const std::string& name)
      : snapshot_(table.SnapshotStrings(name)) {}

  operator const StringColumn&() const { return *snapshot_; }
  const StringColumn* operator->() const { return snapshot_.get(); }

 private:
  std::shared_ptr<const StringColumn> snapshot_;
};

/// Foreign-key join accessor: maps the FK column's value IDs to rows of the
/// primary-key table in two precomputed steps. Holds `fk` (a pin that must
/// outlive the join) by reference, so the ID map is only ever indexed with
/// IDs of the version it was built on.
struct FkJoin {
  const StringColumn& fk;
  std::vector<uint32_t> id_map;  // fk value id -> pk value id (or kNoMatch)
  IdIndex pk_index;

  FkJoin(const StringColumn& fk, const StringColumn& pk)
      : fk(fk), id_map(MapDictionary(fk, pk)), pk_index(pk) {}

  /// Row in the PK table for FK row `fk_row`, or kNoMatch.
  uint32_t Row(uint64_t fk_row) const {
    const uint32_t pk_id = id_map[fk.GetValueId(fk_row)];
    return pk_id == kNoMatch ? kNoMatch : pk_index.UniqueRow(pk_id);
  }
};

inline int YearOf(int32_t days) { return CivilFromDays(days).year; }

/// Packs up to three 21-bit IDs into one group-by key.
inline uint64_t GroupKey(uint32_t a, uint32_t b = 0, uint32_t c = 0) {
  return (static_cast<uint64_t>(a) << 42) | (static_cast<uint64_t>(b) << 21) |
         static_cast<uint64_t>(c);
}

}  // namespace tpch_internal
}  // namespace adict

#endif  // ADICT_TPCH_QUERY_HELPERS_H_
