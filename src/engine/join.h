// Join primitives for domain-encoded columns.
//
// Equi-joins on string columns never compare strings row by row: the probe
// side's dictionary is mapped onto the build side's dictionary once, after
// which the join works purely on integer IDs. Every dictionary format is
// order-preserving, so both dictionaries list their values in the same
// byte order and the mapping is a merge of two sorted scans: one decode per
// entry on each side and no locate. An IdIndex provides the id -> rows
// lookup on the build side (counting-sort layout, dense in the dictionary's
// ID space).
#ifndef ADICT_ENGINE_JOIN_H_
#define ADICT_ENGINE_JOIN_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "store/string_column.h"

namespace adict {

/// Marker for "probe value not present in build dictionary".
inline constexpr uint32_t kNoMatch = std::numeric_limits<uint32_t>::max();

/// For every value ID of `from`'s dictionary, the ID of the same string in
/// `to`'s dictionary, or kNoMatch. Decodes `to` once into a
/// DecodedDictionary and merges a scan of `from` against it: the columns
/// record exactly from.num_distinct() and to.num_distinct() dictionary-scan
/// entries and no locate, serial or parallel.
std::vector<uint32_t> MapDictionary(const StringColumn& from,
                                    const StringColumn& to);

/// A column's dictionary decoded once, in ID order, into one byte arena:
/// the side of MapDictionary's merge that is read at random positions.
/// Construction is one ScanDictionary over every entry.
class DecodedDictionary {
 public:
  explicit DecodedDictionary(const StringColumn& column);

  uint32_t size() const { return static_cast<uint32_t>(offsets_.size() - 1); }
  std::string_view operator[](uint32_t id) const {
    return std::string_view(arena_).substr(offsets_[id],
                                           offsets_[id + 1] - offsets_[id]);
  }
  /// ID of the first entry not less than `value` (size() if none).
  uint32_t LowerBound(std::string_view value) const;

 private:
  std::string arena_;
  std::vector<size_t> offsets_{0};  // size() + 1
};

/// The merge core of MapDictionary, shared with its morsel-parallel driver:
/// scans `from`'s entries [begin, end), finds the first one's position in
/// `to` by binary search, and merges forward from there, writing
/// `mapping[id]` for every entry found in `to`. Slots of absent values are
/// left untouched.
void MapDictionaryRange(const StringColumn& from, uint32_t begin,
                        uint32_t end, const DecodedDictionary& to,
                        std::span<uint32_t> mapping);

/// id -> rows index over a domain-encoded column (build side of a join).
class IdIndex {
 public:
  explicit IdIndex(const StringColumn& column);

  /// Rows whose value has the given ID.
  std::span<const uint32_t> Rows(uint32_t id) const {
    if (id >= num_ids_) return {};
    return std::span<const uint32_t>(rows_.data() + offsets_[id],
                                     offsets_[id + 1] - offsets_[id]);
  }

  /// The single row for a unique (key) column; kNoMatch if absent.
  uint32_t UniqueRow(uint32_t id) const {
    const std::span<const uint32_t> rows = Rows(id);
    return rows.empty() ? kNoMatch : rows[0];
  }

 private:
  uint32_t num_ids_;
  std::vector<uint32_t> offsets_;  // num_ids_ + 1
  std::vector<uint32_t> rows_;
};

}  // namespace adict

#endif  // ADICT_ENGINE_JOIN_H_
