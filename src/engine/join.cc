#include "engine/join.h"

#include <algorithm>
#include <ranges>

#include "engine/parallel.h"
#include "util/check.h"

namespace adict {

std::vector<uint32_t> MapDictionary(const StringColumn& from,
                                    const StringColumn& to) {
  if (ShouldParallelize(from.num_distinct(), kMorselDictEntries)) {
    return ParallelMapDictionary(from, to);
  }
  std::vector<uint32_t> mapping(from.num_distinct(), kNoMatch);
  MapDictionaryRange(from, 0, from.num_distinct(), DecodedDictionary(to),
                     mapping);
  return mapping;
}

DecodedDictionary::DecodedDictionary(const StringColumn& column) {
  offsets_.reserve(static_cast<size_t>(column.num_distinct()) + 1);
  column.ScanDictionary(
      0, column.num_distinct(), [this](uint32_t, std::string_view value) {
        // The merge relies on the order every format preserves.
        ADICT_DCHECK(size() == 0 || (*this)[size() - 1] < value);
        arena_.append(value);
        offsets_.push_back(arena_.size());
      });
}

uint32_t DecodedDictionary::LowerBound(std::string_view value) const {
  const auto ids = std::views::iota(uint32_t{0}, size());
  const auto it = std::ranges::partition_point(
      ids, [&](uint32_t id) { return (*this)[id] < value; });
  return static_cast<uint32_t>(it - ids.begin());
}

void MapDictionaryRange(const StringColumn& from, uint32_t begin,
                        uint32_t end, const DecodedDictionary& to,
                        std::span<uint32_t> mapping) {
  if (begin >= end) return;
  uint32_t cursor = 0;
  [[maybe_unused]] std::string previous;  // for the debug order check
  from.ScanDictionary(
      begin, end - begin, [&](uint32_t id, std::string_view value) {
        if (id == begin) {
          cursor = to.LowerBound(value);
        } else {
          ADICT_DCHECK(previous < value);
        }
#ifndef NDEBUG
        previous.assign(value);
#endif
        while (cursor < to.size() && to[cursor] < value) ++cursor;
        if (cursor < to.size() && to[cursor] == value) mapping[id] = cursor;
      });
}

IdIndex::IdIndex(const StringColumn& column)
    : num_ids_(column.num_distinct()) {
  const uint64_t n = column.num_rows();
  offsets_.assign(num_ids_ + 1, 0);
  if (ShouldParallelize(n, kMorselRows)) {
    // Parallel counting pass; the per-ID counts are exact regardless of
    // morsel interleaving (relaxed increments commute).
    const std::vector<uint32_t> counts = ParallelCountIds(column);
    for (uint32_t id = 0; id < num_ids_; ++id) {
      offsets_[id + 1] = counts[id];
    }
  } else {
    for (uint64_t row = 0; row < n; ++row) {
      ++offsets_[column.GetValueId(row) + 1];
    }
  }
  for (uint32_t id = 0; id < num_ids_; ++id) {
    offsets_[id + 1] += offsets_[id];
  }
  rows_.resize(n);
  // The scatter stays serial: rows must land in ascending row order within
  // each ID bucket, which the shared cursor vector only guarantees when
  // rows are visited in order by one thread.
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (uint64_t row = 0; row < n; ++row) {
    rows_[cursor[column.GetValueId(row)]++] = static_cast<uint32_t>(row);
  }
}

}  // namespace adict
