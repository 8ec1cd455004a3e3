#include "store/string_column.h"

#include <algorithm>

#include "dict/serialization.h"
#include "obs/trace.h"
#include "util/check.h"

namespace adict {

DomainEncoded DomainEncode(std::span<const std::string> values) {
  DomainEncoded encoded;
  encoded.dictionary.assign(values.begin(), values.end());
  std::sort(encoded.dictionary.begin(), encoded.dictionary.end());
  encoded.dictionary.erase(
      std::unique(encoded.dictionary.begin(), encoded.dictionary.end()),
      encoded.dictionary.end());

  encoded.ids.reserve(values.size());
  for (const std::string& value : values) {
    const auto it = std::lower_bound(encoded.dictionary.begin(),
                                     encoded.dictionary.end(), value);
    encoded.ids.push_back(
        static_cast<uint32_t>(it - encoded.dictionary.begin()));
  }
  return encoded;
}

StringColumn StringColumn::FromValues(std::span<const std::string> values,
                                      DictFormat format) {
  return FromEncoded(DomainEncode(values), format);
}

StringColumn StringColumn::FromEncoded(DomainEncoded encoded,
                                       DictFormat format) {
  StringColumn column;
  column.dict_ = BuildDictionary(format, encoded.dictionary);
  column.vector_ = ColumnVector(
      encoded.ids, static_cast<uint32_t>(encoded.dictionary.size()));
  return column;
}

StringColumn StringColumn::FromParts(std::unique_ptr<Dictionary> dict,
                                     std::span<const uint32_t> ids) {
  ADICT_CHECK(dict != nullptr);
  StringColumn column;
  column.vector_ = ColumnVector(ids, dict->size());
  column.dict_ = std::move(dict);
  return column;
}

StringColumn StringColumn::FromParts(std::unique_ptr<Dictionary> dict,
                                     ColumnVector vector) {
  ADICT_CHECK(dict != nullptr);
  StringColumn column;
  column.vector_ = std::move(vector);
  column.dict_ = std::move(dict);
  return column;
}

std::vector<std::string> StringColumn::MaterializeDictionary() const {
  ADICT_TRACE_SPAN("column.materialize_dictionary");
  std::vector<std::string> values;
  values.reserve(dict_->size());
  for (uint32_t id = 0; id < dict_->size(); ++id) {
    values.push_back(dict_->Extract(id));
  }
  return values;
}

void StringColumn::ChangeFormat(DictFormat format) {
  if (format == dict_->format()) return;
  const std::vector<std::string> values = MaterializeDictionary();
  dict_ = BuildDictionary(format, values);
}

ColumnUsage StringColumn::TracedUsage(double lifetime_seconds) const {
  const UsageMark now = Mark();
  // A record zeroed since the baseline (obs::ResetForTest, between tests)
  // counts from zero.
  const UsageMark base =
      now.resets == baseline_.resets ? baseline_ : UsageMark{};
  ColumnUsage usage;
  usage.num_extracts = now.extracts - base.extracts;
  usage.num_locates = now.locates - base.locates;
  usage.lifetime_seconds = lifetime_seconds;
  usage.column_vector_bytes = VectorBytes();
  return usage;
}

void StringColumn::BindHeat(obs::ColumnHeat* heat) {
  heat_ = heat;
  counters_ = heat != nullptr ? &heat->counters() : own_counters_.get();
  baseline_ = Mark();
}

StringColumn::UsageMark StringColumn::Mark() const {
  UsageMark mark;
  mark.resets = counters_->resets.load(std::memory_order_relaxed);
  mark.extracts = counters_->count(obs::ColumnOp::kExtract) +
                  counters_->count(obs::ColumnOp::kScan);
  mark.locates = counters_->count(obs::ColumnOp::kLocate);
  return mark;
}

void StringColumn::Serialize(ByteWriter* out) const {
  std::vector<uint8_t> dict_bytes;
  SaveDictionary(*dict_, &dict_bytes);
  out->WriteVector(dict_bytes);
  vector_.Serialize(out);
}

StatusOr<StringColumn> StringColumn::Deserialize(ByteReader* in) {
  StringColumn column;
  const std::vector<uint8_t> dict_bytes = in->ReadVector<uint8_t>();
  StatusOr<std::unique_ptr<Dictionary>> dict = LoadDictionary(dict_bytes);
  if (!dict.ok()) return dict.status();
  column.dict_ = std::move(dict).value();
  column.vector_ = ColumnVector::Deserialize(in);
  return column;
}

}  // namespace adict
