// Tests for the column-store substrate: column vectors, domain encoding,
// instrumented string columns, delta merge, tables, and date utilities.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datasets/generators.h"
#include "engine/parallel.h"
#include "obs/obs.h"
#include "obs/workload_profiler.h"
#include "store/column_vector.h"
#include "store/delta.h"
#include "store/string_column.h"
#include "store/table.h"
#include "util/date.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace adict {
namespace {

TEST(ColumnVector, PacksAtMinimalWidth) {
  const std::vector<uint32_t> ids = {0, 1, 2, 3};
  EXPECT_EQ(ColumnVector(ids, 4).bits_per_value(), 2);
  EXPECT_EQ(ColumnVector(ids, 5).bits_per_value(), 3);
  const std::vector<uint32_t> binary = {0, 1, 1, 0};  // ids < num_distinct
  EXPECT_EQ(ColumnVector(binary, 2).bits_per_value(), 1);
  const std::vector<uint32_t> zero = {0, 0};
  EXPECT_EQ(ColumnVector(zero, 1).bits_per_value(), 1);
}

TEST(ColumnVector, RoundtripAcrossWordBoundaries) {
  Rng rng(1);
  for (uint32_t distinct : {2u, 3u, 31u, 33u, 1000u, 100000u, 1u << 20}) {
    std::vector<uint32_t> ids(999);
    for (auto& id : ids) id = static_cast<uint32_t>(rng.Uniform(distinct));
    const ColumnVector vec(ids, distinct);
    for (size_t row = 0; row < ids.size(); ++row) {
      ASSERT_EQ(vec.Get(row), ids[row]) << "distinct " << distinct;
    }
  }
}

TEST(ColumnVector, MemorySmallerThanPlainArray) {
  std::vector<uint32_t> ids(10000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i % 16;  // 4 bits
  const ColumnVector vec(ids, 16);
  EXPECT_LT(vec.MemoryBytes(), ids.size() * sizeof(uint32_t) / 4);
}

TEST(DomainEncode, BuildsSortedDistinctDictionary) {
  const std::vector<std::string> values = {"b", "a", "c", "a", "b", "a"};
  const DomainEncoded encoded = DomainEncode(values);
  EXPECT_EQ(encoded.dictionary, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(encoded.ids, (std::vector<uint32_t>{1, 0, 2, 0, 1, 0}));
}

TEST(StringColumn, RoundtripsValues) {
  std::vector<std::string> values;
  Rng rng(2);
  const std::vector<std::string> pool = GenerateSurveyDataset("engl", 50, 3);
  for (int i = 0; i < 1000; ++i) values.push_back(pool[rng.Uniform(pool.size())]);

  for (DictFormat format : {DictFormat::kArray, DictFormat::kFcInline,
                            DictFormat::kFcBlockRp12, DictFormat::kColumnBc}) {
    const StringColumn column = StringColumn::FromValues(values, format);
    ASSERT_EQ(column.num_rows(), values.size());
    EXPECT_EQ(column.num_distinct(), 50u);
    for (size_t row = 0; row < values.size(); ++row) {
      ASSERT_EQ(column.GetValue(row), values[row]) << DictFormatName(format);
    }
  }
}

TEST(StringColumn, ValueIdsStableAcrossFormats) {
  // All formats are order-preserving, so a format change must not move IDs:
  // the column vector can be kept (this is what makes cheap re-deciding at
  // merge time possible).
  const std::vector<std::string> values = GenerateSurveyDataset("mat", 500, 4);
  StringColumn column = StringColumn::FromValues(values, DictFormat::kArray);
  std::vector<uint32_t> ids_before(column.num_rows());
  for (size_t row = 0; row < column.num_rows(); ++row) {
    ids_before[row] = column.GetValueId(row);
  }
  column.ChangeFormat(DictFormat::kFcBlockHu);
  EXPECT_EQ(column.format(), DictFormat::kFcBlockHu);
  for (size_t row = 0; row < column.num_rows(); ++row) {
    ASSERT_EQ(column.GetValueId(row), ids_before[row]);
    ASSERT_EQ(column.GetValue(row), values[row]);
  }
}

TEST(StringColumn, TracksUsage) {
  const std::vector<std::string> values = {"x", "y", "z", "x"};
  const StringColumn column = StringColumn::FromValues(values);
  (void)column.GetValue(0);
  (void)column.GetValue(1);
  (void)column.Locate("y");
  const ColumnUsage usage = column.TracedUsage(60.0);
  EXPECT_EQ(usage.num_extracts, 2u);
  EXPECT_EQ(usage.num_locates, 1u);
  EXPECT_DOUBLE_EQ(usage.lifetime_seconds, 60.0);
  EXPECT_EQ(usage.column_vector_bytes, column.VectorBytes());
}

TEST(StringColumn, ResetUsageClearsCounters) {
  const StringColumn column =
      StringColumn::FromValues(std::vector<std::string>{"a", "b"});
  (void)column.GetValue(0);
  const_cast<StringColumn&>(column).ResetUsage();
  EXPECT_EQ(column.TracedUsage(1.0).num_extracts, 0u);
}

// -- One access record: the trace and the heat slot read the same counts ---

std::vector<std::string> TraceValues() {
  return {"delta", "alpha", "charlie", "bravo", "alpha", "delta", "echo",
          "bravo"};
}

TEST(StringColumn, BoundTraceCountsDictionaryAccessesNotRowScans) {
  obs::SetEnabled(true);
  obs::ResetForTest();  // fresh slots, also under --gtest_repeat
  Table table("trace_bound");
  table.AddStringColumn("c", StringColumn::FromValues(TraceValues()));
  StringColumn& column = table.strings("c");
  (void)column.GetValue(0);  // before the reset: not traced
  column.ResetUsage();

  (void)column.GetValue(1);
  std::string out;
  column.GetValueInto(2, &out);
  (void)column.ExtractId(0);
  column.ScanDictionary(1, 3, [](uint32_t, std::string_view) {});
  (void)column.Locate("bravo");
  (void)column.Locate("zulu");
  const ColumnUsage traced = column.TracedUsage(1.0);
  EXPECT_EQ(traced.num_extracts, 3u + 3u);  // singletons + scan entries
  EXPECT_EQ(traced.num_locates, 2u);

  // Morsel-driver row scans reach the slot as kRowScan, not the trace.
  ThreadPool pool(2);
  const IdRange range{0, 2};
  (void)ParallelSelectRows(column, range, &pool);
  (void)ParallelCountRows(column, range, &pool);
  const ColumnUsage after = column.TracedUsage(1.0);
  EXPECT_EQ(after.num_extracts, traced.num_extracts);
  EXPECT_EQ(after.num_locates, traced.num_locates);
  EXPECT_EQ(column.heat()->Totals(obs::ColumnOp::kRowScan).count,
            2 * column.num_rows());
  EXPECT_EQ(column.heat()->Totals(obs::ColumnOp::kExtract).count, 4u);
  EXPECT_EQ(column.heat()->Totals(obs::ColumnOp::kScan).count, 3u);
}

TEST(StringColumn, PublishedVersionTraceStartsAtZeroWhileSlotTotalsRise) {
  obs::SetEnabled(true);
  obs::ResetForTest();  // fresh slots, also under --gtest_repeat
  Table table("trace_publish");
  table.AddStringColumn("c", StringColumn::FromValues(TraceValues()));
  VersionedStringColumn& versioned = table.string_column(0);
  obs::ColumnHeat* slot = versioned.Snapshot()->heat();
  ASSERT_NE(slot, nullptr);
  const auto extracts = [slot] {
    return slot->Totals(obs::ColumnOp::kExtract).count;
  };

  (void)versioned.Snapshot()->GetValue(0);
  (void)versioned.Snapshot()->Locate("alpha");
  versioned.current().ResetUsage();
  EXPECT_EQ(extracts(), 1u);  // a reset restarts the trace, not the slot
  EXPECT_EQ(versioned.Snapshot()->TracedUsage(1.0).num_extracts, 0u);

  // Publish: the new version inherits the slot and starts its trace at 0.
  versioned.Publish(
      StringColumn::FromValues(TraceValues(), DictFormat::kArray));
  std::shared_ptr<const StringColumn> next = versioned.Snapshot();
  EXPECT_EQ(next->heat(), slot);
  EXPECT_EQ(next->TracedUsage(1.0).num_extracts, 0u);
  EXPECT_EQ(next->TracedUsage(1.0).num_locates, 0u);
  EXPECT_EQ(extracts(), 1u);
  (void)next->GetValue(1);
  EXPECT_EQ(next->TracedUsage(1.0).num_extracts, 1u);
  EXPECT_EQ(extracts(), 2u);

  // A merge output is bound before it is published; accesses made between
  // the merge and the publish are not part of the new version's trace.
  DeltaColumn delta;
  delta.Append("foxtrot");
  StringColumn merged = MergeDelta(*next, delta, DictFormat::kFcBlock);
  EXPECT_EQ(merged.heat(), slot);
  (void)merged.GetValue(0);
  ASSERT_TRUE(versioned.PublishIfEpoch(std::move(merged), versioned.epoch()));
  next = versioned.Snapshot();
  EXPECT_EQ(next->TracedUsage(1.0).num_extracts, 0u);
  EXPECT_EQ(extracts(), 3u);
  (void)next->Locate("foxtrot");
  EXPECT_EQ(next->TracedUsage(1.0).num_locates, 1u);
  EXPECT_EQ(slot->Totals(obs::ColumnOp::kLocate).count, 2u);
}

TEST(StringColumn, TraceCountsWithObservabilityOff) {
  obs::SetEnabled(true);
  obs::ResetForTest();  // fresh slots, also under --gtest_repeat
  Table table("trace_obs_off");
  table.AddStringColumn("c", StringColumn::FromValues(TraceValues()));
  StringColumn& column = table.strings("c");
  const obs::ColumnHeat* slot = column.heat();
  const auto observations = [slot] {
    uint64_t total = 0;
    for (int op = 0; op < obs::kNumColumnOps; ++op) {
      total += slot->latency(static_cast<obs::ColumnOp>(op)).count();
    }
    return total;
  };
  const uint64_t observed_before = observations();

  obs::SetEnabled(false);
  column.ResetUsage();
  // Two sample periods: with obs on, calls 0 and 64 would be timed.
  constexpr uint64_t kCalls = 2 * obs::ColumnHeat::kLatencySamplePeriod;
  for (uint64_t i = 0; i < kCalls; ++i) {
    (void)column.GetValue(i % column.num_rows());
  }
  column.ScanDictionary(0, column.num_distinct(),
                        [](uint32_t, std::string_view) {});
  (void)column.Locate("echo");
  obs::SetEnabled(true);

  const ColumnUsage usage = column.TracedUsage(1.0);
  EXPECT_EQ(usage.num_extracts, kCalls + column.num_distinct());
  EXPECT_EQ(usage.num_locates, 1u);
  EXPECT_EQ(slot->Totals(obs::ColumnOp::kExtract).count, kCalls);
  EXPECT_EQ(observations(), observed_before);
}

TEST(StringColumn, MaterializeDictionaryReturnsSortedValues) {
  const std::vector<std::string> values = {"m", "a", "z", "a"};
  const StringColumn column = StringColumn::FromValues(values);
  EXPECT_EQ(column.MaterializeDictionary(),
            (std::vector<std::string>{"a", "m", "z"}));
}

TEST(DeltaColumn, DedupsValues) {
  DeltaColumn delta;
  delta.Append("apple");
  delta.Append("pear");
  delta.Append("apple");
  EXPECT_EQ(delta.num_rows(), 3u);
  EXPECT_EQ(delta.num_distinct(), 2u);
  EXPECT_EQ(delta.GetValue(0), "apple");
  EXPECT_EQ(delta.GetValue(1), "pear");
  EXPECT_EQ(delta.GetValue(2), "apple");
}

TEST(DeltaMerge, AppendsRowsAndMergesDictionaries) {
  const std::vector<std::string> main_values = {"b", "d", "b"};
  StringColumn main = StringColumn::FromValues(main_values, DictFormat::kArray);
  DeltaColumn delta;
  delta.Append("a");
  delta.Append("d");
  delta.Append("c");

  const StringColumn merged = MergeDelta(main, delta, DictFormat::kFcBlock);
  ASSERT_EQ(merged.num_rows(), 6u);
  EXPECT_EQ(merged.num_distinct(), 4u);  // a b c d
  const std::vector<std::string> expected = {"b", "d", "b", "a", "d", "c"};
  for (size_t row = 0; row < expected.size(); ++row) {
    EXPECT_EQ(merged.GetValue(row), expected[row]);
  }
}

TEST(DeltaMerge, EmptyDeltaIsFormatChangeOnly) {
  const std::vector<std::string> values = {"q", "r", "s"};
  StringColumn main = StringColumn::FromValues(values, DictFormat::kArray);
  const StringColumn merged =
      MergeDelta(main, DeltaColumn{}, DictFormat::kArrayFixed);
  EXPECT_EQ(merged.format(), DictFormat::kArrayFixed);
  EXPECT_EQ(merged.num_rows(), 3u);
  EXPECT_EQ(merged.GetValue(2), "s");
}

TEST(DeltaMerge, AdaptiveMergeUsesTracedWorkload) {
  const std::vector<std::string> values = GenerateSurveyDataset("url", 3000, 5);
  StringColumn main = StringColumn::FromValues(values, DictFormat::kArray);
  // Trace a read-heavy workload.
  for (int i = 0; i < 5000; ++i) (void)main.GetValue(i % main.num_rows());

  DeltaColumn delta;
  delta.Append("https://zzz.example.com/new");

  CompressionManager manager;
  manager.set_c(0.01);  // compression-leaning
  const StringColumn merged = MergeDeltaAdaptive(main, delta, manager, 600.0);
  ASSERT_EQ(merged.num_rows(), main.num_rows() + 1);
  // The traced workload and low c should not pick the plain array.
  EXPECT_NE(merged.format(), DictFormat::kArray);
  EXPECT_EQ(merged.GetValue(merged.num_rows() - 1),
            "https://zzz.example.com/new");
}

TEST(Table, ColumnAccessByName) {
  Table table("t");
  table.AddStringColumn(
      "name", StringColumn::FromValues(std::vector<std::string>{"x", "y"}));
  table.AddInt64Column("count", {1, 2});
  table.AddDoubleColumn("price", {0.5, 1.5});
  table.AddDateColumn("day", {ParseDate("2020-01-01"), ParseDate("2020-01-02")});

  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.strings("name").GetValue(1), "y");
  EXPECT_EQ(table.int64s("count")[0], 1);
  EXPECT_DOUBLE_EQ(table.doubles("price")[1], 1.5);
  EXPECT_EQ(FormatDate(table.dates("day")[0]), "2020-01-01");
  EXPECT_TRUE(table.has_string_column("name"));
  EXPECT_FALSE(table.has_string_column("count"));
  EXPECT_GT(table.MemoryBytes(), 0u);
}

TEST(Date, CivilConversionsRoundtrip) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(ParseDate("1998-12-01"), DaysFromCivil(1998, 12, 1));
  EXPECT_EQ(FormatDate(ParseDate("1995-06-17")), "1995-06-17");
  for (const char* date : {"1992-01-01", "1996-02-29", "1998-08-02"}) {
    EXPECT_EQ(FormatDate(ParseDate(date)), date);
  }
}

TEST(Date, AddMonthsHandlesYearWrapAndClamping) {
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1993-07-01"), 3)), "1993-10-01");
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1994-11-15"), 3)), "1995-02-15");
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1996-01-31"), 1)), "1996-02-29");
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1995-01-31"), 1)), "1995-02-28");
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1995-03-31"), -1)), "1995-02-28");
}

}  // namespace
}  // namespace adict
