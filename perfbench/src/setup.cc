// Set-up: build the stores the way the compression manager configures them.
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.h"
#include "datasets/generators.h"
#include "obs/obs.h"
#include "tpch/queries.h"
#include "util/rng.h"

namespace perfbench {
namespace {

/// One column awaiting its format decision.
struct PendingColumn {
  adict::StringColumn* column = nullptr;
  std::string name;
  std::vector<std::string> values;  // sorted distinct
  adict::ColumnUsage usage;
};

/// Snapshots each column's traced usage with the fixed lifetime.
PendingColumn Pending(adict::StringColumn* column, std::string name) {
  PendingColumn pending;
  pending.column = column;
  pending.name = std::move(name);
  pending.values = column->MaterializeDictionary();
  pending.usage = column->TracedUsage(kTraceLifetimeSeconds);
  pending.usage.num_extracts *= kTraceMultiplier;
  pending.usage.num_locates *= kTraceMultiplier;
  return pending;
}

/// Chooses and builds every column's format, one column per thread at a
/// time (largest dictionaries first), timing each call. Single-writer
/// phase: nothing else reads the columns yet.
std::vector<ColumnChoice> Configure(const adict::CompressionManager& manager,
                                    std::vector<PendingColumn> pending) {
  std::vector<ColumnChoice> choices(pending.size());
  std::vector<size_t> order(pending.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pending[a].values.size() > pending[b].values.size();
  });
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t k = next.fetch_add(1); k < order.size(); k = next.fetch_add(1)) {
      PendingColumn& column = pending[order[k]];
      ColumnChoice& choice = choices[order[k]];
      uint64_t start = NowNs();
      const adict::FormatDecision decision =
          manager.ChooseFormatLogged(column.values, column.usage, column.name);
      choice.select_ms = SecondsSince(start) * 1e3;
      start = NowNs();
      column.column->ChangeFormat(decision.format);
      choice.build_ms = SecondsSince(start) * 1e3;
      if (decision.log_sequence != 0) {
        adict::obs::Decisions().RecordActual(
            decision.log_sequence,
            static_cast<double>(column.column->DictionaryBytes()));
      }
      choice.name = column.name;
      choice.format = decision.format;
      choice.traced_extracts = column.usage.num_extracts;
    }
  };
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
  return choices;
}

}  // namespace

double TotalSelectMs(const std::vector<ColumnChoice>& choices) {
  double total = 0;
  for (const ColumnChoice& c : choices) total += c.select_ms;
  return total;
}

double TotalBuildMs(const std::vector<ColumnChoice>& choices) {
  double total = 0;
  for (const ColumnChoice& c : choices) total += c.build_ms;
  return total;
}

double DictBytesRatio(const std::vector<const Table*>& tables) {
  double dict_bytes = 0;
  double raw_bytes = 0;
  for (const Table* table : tables) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      const std::shared_ptr<const adict::StringColumn> column =
          table->string_column(i).Snapshot();
      dict_bytes += static_cast<double>(column->DictionaryBytes());
      for (const std::string& value : column->MaterializeDictionary()) {
        raw_bytes += static_cast<double>(value.size());
      }
    }
  }
  return raw_bytes > 0 ? dict_bytes / raw_bytes : 0;
}

bool SameFormats(const std::vector<ColumnChoice>& a,
                 const std::vector<ColumnChoice>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].format != b[i].format) return false;
  }
  return true;
}

TpchStore SetUpTpch() {
  adict::TpchOptions options;
  options.scale_factor = kScaleFactor;
  options.seed = kDbgenSeed;
  TpchStore store;
  store.db = std::make_unique<TpchDatabase>(adict::GenerateTpch(options));

  // Usage trace: the 22 queries once.
  store.db->ResetUsage();
  for (int q = 1; q <= adict::kNumTpchQueries; ++q) {
    (void)adict::RunTpchQuery(*store.db, q);
  }
  std::vector<PendingColumn> pending;
  for (Table* table : store.db->tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      pending.push_back(Pending(&table->string_column(i).current(),
                                table->name() + "." +
                                    table->string_column_name(i)));
    }
  }
  store.choices = Configure(adict::CompressionManager(), std::move(pending));
  return store;
}

namespace {

struct IngestColumnSpec {
  const char* column;
  const char* dataset;
};
// Words (front coding territory), URLs (Re-Pair) and material numbers
// (bit compression): three different corners of the format space.
constexpr IngestColumnSpec kIngestColumns[] = {
    {"word", "engl"}, {"url", "url"}, {"code", "mat"}};
constexpr size_t kIngestDistinct = 1500;
constexpr size_t kIngestRows = 6000;
constexpr uint64_t kIngestDataSeed = 7;

}  // namespace

IngestStore SetUpIngest() {
  IngestStore store;
  store.table = std::make_unique<Table>("ingest");
  store.manager = std::make_unique<adict::CompressionManager>();
  for (const IngestColumnSpec& spec : kIngestColumns) {
    const std::vector<std::string> distinct = adict::GenerateSurveyDataset(
        spec.dataset, kIngestDistinct, kIngestDataSeed);
    adict::Rng rng(kIngestDataSeed + store.columns.size());
    std::vector<std::string> rows(kIngestRows);
    for (std::string& row : rows) row = distinct[rng.Uniform(distinct.size())];
    store.table->AddStringColumn(spec.column,
                                 adict::StringColumn::FromValues(rows));
    store.columns.push_back(spec.column);
    store.datasets.push_back(spec.dataset);
    store.values.push_back(std::move(rows));
  }
  // Usage trace: a mix of extracts and locates, once.
  std::vector<PendingColumn> pending;
  for (size_t c = 0; c < store.columns.size(); ++c) {
    adict::StringColumn& column = store.table->strings(store.columns[c]);
    column.ResetUsage();
    for (uint64_t row = 0; row < kIngestRows; row += 3) {
      (void)column.GetValue(row);
    }
    for (uint64_t row = 0; row < kIngestRows; row += 12) {
      (void)column.Locate(store.values[c][row]);
    }
    pending.push_back(Pending(&column, "ingest." + store.columns[c]));
  }
  Configure(*store.manager, std::move(pending));
  return store;
}

}  // namespace perfbench
