// Per-layer microbenchmarks: each timed around one public call of a layer,
// on the manager-configured TPC-H store.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench.h"
#include "engine/join.h"
#include "engine/parallel.h"
#include "engine/predicates.h"
#include "obs/obs.h"
#include "tpch/queries.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

/// Wall time per operation of `threads` threads each running `ops` calls of
/// `op(thread, i)` at once: the latency of one call under that much
/// concurrency. Median of three rounds.
double NsPerOp(int threads, uint64_t ops,
               const std::function<void(int, uint64_t)>& op) {
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 1; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (uint64_t i = 0; i < ops; ++i) op(t, i);
      });
    }
    while (ready.load() < threads - 1) std::this_thread::yield();
    const uint64_t start = NowNs();
    go.store(true, std::memory_order_release);
    for (uint64_t i = 0; i < ops; ++i) op(0, i);
    for (std::thread& w : workers) w.join();
    rounds.push_back(static_cast<double>(NowNs() - start) /
                     static_cast<double>(ops));
  }
  return Median(rounds);
}

/// Median wall time of `reps` calls, in ms.
double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const uint64_t start = NowNs();
    fn();
    ms.push_back(SecondsSince(start) * 1e3);
  }
  return Median(ms);
}

/// Calls `fn` until `seconds` have passed; returns calls per second.
double CallsPerSecond(double seconds, const std::function<void()>& fn) {
  const uint64_t start = NowNs();
  uint64_t calls = 0;
  do {
    fn();
    ++calls;
  } while (SecondsSince(start) < seconds);
  return static_cast<double>(calls) / SecondsSince(start);
}

const Table& TableNamed(const TpchDatabase& db, const std::string& name) {
  for (const Table* table : db.tables()) {
    if (table->name() == name) return *table;
  }
  return db.lineitem;
}

std::string ColumnOf(const std::string& dotted) {
  return dotted.substr(dotted.find('.') + 1);
}

/// The column / dictionary / obs rows: the same IDs through StringColumn
/// and through its Dictionary, so store minus dict is the wrapper's cost.
void AccessRows(const TpchStore& tpch, uint64_t seed, int threads,
                std::vector<Metric>* out) {
  // The hot column: most extracts in the set-up usage trace.
  const ColumnChoice& hot = *std::max_element(
      tpch.choices.begin(), tpch.choices.end(),
      [](const ColumnChoice& a, const ColumnChoice& b) {
        return a.traced_extracts < b.traced_extracts;
      });
  const Table& table =
      TableNamed(*tpch.db, hot.name.substr(0, hot.name.find('.')));
  const std::string column_name = ColumnOf(hot.name);
  const std::shared_ptr<const adict::StringColumn> column =
      table.SnapshotStrings(column_name);
  const adict::Dictionary& dict = column->dictionary();

  constexpr uint64_t kKeys = 1u << 16;
  adict::Rng rng(seed);
  std::vector<uint64_t> rows(kKeys);
  std::vector<uint32_t> ids(kKeys);
  std::vector<std::string> values(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    rows[i] = rng.Uniform(column->num_rows());
    ids[i] = column->GetValueId(rows[i]);
    values[i] = dict.Extract(ids[i]);
  }
  constexpr uint64_t kOps = 200000;
  std::vector<std::string> buffers(static_cast<size_t>(threads));
  // Every call below ends in a virtual Dictionary call, which the compiler
  // cannot drop.
  const auto store_extract = [&](int, uint64_t i) {
    (void)column->GetValue(rows[i % kKeys]);
  };
  const auto dict_extract = [&](int t, uint64_t i) {
    std::string& s = buffers[static_cast<size_t>(t)];
    s.clear();
    dict.ExtractInto(ids[i % kKeys], &s);
  };
  const auto store_locate = [&](int, uint64_t i) {
    (void)column->Locate(values[i % kKeys]);
  };
  const auto dict_locate = [&](int, uint64_t i) {
    (void)dict.Locate(values[i % kKeys]);
  };

  const double store_extract_tn = NsPerOp(threads, kOps, store_extract);
  out->push_back({"store.extract_ns.t1", NsPerOp(1, kOps, store_extract), "ns"});
  out->push_back({"store.extract_ns.tN", store_extract_tn, "ns"});
  out->push_back({"store.locate_ns.t1", NsPerOp(1, kOps / 4, store_locate), "ns"});
  out->push_back({"store.locate_ns.tN", NsPerOp(threads, kOps / 4, store_locate), "ns"});
  out->push_back({"dict.extract_ns.t1", NsPerOp(1, kOps, dict_extract), "ns"});
  out->push_back({"dict.extract_ns.tN", NsPerOp(threads, kOps, dict_extract), "ns"});
  out->push_back({"dict.locate_ns.tN", NsPerOp(threads, kOps / 4, dict_locate), "ns"});
  out->push_back({"store.snapshot_ns.tN",
                  NsPerOp(threads, kOps, [&](int, uint64_t) {
                    (void)table.SnapshotStrings(column_name);
                  }),
                  "ns"});
  // Observability is switched off only around this one measurement.
  adict::obs::SetEnabled(false);
  const double store_extract_tn_off = NsPerOp(threads, kOps, store_extract);
  adict::obs::SetEnabled(true);
  out->push_back({"obs.extract_overhead_ns.tN",
                  store_extract_tn - store_extract_tn_off, "ns"});
}

/// Engine scans and the dictionary scan, on the largest lineitem column.
void EngineRows(const TpchStore& tpch, std::vector<Metric>* out) {
  const Table& lineitem = tpch.db->lineitem;
  std::shared_ptr<const adict::StringColumn> largest;
  std::shared_ptr<const adict::StringColumn> largest_comment;
  for (const Table* table : tpch.db->tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      std::shared_ptr<const adict::StringColumn> column =
          table->string_column(i).Snapshot();
      if (table == &lineitem &&
          (largest == nullptr ||
           column->DictionaryBytes() > largest->DictionaryBytes())) {
        largest = column;
      }
      if (table->string_column_name(i).find("COMMENT") != std::string::npos &&
          (largest_comment == nullptr ||
           column->DictionaryBytes() > largest_comment->DictionaryBytes())) {
        largest_comment = column;
      }
    }
  }
  const uint32_t entries = largest->num_distinct();
  const adict::IdRange range{entries / 4, entries * 3 / 4};
  adict::ThreadPool serial(1);
  const double rows = static_cast<double>(largest->num_rows());
  out->push_back({"engine.count_rows_per_s.t1",
                  rows * CallsPerSecond(0.2, [&] {
                    (void)adict::ParallelCountRows(*largest, range, &serial);
                  }),
                  "1/s"});
  out->push_back({"engine.count_rows_per_s.tN",
                  rows * CallsPerSecond(0.2, [&] {
                    (void)adict::ParallelCountRows(*largest, range,
                                                   &adict::Pool());
                  }),
                  "1/s"});

  const std::shared_ptr<const adict::StringColumn> probe =
      lineitem.SnapshotStrings("L_PARTKEY");
  const std::shared_ptr<const adict::StringColumn> build =
      tpch.db->part.SnapshotStrings("P_PARTKEY");
  out->push_back({"engine.map_dictionary_ms", MedianMs(5, [&] {
                    (void)adict::MapDictionary(*probe, *build);
                  }),
                  "ms"});

  const adict::Dictionary& dict = largest_comment->dictionary();
  uint64_t bytes = 0;
  const double scan_ms = MedianMs(3, [&] {
    dict.Scan(0, dict.size(),
              [&](uint32_t, std::string_view value) { bytes += value.size(); });
  });
  out->push_back({"dict.scan_ns_per_entry",
                  scan_ms * 1e6 / static_cast<double>(dict.size()), "ns"});
}

/// Server, protocol and single-column engine rows over one seeded request
/// sample: executed in-process, then over loopback with the cache off.
std::vector<std::string> ServeRows(const TpchStore& tpch, uint64_t seed,
                                   std::vector<Metric>* out) {
  std::vector<std::string> errors;
  const RequestSpace space(*tpch.db, seed);
  adict::Rng rng(seed ^ 0x5eed);
  std::vector<Request> sample(512);
  for (size_t i = 0; i < sample.size(); ++i) {
    sample[i] = space.Make(rng.Uniform(RequestSpace::kPoolSize));
    sample[i].request_id = i;
  }
  std::vector<std::vector<uint8_t>> expected(sample.size());
  std::vector<double> exec_us(sample.size());
  for (int pass = 0; pass < 2; ++pass) {  // the first pass warms caches
    for (size_t i = 0; i < sample.size(); ++i) {
      const uint64_t start = NowNs();
      const Response response =
          ExecuteInProcess(TableNamed(*tpch.db, sample[i].table), sample[i]);
      exec_us[i] = SecondsSince(start) * 1e6;
      expected[i] = ResultBytes(response);
    }
  }

  adict::QueryServer::Options options;
  options.cache_bytes = 0;  // every round trip executes
  adict::QueryServer server(options);
  server.ServeTpch(tpch.db.get());
  if (!server.Start().ok()) {
    errors.push_back("ledger server failed to start");
    return errors;
  }
  std::vector<double> overhead_us, encode_us, decode_us;
  {
    Client client(server.port());
    Response response;
    for (size_t i = 0; i < sample.size(); ++i) {
      const uint64_t start = NowNs();
      const Client::Outcome outcome =
          client.RoundTrip(sample[i], &response, nullptr);
      const double rtt_us = SecondsSince(start) * 1e6;
      if (outcome != Client::Outcome::kOk ||
          ResultBytes(response) != expected[i]) {
        errors.push_back("ledger: loopback response differs from in-process");
        break;
      }
      overhead_us.push_back(rtt_us - exec_us[i]);
      encode_us.push_back(static_cast<double>(client.last_encode_ns()) * 1e-3);
      decode_us.push_back(static_cast<double>(client.last_decode_ns()) * 1e-3);
    }
  }
  server.Stop();
  out->push_back({"engine.exec_us", Median(exec_us), "us"});
  out->push_back({"server.overhead_us", Median(overhead_us), "us"});
  out->push_back({"protocol.encode_us", Median(encode_us), "us"});
  out->push_back({"protocol.decode_us", Median(decode_us), "us"});
  return errors;
}

}  // namespace

std::vector<std::string> RunLedger(const LedgerInputs& inputs,
                                   std::vector<Metric>* out) {
  const TpchStore& tpch = *inputs.tpch;
  std::vector<std::string> errors = ServeRows(tpch, inputs.seed, out);
  AccessRows(tpch, inputs.seed, inputs.threads, out);
  EngineRows(tpch, out);

  // The 22 plans one at a time: which plans a change moved.
  for (int q = 1; q <= adict::kNumTpchQueries; ++q) {
    bool digest_ok = true;
    const double ms = MedianMs(3, [&] {
      const adict::QueryResult result = adict::RunTpchQuery(*tpch.db, q);
      if (inputs.expected->loaded &&
          ResultDigest(result) != inputs.expected->digest[q - 1]) {
        digest_ok = false;
      }
    });
    if (!digest_ok) {
      errors.push_back("ledger: tpch q" + std::to_string(q) +
                       " result differs from the committed digest");
    }
    char name[32];
    std::snprintf(name, sizeof(name), "tpch.q%02d_ms", q);
    out->push_back({name, ms, "ms"});
  }
  return errors;
}

}  // namespace perfbench
