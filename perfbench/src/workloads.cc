// The measured windows of the two workloads, the publish probe, and their
// output checks.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "datasets/generators.h"
#include "tpch/queries.h"
#include "util/memory_pressure.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  adict::Rng rng(seed * 1000003u + stream);
  return rng.Next();
}

/// Pins the calling load-generator thread to the `index`-th CPU it may run
/// on. A client that stays put lets the kernel keep its connection's server
/// thread on the same CPU; migrating clients made loopback throughput swing
/// by tens of percent between runs on a virtualized 4-core host.
void PinToCpu(size_t index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  int target = count > 0 ? static_cast<int>(index % static_cast<size_t>(count)) : -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && target >= 0; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && target-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);  // best effort
    }
  }
}

uint64_t RequestId(size_t thread, uint64_t i) {
  return (static_cast<uint64_t>(thread + 1) << 40) | i;
}

/// Samples the shared pool's queue depth every millisecond while traced.
class QueueSampler {
 public:
  explicit QueueSampler(bool enabled) {
    if (!enabled) return;
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        sum_ += static_cast<double>(adict::Pool().queued());
        ++samples_;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~QueueSampler() { Stop(); }
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  /// Stops sampling; returns the mean queue depth (0 when disabled).
  double Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
    return samples_ > 0 ? sum_ / static_cast<double>(samples_) : 0;
  }

 private:
  std::atomic<bool> stop_{false};
  double sum_ = 0;
  uint64_t samples_ = 0;
  std::thread thread_;
};

/// Per-thread tallies of a read loop, merged after the join.
struct ReadTally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t not_ok = 0;
  uint64_t dropped = 0;
  uint64_t cache_hits = 0;
  SliceRecorder latency;
  std::vector<std::string> errors;
  SpanBuffer* spans = nullptr;

  void Error(std::string message) {
    if (errors.size() < 8) errors.push_back(std::move(message));
  }
};

/// Folds the threads' tallies into `result`; the latency buffers move, so
/// no copy of them counts in peak_rss_mb.
void Merge(std::vector<ReadTally>* tallies, double seconds, WindowResult* result) {
  result->slice_seconds = seconds / kSlices;
  for (ReadTally& t : *tallies) {
    result->attempted += t.attempted;
    result->ok_reads += t.ok;
    result->failed += t.not_ok + t.dropped;
    result->recorders.push_back(std::move(t.latency));
    result->check_errors.insert(result->check_errors.end(), t.errors.begin(),
                                t.errors.end());
  }
}

/// One timed round trip, with its outcome tallied. Returns true on OK.
bool TimedRoundTrip(Client* client, const Request& request, Response* response,
                    ReadTally* tally) {
  ++tally->attempted;
  const uint64_t start = NowNs();
  const Client::Outcome outcome =
      client->RoundTrip(request, response, tally->spans);
  switch (outcome) {
    case Client::Outcome::kOk:
      ++tally->ok;
      tally->latency.Record(SecondsSince(start) * 1e3);
      if (response->cache_hit) ++tally->cache_hits;
      return true;
    case Client::Outcome::kNotOk:
      ++tally->not_ok;
      tally->latency.Record(kFailedMs);
      return false;
    case Client::Outcome::kDropped:
      ++tally->dropped;
      tally->latency.Record(kFailedMs);
      client->Reconnect();
      return false;
  }
  return false;
}

/// The clients' request, error and cache-hit counts must equal the deltas of
/// QueryServer::stats() and ResultCache::stats(). A dropped connection may
/// lose a request before the server decodes it, so then only an upper bound
/// holds.
void CrossCheck(adict::QueryServer* server, const ServerCounts& before,
                const std::vector<ReadTally>& tallies, WindowResult* result) {
  const ServerCounts after = ServerCounts::Read(server);
  uint64_t attempted = 0, not_ok = 0, dropped = 0, hits = 0;
  for (const ReadTally& t : tallies) {
    attempted += t.attempted;
    not_ok += t.not_ok;
    dropped += t.dropped;
    hits += t.cache_hits;
  }
  const uint64_t served = after.server.requests - before.server.requests;
  const bool agree =
      dropped == 0
          ? served == attempted &&
                after.server.error_responses - before.server.error_responses ==
                    not_ok &&
                after.cache.hits - before.cache.hits == hits
          : served <= attempted;
  if (!agree) {
    result->check_errors.push_back(
        "client counts disagree with QueryServer::stats() (client " +
        std::to_string(attempted) + ", server " + std::to_string(served) + ")");
  }
}

const Table* FindTable(const TpchDatabase& db, const std::string& name) {
  for (const Table* table : db.tables()) {
    if (table->name() == name) return table;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------- expected

ExpectedDigests LoadExpected(const std::string& path) {
  ExpectedDigests expected;
  std::ifstream in(path);
  std::string line;
  double file_sf = -1;
  std::vector<uint64_t> digests(adict::kNumTpchQueries, 0);
  int found = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, value;
    fields >> key >> value;
    if (key == "sf") {
      file_sf = std::strtod(value.c_str(), nullptr);
    } else if (key.size() == 3 && key[0] == 'q') {
      const int q = std::atoi(key.c_str() + 1);
      if (q >= 1 && q <= adict::kNumTpchQueries) {
        digests[q - 1] = std::strtoull(value.c_str(), nullptr, 16);
        ++found;
      }
    }
  }
  if (file_sf == kScaleFactor && found == adict::kNumTpchQueries) {
    expected.loaded = true;
    expected.digest = std::move(digests);
  }
  return expected;
}

bool WriteExpected(const std::string& path, const TpchDatabase& db) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "# FNV-1a digests of the wire-encoded result of each TPC-H "
               "query\n# (dbgen seed %" PRIu64 "). Regenerate with "
               "--write-expected.\nsf %g\n",
               kDbgenSeed, kScaleFactor);
  for (int q = 1; q <= adict::kNumTpchQueries; ++q) {
    std::fprintf(out, "q%02d %016" PRIx64 "\n", q,
                 ResultDigest(adict::RunTpchQuery(db, q)));
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------- tpch

WindowResult RunTpchWindow(const TpchDatabase& db,
                           const ExpectedDigests& expected, uint64_t seed,
                           double seconds, int clients,
                           SpanCollector* spans) {
  WindowResult result;
  if (!expected.loaded) {
    result.check_errors.push_back("no committed TPC-H digests for this SF");
  }
  std::vector<ReadTally> tallies(static_cast<size_t>(clients));
  for (ReadTally& t : tallies) {
    t.spans = spans != nullptr ? spans->NewThread() : nullptr;
    t.latency = SliceRecorder(seconds);
  }
  QueueSampler sampler(spans != nullptr);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  for (ReadTally& t : tallies) t.latency.start_ns = start;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < tallies.size(); ++c) {
    threads.emplace_back([&, c] {
      ReadTally& me = tallies[c];
      // This client's rotated order of the 22 queries.
      std::vector<int> order(adict::kNumTpchQueries);
      for (int q = 0; q < adict::kNumTpchQueries; ++q) order[q] = q + 1;
      adict::Rng rng(StreamSeed(seed, c));
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.Uniform(i + 1)]);
      }
      for (uint64_t i = 0; NowNs() < deadline; ++i) {
        const int q = order[i % order.size()];
        const uint64_t id = RequestId(c, i);
        ScopedSpan op(me.spans, "client.query", id);
        ++me.attempted;
        const uint64_t query_start = NowNs();
        adict::QueryResult answer;
        {
          ScopedSpan span(me.spans, "tpch.query", id);
          answer = adict::RunTpchQuery(db, q);
        }
        ++me.ok;
        me.latency.Record(SecondsSince(query_start) * 1e3);
        ScopedSpan check(me.spans, "bench.check", id);
        if (expected.loaded && ResultDigest(answer) != expected.digest[q - 1]) {
          me.Error("tpch q" + std::to_string(q) +
                   " result differs from the committed digest");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = SecondsSince(start);
  result.pool_queued_mean = sampler.Stop();
  Merge(&tallies, seconds, &result);
  return result;
}

// ---------------------------------------------------------------- serve

WindowResult RunServeWindow(const TpchDatabase& db, adict::QueryServer* server,
                            const RequestSpace& space, uint64_t seed,
                            double seconds, int connections,
                            SpanCollector* spans) {
  // Skew over the request pool: a hot head that the cache keeps, and a
  // long tail that evicts.
  static const adict::ZipfDistribution zipf(RequestSpace::kPoolSize, 0.75);
  struct Sampled {
    Request request;
    std::vector<uint8_t> bytes;
  };
  struct PerConnection {
    ReadTally tally;
    std::vector<Sampled> sampled;
  };
  std::vector<PerConnection> per(static_cast<size_t>(connections));
  for (PerConnection& p : per) {
    p.tally.spans = spans != nullptr ? spans->NewThread() : nullptr;
    p.tally.latency = SliceRecorder(seconds);
  }
  const ServerCounts before = ServerCounts::Read(server);
  QueueSampler sampler(spans != nullptr);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  for (PerConnection& p : per) p.tally.latency.start_ns = start;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < per.size(); ++c) {
    threads.emplace_back([&, c] {
      PerConnection& me = per[c];
      PinToCpu(c);
      Client client(server->port());
      adict::Rng rng(StreamSeed(seed, c));
      Response response;
      for (uint64_t i = 0; NowNs() < deadline; ++i) {
        Request request = space.Make(zipf.Sample(&rng));
        request.request_id = RequestId(c, i);
        ScopedSpan op(me.tally.spans, "client.request", request.request_id);
        if (!TimedRoundTrip(&client, request, &response, &me.tally)) continue;
        // A seeded 1-in-32 sample is checked after the window.
        if (StreamSeed(seed, request.request_id) % 32 == 0 &&
            me.sampled.size() < 4096) {
          ScopedSpan check(me.tally.spans, "bench.check", request.request_id);
          me.sampled.push_back({std::move(request), ResultBytes(response)});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WindowResult result;
  result.seconds = SecondsSince(start);
  result.pool_queued_mean = sampler.Stop();

  std::vector<ReadTally> tallies;
  uint64_t checked = 0;
  for (PerConnection& p : per) {
    for (const Sampled& s : p.sampled) {
      const Table* table = FindTable(db, s.request.table);
      if (table == nullptr ||
          ResultBytes(ExecuteInProcess(*table, s.request)) != s.bytes) {
        p.tally.Error("serve response differs from in-process execution: " +
                      s.request.table + "." + s.request.column);
      }
      ++checked;
    }
    tallies.push_back(std::move(p.tally));
  }
  Merge(&tallies, seconds, &result);
  if (checked == 0) result.check_errors.push_back("serve: no response sampled");
  CrossCheck(server, before, tallies, &result);
  return result;
}

// ---------------------------------------------------------------- probe

namespace {

// Small batches keep the table, and so each cycle's work, within about 10%
// of its initial size over the whole probe: the timed cycles are alike, and
// their median does not land on one point of a rising series.
constexpr size_t kBatchRows = 25;      // rows appended per column per cycle
constexpr size_t kBatchNewValues = 5;  // of which new distinct values
constexpr size_t kNewValuesPerColumn = 4096;
/// Cycles after the timed ones that walk the simulated budget to critical.
constexpr int kPressureCycles = 8;

/// The simulated machine the probe's memory budget is a share of.
constexpr uint64_t kSimulatedTotalBytes = 1ull << 30;

/// The simulated used-memory fraction of the timed cycles: no pressure.
constexpr double kUnpressuredFraction = 0.50;

/// The simulated used-memory fraction at pressure cycle `i` of `n`: four
/// stages that walk the scheduler from no pressure to critical.
double BudgetFraction(int i, int n) {
  static constexpr double kStages[] = {kUnpressuredFraction, 0.80, 0.90, 0.99};
  const int stage = std::min(3, i * 4 / std::max(1, n));
  return kStages[stage];
}

/// The probe writer's inputs and what it appended.
struct IngestRun {
  IngestStore* store = nullptr;
  adict::RecompressionScheduler* scheduler = nullptr;
  adict::SimulatedProvider* provider = nullptr;
  uint64_t seed = 0;
  uint64_t next_new_value = 0;  ///< cursor into each column's new values
  std::vector<std::vector<std::string>> new_values;  ///< per column
  std::vector<std::vector<std::string>> appended;    ///< per column
};

IngestRun MakeIngestRun(IngestStore* store, uint64_t seed) {
  IngestRun run;
  run.store = store;
  run.seed = seed;
  for (size_t c = 0; c < store->columns.size(); ++c) {
    std::vector<std::string> values = adict::GenerateSurveyDataset(
        store->datasets[c], kNewValuesPerColumn,
        StreamSeed(seed, 7000 + c));
    adict::Rng rng(StreamSeed(seed, 8000 + c));
    for (size_t i = values.size() - 1; i > 0; --i) {
      std::swap(values[i], values[rng.Uniform(i + 1)]);
    }
    run.new_values.push_back(std::move(values));
  }
  run.appended.resize(store->columns.size());
  return run;
}

/// One writer cycle: append a batch to every column's delta, then merge
/// and publish each column. The cycle time runs from the first
/// MergeDeltaAdaptive to the last PublishStrings; a timed cycle records it
/// with its merge and publish times.
void RunCycle(IngestRun* run, uint64_t cycle, bool timed, WindowResult* result) {
  IngestStore& store = *run->store;
  std::vector<adict::DeltaColumn> deltas(store.columns.size());
  adict::Rng rng(StreamSeed(run->seed, 1u << 20 | cycle));
  for (size_t c = 0; c < store.columns.size(); ++c) {
    for (size_t k = 0; k < kBatchRows; ++k) {
      std::string value =
          k < kBatchNewValues
              ? run->new_values[c][(run->next_new_value + k) %
                                   run->new_values[c].size()]
              : store.values[c][rng.Uniform(store.values[c].size())];
      run->appended[c].push_back(value);
      deltas[c].Append(std::move(value));
    }
  }
  run->next_new_value += kBatchNewValues;
  const uint64_t cycle_start = NowNs();
  for (size_t c = 0; c < store.columns.size(); ++c) {
    const std::string& name = store.columns[c];
    uint64_t start = NowNs();
    adict::StringColumn merged = adict::MergeDeltaAdaptive(
        *store.table->SnapshotStrings(name), deltas[c], *store.manager,
        kMergeLifetimeSeconds, "ingest." + name);
    const double merge_ms = SecondsSince(start) * 1e3;
    start = NowNs();
    store.table->PublishStrings(name, std::move(merged));
    if (timed) {
      result->merge_ms.push_back(merge_ms);
      result->publish_us.push_back(SecondsSince(start) * 1e6);
    }
    ++result->attempted;  // one write per column merge
  }
  if (timed) result->cycle_ms.push_back(SecondsSince(cycle_start) * 1e3);
}

/// The writer's cycles, back to back: first `timed_cycles` without memory
/// pressure, then kPressureCycles that walk the simulated budget to
/// critical. Every cycle's budget point goes to the scheduler first. Only
/// the first part is timed: under the walk the controller lowers c, so the
/// formats, and with them the work of a cycle, change from cycle to cycle.
void RunWriter(IngestRun* run, int timed_cycles, WindowResult* result) {
  const adict::RecompressionScheduler::Stats before = run->scheduler->stats();
  for (int i = 0; i < timed_cycles + kPressureCycles; ++i) {
    const bool timed = i < timed_cycles;
    const double fraction =
        timed ? kUnpressuredFraction
              : BudgetFraction(i - timed_cycles, kPressureCycles);
    run->provider->set_used_bytes(static_cast<uint64_t>(
        fraction * static_cast<double>(kSimulatedTotalBytes)));
    // Four samples per cycle walk the smoothed pressure through every
    // level even when each budget stage lasts only two cycles.
    for (int k = 0; k < 4; ++k) {
      run->scheduler->OnSample(run->provider->Sample());
    }
    RunCycle(run, static_cast<uint64_t>(i), timed, result);
  }
  run->scheduler->DrainForTest();
  const adict::RecompressionScheduler::Stats after = run->scheduler->stats();
  result->sched.rebuilds = after.rebuilds - before.rebuilds;
  result->sched.reclaimed_bytes = after.reclaimed_bytes - before.reclaimed_bytes;
  result->sched.lost_races = after.lost_races - before.lost_races;
  result->sched.failed_rebuilds = after.failed_rebuilds - before.failed_rebuilds;
}

/// Row counts, and that every appended value locates after the last merge.
std::vector<std::string> CheckIngestFinal(const IngestRun& run) {
  std::vector<std::string> errors;
  const IngestStore& store = *run.store;
  for (size_t c = 0; c < store.columns.size(); ++c) {
    const std::shared_ptr<const adict::StringColumn> column =
        store.table->SnapshotStrings(store.columns[c]);
    const std::vector<std::string>& appended = run.appended[c];
    const uint64_t initial = store.values[c].size();
    if (column->num_rows() != initial + appended.size()) {
      errors.push_back("ingest." + store.columns[c] + ": " +
                       std::to_string(column->num_rows()) + " rows, expected " +
                       std::to_string(initial + appended.size()));
      continue;
    }
    for (size_t k = 0; k < appended.size(); ++k) {
      if (!column->Locate(appended[k]).found ||
          column->GetValue(initial + k) != appended[k]) {
        errors.push_back("ingest." + store.columns[c] +
                         ": appended value missing after the last merge");
        break;
      }
    }
  }
  return errors;
}

}  // namespace

WindowResult RunPublishProbe(uint64_t seed, int timed_cycles) {
  IngestStore store = SetUpIngest();
  adict::SimulatedProvider provider(kSimulatedTotalBytes / 2, kSimulatedTotalBytes);
  adict::RecompressionScheduler scheduler(store.table.get(), store.manager.get());
  IngestRun run = MakeIngestRun(&store, seed);
  run.scheduler = &scheduler;
  run.provider = &provider;
  WindowResult result;
  const uint64_t start = NowNs();
  RunWriter(&run, timed_cycles, &result);
  result.seconds = SecondsSince(start);
  result.check_errors = CheckIngestFinal(run);
  return result;
}

}  // namespace perfbench
