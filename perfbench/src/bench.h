// Shared declarations of the repository benchmark (perfbench/README.md).
//
// The benchmark drives the store only through the public headers under
// src/, and times its own calls into them: nothing in the store is
// instrumented for it. One process runs one workload:
//
//   tpch    nproc client threads run the 22 TPC-H queries in-process,
//   serve   nproc loopback connections send a Zipf-skewed request stream
//           to a QueryServer over the TPC-H tables,
//
// and after it the publish probe: merge cycles into a dedicated table.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/compression_manager.h"
#include "core/recompression_scheduler.h"
#include "server/protocol.h"
#include "server/query_server.h"
#include "store/delta.h"
#include "store/table.h"
#include "tpch/dbgen.h"

namespace perfbench {

using adict::DictFormat;
using adict::Request;
using adict::Response;
using adict::Table;
using adict::TpchDatabase;

// ---------------------------------------------------------------- clock

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// CPU time of the whole process, all threads, in seconds.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------- stats

/// Median of `values`, nearest rank (0 for an empty set).
double Median(std::vector<double> values);

/// A timed window is cut into kSlices equal slices by completion time.
/// Throughput and latency percentiles are taken per slice and reported as
/// the median across slices, so a burst of outside interference moves one
/// slice, not the run.
inline constexpr int kSlices = 5;

/// Latency of a failed operation: it misses any latency limit, so it sorts
/// above every success. A percentile that lands on one reads as the slice
/// length.
inline constexpr float kFailedMs = std::numeric_limits<float>::infinity();

/// Latencies in ms.
using Latencies = std::vector<float>;

/// One slice of a window: the reads completed in it, and their latencies
/// (failed reads as kFailedMs) up to a fixed number per thread.
struct Slice {
  uint64_t ok = 0;
  uint64_t failed = 0;
  Latencies kept;
};

/// Read latencies of one thread, bucketed by slice. The buffers are
/// allocated and touched before the window starts and never grow, so the
/// load generator's own memory, which counts in peak_rss_mb, does not rise
/// with throughput. Completions past a full buffer are counted, not kept.
struct SliceRecorder {
  static constexpr size_t kKeptPerThread = 1u << 18;
  uint64_t start_ns = 0;
  uint64_t slice_ns = 1;
  std::vector<Slice> slices;

  SliceRecorder() = default;
  explicit SliceRecorder(double seconds)
      : slice_ns(static_cast<uint64_t>(seconds * 1e9 / kSlices) + 1),
        slices(kSlices) {
    for (Slice& slice : slices) {
      slice.kept.resize(kKeptPerThread);  // touches the pages
      slice.kept.clear();
    }
  }
  /// Completions after the last full slice count in totals only.
  void Record(double latency_ms) {
    const uint64_t index = (NowNs() - start_ns) / slice_ns;
    if (index >= slices.size()) return;
    Slice& slice = slices[index];
    ++(latency_ms < kFailedMs ? slice.ok : slice.failed);
    if (slice.kept.size() < slice.kept.capacity()) {
      slice.kept.push_back(static_cast<float>(latency_ms));
    }
  }
};

/// Median over slices of each slice's throughput and percentiles.
struct ReadSummary {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t samples = 0;             ///< attempted operations in all slices
  uint64_t min_slice_samples = 0;   ///< latencies behind one slice's p99
  uint64_t min_beyond_p99 = 0;      ///< fewest latencies above a slice's p99
};
/// Slice `index` of every thread's recorder, merged.
Slice MergedSlice(const std::vector<SliceRecorder>& recorders, int index);

ReadSummary Summarize(const std::vector<SliceRecorder>& recorders,
                      double slice_seconds);

/// FNV-1a digest of a query result in its wire encoding.
uint64_t ResultDigest(const adict::QueryResult& result);

/// Peak resident set size (VmHWM) in MiB, 0 if unreadable.
double PeakRssMb();

// ---------------------------------------------------------------- spans

/// One span as the benchmark recorded it: a named interval around one call
/// into a layer. Spans of one request or query share `id`.
struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same thread's buffer, -1 for a root
};

/// Per-name totals, kept for every span even after the buffer is full.
struct SpanTotals {
  const char* name = nullptr;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  ///< duration minus the time direct children cover
};

/// Spans of one benchmark thread. Not thread-safe: each thread owns one.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) { records_.reserve(capacity); }

  void Open(const char* name, uint64_t id);
  void Close();

  const std::vector<SpanRecord>& records() const { return records_; }
  const std::vector<SpanTotals>& totals() const { return totals_; }
  uint64_t dropped() const { return dropped_; }

 private:
  struct OpenSpan {
    const char* name;
    uint64_t start_ns;
    uint64_t child_ns;
    int32_t record;  ///< -1 when the buffer was full
  };
  std::vector<SpanRecord> records_;
  std::vector<SpanTotals> totals_;
  std::vector<OpenSpan> stack_;
  uint64_t dropped_ = 0;
};

/// Owns one SpanBuffer per benchmark thread of a traced window.
class SpanCollector {
 public:
  /// A new buffer for one thread; stable for the collector's lifetime.
  SpanBuffer* NewThread();
  /// Writes every recorded span as one JSON object per line.
  bool WriteFile(const std::string& path) const;
  /// Per-name totals merged across threads, in first-seen order.
  std::vector<SpanTotals> Totals() const;
  uint64_t dropped() const;

 private:
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// RAII span; a null buffer (untraced run) records nothing and reads no
/// clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t id)
      : buffer_(buffer) {
    if (buffer_ != nullptr) buffer_->Open(name, id);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
};

// ---------------------------------------------------------------- set-up

/// TPC-H data is always generated at this scale factor and dbgen seed; the
/// workload seed only drives the load generator, so the committed result
/// digests hold for every run. SF 0.005 keeps one set-up at 3-6 s on 4 cores,
/// so that three set-ups per run fit the benchmark's time budget.
inline constexpr double kScaleFactor = 0.005;
inline constexpr uint64_t kDbgenSeed = 42;

/// Usage-trace lifetime handed to the manager, in seconds. Fixed instead of
/// measured so that format decisions repeat exactly: 100 repetitions (the
/// paper's multiplier) of one 0.12 s pass over the 22 queries at SF 0.005.
inline constexpr double kTraceLifetimeSeconds = 12.0;
inline constexpr int kTraceMultiplier = 100;

/// The format the manager chose for one column, and what choosing and
/// building it cost.
struct ColumnChoice {
  std::string name;  ///< "table.column"
  DictFormat format = DictFormat::kFcInline;
  double select_ms = 0;  ///< ChooseFormatLogged
  double build_ms = 0;   ///< StringColumn::ChangeFormat
  uint64_t traced_extracts = 0;
};

/// Sum of select_ms / build_ms over a configuration.
double TotalSelectMs(const std::vector<ColumnChoice>& choices);
double TotalBuildMs(const std::vector<ColumnChoice>& choices);

/// Dictionary bytes over raw bytes of the distinct strings they hold,
/// summed over every string column of `tables`.
double DictBytesRatio(const std::vector<const Table*>& tables);

/// A TPC-H database configured by the compression manager: generate, trace
/// the 22 queries once, choose a format per column at the default c, build.
struct TpchStore {
  std::unique_ptr<TpchDatabase> db;
  std::vector<ColumnChoice> choices;
};
TpchStore SetUpTpch();

/// True when both configurations chose the same format for every column.
bool SameFormats(const std::vector<ColumnChoice>& a,
                 const std::vector<ColumnChoice>& b);

/// The publish probe's dedicated table: a few string columns from the
/// datasets generators, configured like the TPC-H columns.
struct IngestStore {
  std::unique_ptr<Table> table;
  std::unique_ptr<adict::CompressionManager> manager;
  std::vector<std::string> columns;
  std::vector<std::string> datasets;  ///< generator behind each column
  /// Initial row values per column (row i of column c is values[c][i]).
  std::vector<std::vector<std::string>> values;
};
IngestStore SetUpIngest();

// ---------------------------------------------------------------- load

/// Blocking loopback client for the length-prefixed protocol. Every call
/// into the protocol and the socket is a span when `spans` is set.
class Client {
 public:
  explicit Client(int port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  bool Reconnect();

  enum class Outcome { kOk, kNotOk, kDropped };
  /// One request/response round trip. On kOk and kNotOk `*response` holds
  /// the decoded reply.
  Outcome RoundTrip(const Request& request, Response* response,
                    SpanBuffer* spans);

  /// Client-side protocol timings of the last round trip, in ns.
  uint64_t last_encode_ns() const { return last_encode_ns_; }
  uint64_t last_decode_ns() const { return last_decode_ns_; }

 private:
  bool RecvAll(void* buf, size_t size);

  int port_;
  int fd_ = -1;
  std::vector<uint8_t> body_;
  uint64_t last_encode_ns_ = 0;
  uint64_t last_decode_ns_ = 0;
};

/// The serve workload's request pool over the TPC-H string columns. Request
/// `key` is a pure function of (key, pool seed); the pool is ~1M requests,
/// far more than the result cache holds.
class RequestSpace {
 public:
  static constexpr uint64_t kPoolSize = 1u << 20;

  RequestSpace(const TpchDatabase& db, uint64_t seed);
  Request Make(uint64_t rank) const;

 private:
  struct ColumnValues {
    std::string table;
    std::string column;
    uint64_t rows = 0;
    std::vector<std::string> values;  // the column's distinct values
  };
  std::vector<ColumnValues> columns_;
  uint64_t seed_;
};

/// Executes a table request the way QueryServer does, in-process, on a
/// Table::SnapshotStrings snapshot. The reference for response checks.
Response ExecuteInProcess(const Table& table, const Request& request);

/// Encoded result bytes of an OK response (the unit the checks compare).
std::vector<uint8_t> ResultBytes(const Response& response);

// ---------------------------------------------------------------- windows

/// A server's own counters, read around a window: the reference the
/// clients' counts are checked against, and the source of the server and
/// cache ledger rows. All zero without a server.
struct ServerCounts {
  adict::QueryServer::Stats server;
  adict::ResultCache::Stats cache;

  static ServerCounts Read(adict::QueryServer* server) {
    if (server == nullptr) return {};
    return {server->stats(), server->cache().stats()};
  }
};

/// What one measured window of a workload produced.
struct WindowResult {
  uint64_t attempted = 0;  ///< reads, queries and writes attempted
  uint64_t ok_reads = 0;
  uint64_t failed = 0;     ///< non-OK, rejected or dropped operations
  std::vector<SliceRecorder> recorders;  ///< one per reading thread
  double slice_seconds = 0;
  double seconds = 0;
  std::vector<std::string> check_errors;  ///< empty when every check passed
  double pool_queued_mean = 0;            ///< only sampled when traced

  // Publish probe: one merge cycle = every column's merge + publish.
  std::vector<double> cycle_ms;
  std::vector<double> merge_ms;
  std::vector<double> publish_us;
  /// Scheduler counters accumulated over the writer's cycles.
  adict::RecompressionScheduler::Stats sched;

  double qps() const {
    return seconds > 0 ? static_cast<double>(ok_reads) / seconds : 0;
  }
};

/// Committed expected result digests, one per TPC-H query (index q-1).
struct ExpectedDigests {
  bool loaded = false;
  std::vector<uint64_t> digest;
};
ExpectedDigests LoadExpected(const std::string& path);
bool WriteExpected(const std::string& path, const TpchDatabase& db);

WindowResult RunTpchWindow(const TpchDatabase& db,
                           const ExpectedDigests& expected, uint64_t seed,
                           double seconds, int clients,
                           SpanCollector* spans);

/// Runs the serve stream and checks a seeded sample of the responses
/// against in-process execution afterwards.
WindowResult RunServeWindow(const TpchDatabase& db, adict::QueryServer* server,
                            const RequestSpace& space, uint64_t seed,
                            double seconds, int connections,
                            SpanCollector* spans);

/// Lifetime in seconds the probe's merges hand the manager for each merged
/// dictionary: one merge cycle every 0.5 s.
inline constexpr double kMergeLifetimeSeconds = 0.5;

/// The publish probe: merge cycles back to back on a fresh dedicated
/// table whose RecompressionScheduler gets a simulated memory budget before
/// each. `timed_cycles` run without memory pressure and are timed; a few
/// more walk the budget to critical. Then checks the row counts and that
/// every appended value locates. The source of publish_ms (the timed
/// cycles), the store.merge/publish rows (the same cycles) and the
/// core.sched ledger rows (all cycles).
WindowResult RunPublishProbe(uint64_t seed, int timed_cycles);

// ---------------------------------------------------------------- ledger

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Inputs the per-layer microbenchmarks share with the traced window.
struct LedgerInputs {
  const TpchStore* tpch = nullptr;
  const ExpectedDigests* expected = nullptr;
  uint64_t seed = 0;
  int threads = 1;
};

/// The workload-independent per-layer microbenchmarks, each timed around a
/// public call. Appends to `out`; returns check errors (e.g. a wrong query
/// digest).
std::vector<std::string> RunLedger(const LedgerInputs& inputs,
                                   std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
