// The benchmark binary: set up one workload, measure it, check its outputs
// and print every metric. The last line of stdout is the result object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1). See perfbench/README.md for what each metric means.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include "bench.h"
#include "obs/decision_log.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected_dir = "perfbench/expected";
  std::string out_dir = ".bench_build/runs";
  std::string write_expected;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") args->trace = std::strcmp(value, "0") != 0;
    else if (flag == "--expected-dir") args->expected_dir = value;
    else if (flag == "--out-dir") args->out_dir = value;
    else if (flag == "--write-expected") args->write_expected = value;
    else if (flag == "--git-sha") args->git_sha = value;
    else if (flag == "--src-digest") args->src_digest = value;
    else return false;
  }
  const bool known = args->workload == "tpch" || args->workload == "serve";
  return (known || !args->write_expected.empty()) && args->seconds > 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// One set-up of a workload: the configured store, and for `serve` the
/// running server.
struct Instance {
  TpchStore tpch;
  std::unique_ptr<adict::QueryServer> server;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    if (server != nullptr) server->Stop();
  }
};

/// Everything setup_s covers: data generation, usage trace, format
/// selection, dictionary builds and server start.
std::unique_ptr<Instance> SetUp(const std::string& workload) {
  auto instance = std::make_unique<Instance>();
  instance->tpch = SetUpTpch();
  if (workload == "tpch") return instance;
  instance->server =
      std::make_unique<adict::QueryServer>(adict::QueryServer::Options());
  instance->server->ServeTpch(instance->tpch.db.get());
  if (!instance->server->Start().ok()) return nullptr;
  return instance;
}

/// Set-ups per untraced run; setup_s is their median. The repetitions also
/// check that the manager's decisions repeat.
constexpr int kSetups = 3;
/// Timed merge cycles of the publish probe; publish_ms is their median.
constexpr int kProbeCycles = 24;
constexpr double kWarmupSeconds = 3;
/// Fewest latencies that must lie beyond a slice's p99 for p99_ms to count.
constexpr uint64_t kMinBeyondP99 = 10;

void PrintTable(const std::vector<Metric>& metrics) {
  std::printf("# %-30s %18s  %s\n", "per-layer metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("# %-30s %18.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintSelfTime(const SpanCollector& spans) {
  const std::vector<SpanTotals> totals = spans.Totals();
  uint64_t root_ns = 0;
  for (const SpanTotals& t : totals) {
    if (std::strncmp(t.name, "client.", 7) == 0) {
      root_ns += t.total_ns;
    }
  }
  std::printf("# %-24s %10s %12s %12s %8s\n", "span (layer boundary)", "count",
              "total_ms", "self_ms", "self_%");
  for (const SpanTotals& t : totals) {
    std::printf("# %-24s %10" PRIu64 " %12.3f %12.3f %8.2f\n", t.name, t.count,
                static_cast<double>(t.total_ns) * 1e-6,
                static_cast<double>(t.self_ns) * 1e-6,
                root_ns > 0 ? 100.0 * static_cast<double>(t.self_ns) /
                                  static_cast<double>(root_ns)
                            : 0.0);
  }
  if (spans.dropped() > 0) {
    std::printf("# spans past the per-thread buffer (counted, not written): "
                "%" PRIu64 "\n",
                spans.dropped());
  }
}

int Run(const Args& args) {
  adict::obs::SetEnabled(true);
  adict::obs::SetTraceEnabled(false);  // the store's own spans stay off
  const int threads = static_cast<int>(adict::Pool().parallelism());
  char sf_tag[32];
  std::snprintf(sf_tag, sizeof(sf_tag), "%g", kScaleFactor);

  if (!args.write_expected.empty()) {
    const TpchStore store = SetUpTpch();
    return WriteExpected(args.write_expected, *store.db) ? 0 : 1;
  }
  const ExpectedDigests expected =
      LoadExpected(args.expected_dir + "/tpch_sf" + sf_tag + ".txt");
  std::vector<std::string> errors;

  // Set-up. The first instance is the one measured; the repetitions for
  // setup_s come after the window, so they do not count in peak_rss_mb.
  // setup_s is process CPU time, the work set-up does: time spent waiting
  // for a CPU on a busy host does not count, a slower CPU still does. Wall
  // time is printed beside it.
  std::vector<double> setup_s;
  const auto timed_setup = [&]() {
    const uint64_t start = NowNs();
    const double cpu_start = ProcessCpuSeconds();
    std::unique_ptr<Instance> next = SetUp(args.workload);
    setup_s.push_back(ProcessCpuSeconds() - cpu_start);
    std::printf("# set-up %zu: %.3f s CPU, %.3f s wall\n", setup_s.size(),
                setup_s.back(), SecondsSince(start));
    return next;
  };
  const std::unique_ptr<Instance> instance = timed_setup();
  if (instance == nullptr) {
    std::fprintf(stderr, "set-up failed: the server did not start\n");
    return 2;
  }

  // The workload's inputs, made from the seed (not part of set-up).
  std::unique_ptr<RequestSpace> space;
  if (args.workload == "serve") {
    space = std::make_unique<RequestSpace>(*instance->tpch.db, args.seed);
  }
  const auto window = [&](double seconds, SpanCollector* spans) {
    if (args.workload == "tpch") {
      return RunTpchWindow(*instance->tpch.db, expected, args.seed, seconds,
                           threads, spans);
    }
    return RunServeWindow(*instance->tpch.db, instance->server.get(), *space,
                          args.seed, seconds, threads, spans);
  };

  // Warm-up: the result cache fills and lazily grown buffers settle before
  // anything is timed.
  const WindowResult warm = window(kWarmupSeconds, nullptr);
  errors.insert(errors.end(), warm.check_errors.begin(),
                warm.check_errors.end());
  WindowResult untraced;
  SpanCollector spans;
  const ServerCounts before = ServerCounts::Read(instance->server.get());
  WindowResult measured;
  if (args.trace) {
    untraced = window(args.seconds / 2, nullptr);
    measured = window(args.seconds / 2, &spans);
  } else {
    measured = window(args.seconds, nullptr);
  }
  const ServerCounts after = ServerCounts::Read(instance->server.get());
  const double peak_rss_mb = PeakRssMb();
  // The serve stream is meant to exercise both sides of the result cache.
  // Checked over the timed part only: the warm-up starts with an empty cache.
  if (args.workload == "serve" && after.cache.hits == before.cache.hits) {
    errors.push_back("serve: no result cache hit after the warm-up");
  }
  if (args.workload == "serve" &&
      after.cache.lru_evictions == before.cache.lru_evictions) {
    errors.push_back("serve: no LRU eviction after the warm-up");
  }

  // The write path, measured after the reads.
  const WindowResult writes = RunPublishProbe(args.seed, kProbeCycles);
  for (const WindowResult* w :
       std::initializer_list<const WindowResult*>{&untraced, &measured, &writes}) {
    errors.insert(errors.end(), w->check_errors.begin(), w->check_errors.end());
  }
  const uint64_t attempted =
      untraced.attempted + measured.attempted + writes.attempted;
  const uint64_t failed = untraced.failed + measured.failed + writes.failed;
  const ReadSummary reads = Summarize(measured.recorders, measured.slice_seconds);
  if (!args.trace && reads.min_beyond_p99 < kMinBeyondP99) {
    errors.push_back("p99_ms rests on " + std::to_string(reads.min_beyond_p99) +
                     " latencies beyond it in one slice, fewer than " +
                     std::to_string(kMinBeyondP99) + "; use a longer window");
  }
  for (int k = 1; k < (args.trace ? 1 : kSetups); ++k) {
    const std::unique_ptr<Instance> again = timed_setup();
    if (again == nullptr ||
        !SameFormats(instance->tpch.choices, again->tpch.choices)) {
      errors.push_back("set-up chose different formats on repetition");
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"qps", reads.qps, "1/s"});
    metrics.push_back({"p50_ms", reads.p50_ms, "ms"});
    metrics.push_back({"p99_ms", reads.p99_ms, "ms"});
    metrics.push_back({"publish_ms", Median(writes.cycle_ms), "ms"});
    metrics.push_back(
        {"dict_bytes_ratio",
         DictBytesRatio(std::as_const(*instance->tpch.db).tables()), "ratio"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
  } else {
    const auto delta = [](uint64_t a, uint64_t b) {
      return static_cast<double>(b - a);
    };
    const double lookups = delta(before.cache.hits + before.cache.misses,
                                 after.cache.hits + after.cache.misses);
    metrics.push_back({"error_rate",
                       measured.attempted > 0
                           ? static_cast<double>(measured.failed) /
                                 static_cast<double>(measured.attempted)
                           : 0.0,
                       "ratio"});
    metrics.push_back({"trace.overhead",
                       untraced.qps() > 0 ? measured.qps() / untraced.qps() : 0,
                       "ratio"});
    metrics.push_back({"pool.queued_mean", measured.pool_queued_mean, "tasks"});
    metrics.push_back(
        {"server.rejected",
         delta(before.server.rejected_requests +
                   before.server.rejected_connections,
               after.server.rejected_requests +
                   after.server.rejected_connections),
         "count"});
    metrics.push_back({"server.frame_errors",
                       delta(before.server.frame_errors,
                             after.server.frame_errors),
                       "count"});
    metrics.push_back(
        {"cache.hit_rate",
         lookups > 0 ? delta(before.cache.hits, after.cache.hits) / lookups : 0,
         "ratio"});
    metrics.push_back({"cache.lru_evictions",
                       delta(before.cache.lru_evictions,
                             after.cache.lru_evictions),
                       "count"});
    metrics.push_back({"store.merge_ms", Median(writes.merge_ms), "ms"});
    metrics.push_back({"store.publish_us", Median(writes.publish_us), "us"});
    metrics.push_back({"dict.build_ms", TotalBuildMs(instance->tpch.choices), "ms"});
    metrics.push_back(
        {"core.select_ms", TotalSelectMs(instance->tpch.choices), "ms"});
    metrics.push_back(
        {"core.size_pred_error",
         adict::obs::Decisions().accuracy().mean_abs_rel_error(), "ratio"});
    const auto count = [](uint64_t n) { return static_cast<double>(n); };
    metrics.push_back({"core.sched.rebuilds", count(writes.sched.rebuilds), "count"});
    metrics.push_back({"core.sched.reclaimed_mb",
                       count(writes.sched.reclaimed_bytes) / (1024.0 * 1024.0), "MB"});
    metrics.push_back(
        {"core.sched.lost_races", count(writes.sched.lost_races), "count"});
    metrics.push_back(
        {"core.sched.failed_rebuilds", count(writes.sched.failed_rebuilds), "count"});
    LedgerInputs inputs;
    inputs.tpch = &instance->tpch;
    inputs.expected = &expected;
    inputs.seed = args.seed;
    inputs.threads = threads;
    const std::vector<std::string> ledger_errors = RunLedger(inputs, &metrics);
    errors.insert(errors.end(), ledger_errors.begin(), ledger_errors.end());
  }

  // Run metadata.
  std::string formats;
  for (const ColumnChoice& c : instance->tpch.choices) {
    if (!formats.empty()) formats += ',';
    formats += JsonString(c.name) + ":" +
               JsonString(std::string(adict::DictFormatName(c.format)));
  }
  std::string slice_qps;
  for (int index = 0; index < kSlices; ++index) {
    if (!slice_qps.empty()) slice_qps += ',';
    slice_qps += Number(static_cast<double>(MergedSlice(measured.recorders, index).ok) /
                        measured.slice_seconds);
  }
  std::string error_list;
  for (const std::string& e : errors) {
    if (!error_list.empty()) error_list += ',';
    error_list += JsonString(e);
  }
  std::printf(
      "# meta {\"workload\":%s,\"seed\":%" PRIu64 ",\"sf\":%s,"
      "\"git_sha\":%s,\"src_digest\":%s,\"hw_threads\":%u,"
      "\"pool_width\":%d,\"obs\":%s,\"trace\":%s,\"cache_bytes\":%zu,"
      "\"window_s\":%s,\"setups\":%zu,\"slices\":%d,"
      "\"read_samples\":%" PRIu64 ",\"min_slice_samples\":%" PRIu64
      ",\"min_beyond_p99\":%" PRIu64 ",\"write_cycles\":%zu,"
      "\"slice_qps\":[%s],\"formats\":{%s},\"errors\":[%s]}\n",
      JsonString(args.workload).c_str(), args.seed, sf_tag,
      JsonString(args.git_sha).c_str(), JsonString(args.src_digest).c_str(),
      std::thread::hardware_concurrency(), threads,
      adict::obs::Enabled() ? "true" : "false", args.trace ? "true" : "false",
      adict::QueryServer::Options().cache_bytes, Number(measured.seconds).c_str(),
      setup_s.size(), kSlices, reads.samples, reads.min_slice_samples,
      reads.min_beyond_p99, writes.cycle_ms.size(), slice_qps.c_str(),
      formats.c_str(), error_list.c_str());
  for (const std::string& e : errors) std::printf("# CHECK FAILED: %s\n", e.c_str());
  if (args.trace) {
    PrintTable(metrics);
    PrintSelfTime(spans);
    std::error_code ignored;  // a missing directory shows as a failed write
    std::filesystem::create_directories(args.out_dir, ignored);
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    if (spans.WriteFile(path)) {
      std::printf("# spans written to %s\n", path.c_str());
    } else {
      errors.push_back("could not write " + path);
    }
  }

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            Number(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: adict_perfbench --workload tpch|serve "
                 "--seed N --seconds S --trace 0|1 "
                 "[--expected-dir DIR] [--out-dir DIR]\n"
                 "       adict_perfbench --write-expected FILE\n");
    return 2;
  }
  return perfbench::Run(args);
}
