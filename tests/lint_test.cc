// Tests for tools/adict_lint.py, the repo-invariant checker.
//
// The lint's job is to catch cross-surface drift that the compiler cannot:
// a 19th format added to the enum but not the size model, a metric that
// never reaches docs/observability.md, a span missing from the catalog, a
// silently discarded Status. Each test here seeds exactly that violation
// into a synthetic mini-repo and asserts the lint fails with a pointed
// message; one test runs the lint over the real tree, which must be clean.
//
// The mini-repo mirrors only the files the lint reads (see adict_lint.py's
// parsers); it uses two formats instead of eighteen to keep the fixtures
// readable.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#ifndef ADICT_SOURCE_DIR
#error "tests/CMakeLists.txt must define ADICT_SOURCE_DIR"
#endif

namespace adict {
namespace {

namespace fs = std::filesystem;

struct LintResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

LintResult RunLint(const fs::path& root) {
  const std::string command = std::string("python3 '") + ADICT_SOURCE_DIR +
                              "/tools/adict_lint.py' --root '" +
                              root.string() + "' 2>&1";
  LintResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (status >= 0 && WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::system("python3 --version > /dev/null 2>&1") != 0) {
      GTEST_SKIP() << "python3 not available";
    }
    root_ = fs::temp_directory_path() /
            ("adict_lint_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    WriteCleanTree();
  }

  void TearDown() override {
    if (!root_.empty()) fs::remove_all(root_);
  }

  void Write(const std::string& relative, const std::string& content) {
    const fs::path path = root_ / relative;
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::trunc);
    out << content;
    ASSERT_TRUE(out.good()) << "writing " << path;
  }

  void Append(const std::string& relative, const std::string& content) {
    std::ofstream out(root_ / relative, std::ios::app);
    out << content;
    ASSERT_TRUE(out.good()) << "appending to " << (root_ / relative);
  }

  // A minimal tree on which every check passes: two formats, one metric,
  // one span, one Status-returning function.
  void WriteCleanTree() {
    Write("src/dict/dictionary.h", R"lint(
enum class DictFormat {
  kArray,
  kFcBlock,
};
inline constexpr int kNumDictFormats = 2;
)lint");
    Write("src/dict/dictionary.cc", R"lint(
const char* DictFormatName(DictFormat format) {
  switch (format) {
    case DictFormat::kArray: return "array";
    case DictFormat::kFcBlock: return "fc block";
  }
  return "";
}
)lint");
    Write("src/core/size_model.cc", R"lint(
double PredictSize(DictFormat format) {
  switch (format) {
    case DictFormat::kArray: return 1;
    case DictFormat::kFcBlock: return 2;
  }
  return 0;
}
)lint");
    Write("src/dict/serialization.cc", R"lint(
void SerializePayload(DictFormat format) {
  switch (format) {
    case DictFormat::kArray: break;
    case DictFormat::kFcBlock: break;
  }
}
)lint");
    Write("src/core/build_guard.cc", R"lint(
void Degrade() {
  std::array<DictFormat, 2> chain = {DictFormat::kFcBlock,
                                     DictFormat::kArray};
}
)lint");
    Write("src/util/status.h", R"lint(
class [[nodiscard]] Status {};
template <typename T>
class [[nodiscard]] StatusOr {};
)lint");
    Write("src/obs/instrumented.cc", R"lint(
Status DoThing();

void Touch() {
  Metrics().GetCounter("mini.counter")->Increment();
  ADICT_TRACE_SPAN("mini.span");
}

Status Caller() {
  return DoThing();
}
)lint");
    Write("BENCH_core.json",
          R"lint([{"format": "array"}, {"format": "fc block"}])lint");
    Write("docs/format_layouts.md", R"lint(# Layouts

| Tag | Enum | Paper name |
|---|---|---|
| 0 | `kArray` | `array` |
| 1 | `kFcBlock` | `fc block` |
)lint");
    Write("src/obs/http_exporter.cc", R"lint(
// adict-lint: http-routes-begin
constexpr Route kRoutes[] = {
    {"/mini", "GET"},
};
// adict-lint: http-routes-end
)lint");
    // The serving check syncs src/server metrics and spans with
    // docs/serving.md; one literal registration, one through an event
    // helper (the lint must see both), one span.
    Write("src/server/query_server.cc", R"lint(
void CountServerEvent(const char* name, const char* help) {
  Metrics().GetCounter(name, "events", help)->Increment();
}

void Serve() {
  Metrics().GetGauge("server.mini.active")->Set(1);
  CountServerEvent("server.mini.events", "mini events");
  ADICT_TRACE_SPAN("server.mini.span");
}
)lint");
    Write("docs/serving.md", R"lint(# Serving

## Metrics

| Name | Unit |
|---|---|
| `server.mini.active` | connections |
| `server.mini.events` | events |

## Spans

| Name | Around |
|---|---|
| `server.mini.span` | the mini request |
)lint");
    Write("docs/observability.md", R"lint(# Observability

## HTTP endpoints

| Endpoint | Returns |
|---|---|
| `GET /mini` | the one route |

## Metric reference

| Name | Unit |
|---|---|
| `mini.counter` | calls |
| `server.mini.active` | connections |
| `server.mini.events` | events |

Per-format counters: `manager.chosen.array` and `manager.chosen.fc_block`.

## Tracing

### Span catalog

| Span | What |
|---|---|
| `mini.span` | the one span |
| `server.mini.span` | the mini request |
)lint");
    // The snapshots check: a query plan that pins its column.
    Write("src/tpch/queries_mini.cc", R"lint(
QueryResult QMini(const TpchDatabase& db) {
  const PinnedColumn name(db.nation, "N_NAME");
  return Scan(name);
}
)lint");
    // The lint also scans examples/ and bench/ for spans.
    Write("examples/README.md", "placeholder\n");
    Write("bench/README.md", "placeholder\n");
    // The locks check: a two-rank hierarchy (core and server strata), one
    // ranked mutex per stratum, and the doc table that mirrors them.
    Write("src/util/lock_rank.h", R"lint(
enum class LockStratum : int {
  kUtil = 0,
  kCore = 2,
  kServer = 4,
};
inline constexpr int kLockStratumWidth = 100;
enum class LockRank : int {
  kMiniCore = 210,
  kMiniServer = 410,
};
)lint");
    Write("src/util/lock_rank.cc", R"lint(
const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kMiniCore: return "kMiniCore";
    case LockRank::kMiniServer: return "kMiniServer";
  }
  return "";
}
)lint");
    Write("src/core/mini_locks.h", R"lint(
class MiniScheduler {
 private:
  mutable Mutex mutex_{LockRank::kMiniCore, "MiniScheduler.mutex_"};
};
)lint");
    Append("src/server/query_server.cc", R"lint(
MutexCv drain_mutex_{LockRank::kMiniServer, "MiniServer.drain_mutex_"};
)lint");
    Write("docs/lock_hierarchy.md", R"lint(# Lock hierarchy

| Mutex | Rank | Value | Stratum | File | Guards | May call while held |
|---|---|---|---|---|---|---|
| `MiniServer.drain_mutex_` | `kMiniServer` | 410 | server | `src/server/query_server.cc` | drain count | nothing |
| `MiniScheduler.mutex_` | `kMiniCore` | 210 | core | `src/core/mini_locks.h` | scheduler state | core and below |
)lint");
  }

  fs::path root_;
};

TEST_F(LintTest, CleanMiniTreePasses) {
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("adict_lint: OK"), std::string::npos)
      << result.output;
}

// The committed tree must satisfy its own lint.
TEST_F(LintTest, RealTreeIsClean) {
  const LintResult result = RunLint(fs::path(ADICT_SOURCE_DIR));
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

// A 19th (here: 3rd) format added to the enum alone must be flagged on
// every surface it is missing from.
TEST_F(LintTest, FormatAddedOnlyToEnum) {
  Write("src/dict/dictionary.h", R"lint(
enum class DictFormat {
  kArray,
  kFcBlock,
  kExtra,
};
inline constexpr int kNumDictFormats = 2;
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("kNumDictFormats is 2"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(
                "DictFormat::kExtra is in the enum but missing from the "
                "SizeModel per-format switch"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("serde payload dispatch"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(
                "DictFormat::kExtra is missing from the format table"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, UndocumentedMetric) {
  Append("src/obs/instrumented.cc", R"lint(
void TouchMore() {
  Metrics().GetCounter("mini.undocumented")->Increment();
}
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("metric \"mini.undocumented\" is registered "
                               "here but not documented"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, StaleMetricDocRow) {
  Write("docs/observability.md", R"lint(# Observability

## HTTP endpoints

| Endpoint | Returns |
|---|---|
| `GET /mini` | the one route |

## Metric reference

| Name | Unit |
|---|---|
| `mini.counter` | calls |
| `mini.ghost` | calls |

Per-format counters: `manager.chosen.array` and `manager.chosen.fc_block`.

## Tracing

### Span catalog

| Span | What |
|---|---|
| `mini.span` | the one span |
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("documented metric \"mini.ghost\" is not "
                               "registered anywhere"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, UncataloguedSpan) {
  Append("src/obs/instrumented.cc", R"lint(
void TraceMore() {
  ADICT_TRACE_SPAN("mini.rogue");
}
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("span \"mini.rogue\" is opened here but "
                               "missing from the span catalog"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, UndocumentedHttpRoute) {
  Write("src/obs/http_exporter.cc", R"lint(
// adict-lint: http-routes-begin
constexpr Route kRoutes[] = {
    {"/mini", "GET"},
    {"/rogue", "POST"},
};
// adict-lint: http-routes-end
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("HTTP route \"POST /rogue\" is served here "
                               "but not documented"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, StaleEndpointDocRow) {
  Write("docs/observability.md", R"lint(# Observability

## HTTP endpoints

| Endpoint | Returns |
|---|---|
| `GET /mini` | the one route |
| `GET /ghost` | a route the exporter never served |

## Metric reference

| Name | Unit |
|---|---|
| `mini.counter` | calls |

Per-format counters: `manager.chosen.array` and `manager.chosen.fc_block`.

## Tracing

### Span catalog

| Span | What |
|---|---|
| `mini.span` | the one span |
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("documented HTTP endpoint \"GET /ghost\" is "
                               "not in the exporter's route table"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, ServingMetricMissingFromServingDoc) {
  // Registered in src/server but absent from the serving.md table (the
  // general metrics check fires too — the assertion is on the serving
  // message).
  Append("src/server/query_server.cc", R"lint(
void ServeMore() {
  CountServerEvent("server.mini.extra", "x");
}
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(
                "server metric \"server.mini.extra\" is registered here but "
                "missing from the `## Metrics` table in docs/serving.md"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, StaleServingMetricRow) {
  Write("docs/serving.md", R"lint(# Serving

## Metrics

| Name | Unit |
|---|---|
| `server.mini.active` | connections |
| `server.mini.events` | events |
| `server.mini.ghost` | events |

## Spans

| Name | Around |
|---|---|
| `server.mini.span` | the mini request |
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(
                "docs/serving.md documents server metric "
                "\"server.mini.ghost\", which is not registered in "
                "src/server"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, ServingSpanMissingFromServingDoc) {
  Append("src/server/query_server.cc", R"lint(
void TraceServe() {
  ADICT_TRACE_SPAN("server.mini.rogue");
}
)lint");
  // Catalogued in observability.md so only the serving check fires.
  Append("docs/observability.md", "| `server.mini.rogue` | rogue span |\n");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(
                "server span \"server.mini.rogue\" is opened here but "
                "missing from the `## Spans` table in docs/serving.md"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, EventHelperMetricsAreSeenByTheMetricsCheck) {
  // A name that only ever passes through CountServerEvent must still be
  // held against docs/observability.md.
  Append("src/server/query_server.cc", R"lint(
void ServeQuietly() {
  CountServerEvent("server.mini.unlisted", "x");
}
)lint");
  Append("docs/serving.md", "| `server.mini.unlisted` | events |\n");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(
                "metric \"server.mini.unlisted\" is registered here but not "
                "documented"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, DiscardedStatus) {
  Append("src/obs/instrumented.cc", R"lint(
void Sloppy() {
  DoThing();
}
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("result of Status-returning `DoThing(...)` "
                               "is silently discarded"),
            std::string::npos)
      << result.output;
}

TEST_F(LintTest, GuardChainMustEndInArray) {
  Write("src/core/build_guard.cc", R"lint(
void Degrade() {
  std::array<DictFormat, 2> chain = {DictFormat::kArray,
                                     DictFormat::kFcBlock};
}
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(
      result.output.find("degradation chain must terminate in "
                         "DictFormat::kArray"),
      std::string::npos)
      << result.output;
}

TEST_F(LintTest, BaselineMissingFormatRows) {
  Write("BENCH_core.json", R"lint([{"format": "array"}])lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("format \"fc block\" (DictFormat::kFcBlock) "
                               "has no rows in the committed perf baseline"),
            std::string::npos)
      << result.output;
}

// --- locks: the lock-hierarchy consistency pass ------------------------

// A Mutex member without a {LockRank::..., "name"} initializer is
// invisible to the deadlock detector and must be flagged at its
// declaration.
TEST_F(LintTest, LocksUnrankedMutex) {
  Append("src/core/mini_locks.h", R"lint(
class Sloppy {
  Mutex naked_;
};
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("Mutex member \"naked_\" declares no rank"),
            std::string::npos)
      << result.output;
}

// Raw standard-library primitives bypass the hierarchy entirely; only
// thread_annotations.h and lock_rank.* may use them.
TEST_F(LintTest, LocksRawStdMutexInSrc) {
  Append("src/core/mini_locks.h", R"lint(
class Rogue {
  std::mutex raw_;
};
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("raw std::mutex"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("ranked Mutex/MutexCv"), std::string::npos)
      << result.output;
}

// A server-stratum rank on a mutex declared in src/core/ violates the
// strata bands: the rank's value must match the subsystem directory.
TEST_F(LintTest, LocksMisrankedMutex) {
  Write("src/core/mini_locks.h", R"lint(
class MiniScheduler {
 private:
  mutable Mutex mutex_{LockRank::kMiniServer, "MiniScheduler.mutex_"};
};
)lint");
  // Keep both surfaces of kMiniCore consistent so only the stratum
  // violation (and the doc-rank mismatch) fires.
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("has rank kMiniServer (value 410, stratum "
                               "server) but is declared in src/core/"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(
                "core-stratum locks must use a rank in [200, 300)"),
            std::string::npos)
      << result.output;
}

// Every ranked mutex needs a row in the docs/lock_hierarchy.md table.
TEST_F(LintTest, LocksUndocumentedMutex) {
  Write("src/util/lock_rank.h", R"lint(
enum class LockStratum : int {
  kUtil = 0,
  kCore = 2,
  kServer = 4,
};
inline constexpr int kLockStratumWidth = 100;
enum class LockRank : int {
  kMiniCore = 210,
  kMiniExtra = 220,
  kMiniServer = 410,
};
)lint");
  Append("src/util/lock_rank.cc", R"lint(
const char* AlsoName(LockRank rank) {
  switch (rank) {
    case LockRank::kMiniExtra: return "kMiniExtra";
  }
  return "";
}
)lint");
  Append("src/core/mini_locks.h", R"lint(
class Undocumented {
  Mutex extra_{LockRank::kMiniExtra, "Undocumented.extra_"};
};
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(
                "mutex \"Undocumented.extra_\" (rank kMiniExtra) has no row "
                "in the docs/lock_hierarchy.md rank table"),
            std::string::npos)
      << result.output;
}

// And the reverse: a table row for a mutex that no longer exists is stale.
TEST_F(LintTest, LocksStaleDocRow) {
  Append("docs/lock_hierarchy.md",
         "| `Ghost.mutex_` | `kMiniCore` | 210 | core | `src/core/g.h` | "
         "nothing | nothing |\n");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("rank table documents mutex \"Ghost.mutex_\", "
                               "which is not declared anywhere in src/"),
            std::string::npos)
      << result.output;
}

// A rank in the enum that no declaration uses is dead weight (or a typo'd
// migration) and must be flagged.
TEST_F(LintTest, LocksDeadRankInEnum) {
  Write("src/util/lock_rank.h", R"lint(
enum class LockStratum : int {
  kUtil = 0,
  kCore = 2,
  kServer = 4,
};
inline constexpr int kLockStratumWidth = 100;
enum class LockRank : int {
  kMiniCore = 210,
  kMiniServer = 410,
  kMiniUnused = 420,
};
)lint");
  Append("src/util/lock_rank.cc", R"lint(
const char* AlsoName(LockRank rank) {
  switch (rank) {
    case LockRank::kMiniUnused: return "kMiniUnused";
  }
  return "";
}
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("LockRank::kMiniUnused is in the enum but no "
                               "Mutex/MutexCv declaration uses it"),
            std::string::npos)
      << result.output;
}

// Query plans and the server run while columns are published, so the
// single-writer-phase accessors are flagged there.
TEST_F(LintTest, SnapshotsFlagSingleWriterAccessorsInPlansAndServer) {
  Append("src/tpch/queries_mini.cc", R"lint(
uint32_t FirstId(const TpchDatabase& db) {
  return db.nation.strings("N_NAME").GetValueId(0);
}
)lint");
  Append("src/server/query_server.cc", R"lint(
size_t Bytes(const Table* table) {
  return table->string_column(0).current().MemoryBytes();
}
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("queries_mini.cc:8: [snapshots] `.strings()` "
                               "is a single-writer-phase accessor"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("[snapshots] `.current()` is a "
                               "single-writer-phase accessor"),
            std::string::npos)
      << result.output;
}

// The accessors stay legal outside plans and the server, in comments, and
// in the snapshot calls whose names merely end in "Strings".
TEST_F(LintTest, SnapshotsAllowPinsCommentsAndOtherLayers) {
  Append("src/tpch/queries_mini.cc", R"lint(
// Not through db.nation.strings("N_NAME"): that dangles at a publish.
size_t Pinned(const TpchDatabase& db) {
  return db.nation.SnapshotStrings("N_NAME")->num_rows() +
         db.nation.versioned_strings("N_NAME").Snapshot()->num_rows();
}
)lint");
  Write("src/store/loader.cc", R"lint(
void Load(Table* table) {
  table->strings("N_NAME").ResetUsage();
  table->string_column(0).current().ResetUsage();
}
)lint");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

// Structural breakage (a missing file) is exit 2, distinct from violations
// — CI must not mistake "the lint could not run" for "the lint passed".
TEST_F(LintTest, MissingFileIsAnError) {
  fs::remove(root_ / "src/core/size_model.cc");
  const LintResult result = RunLint(root_);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("adict_lint: error"), std::string::npos)
      << result.output;
}

}  // namespace
}  // namespace adict
