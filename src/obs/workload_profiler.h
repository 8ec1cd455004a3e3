// Continuous workload-heat profiler: per-column, per-operation usage with
// time decay, the live signal behind the adaptive loop.
//
// The paper's offline prototype traces lifetime extract/locate counts and
// feeds them into the next format decision. Lifetime counts cannot tell a
// column that was hot an hour ago from one that is hot now, which is
// exactly the distinction the recompression scheduler needs under memory
// pressure: evict the *currently* cold dictionary first. The profiler keeps
// one heat slot per column with
//
//   - relaxed-atomic counts and bytes per operation (OpCounters): the one
//     place a column access is counted. StringColumn's usage trace, the
//     heat, /profile.json and the dict.* totals are all read from it;
//   - a latency histogram per operation (Histogram::Quantile gives
//     p50/p95/p99). Batch operations (dictionary scans, merges, morsel
//     scans) time themselves exactly; singleton extracts/locates sample
//     every kLatencySamplePeriod-th call so the common case never reads
//     the clock;
//   - an exponentially time-decayed operation rate ("heat"), folded lazily:
//     readers pay the decay math, writers never do.
//
// Slots are created once (Table::AddStringColumn binds them by
// "table.column" name) and never destroyed, so instrumentation sites cache
// the raw pointer; a null slot disables every helper at the cost of one
// branch. Same-named tables share their columns' slots (their usage traces
// mix when both are read inside one trace window). ScopedQueryProfile
// snapshots all slots around a query and pushes the diff into a bounded
// ring — the per-query attribution served by /profile.json.
#ifndef ADICT_OBS_WORKLOAD_PROFILER_H_
#define ADICT_OBS_WORKLOAD_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/thread_annotations.h"

namespace adict {
namespace obs {

/// The column operations the profiler distinguishes. kScan counts the
/// dictionary entries read by StringColumn::ScanDictionary; kRowScan counts
/// the rows the morsel drivers visit, which compare packed value IDs and
/// never touch the dictionary (so they stay out of the usage trace).
enum class ColumnOp : int { kExtract, kLocate, kScan, kMerge, kRowScan };
inline constexpr int kNumColumnOps = 5;

std::string_view ColumnOpName(ColumnOp op);

/// One column's access record: cumulative count and bytes per operation,
/// read without a lock. Totals only go up, except in ColumnHeat::ResetValues
/// (tests), which bumps `resets` so a reader holding a baseline can tell.
struct OpCounters {
  std::array<std::atomic<uint64_t>, kNumColumnOps> counts{};
  std::array<std::atomic<uint64_t>, kNumColumnOps> bytes{};
  std::atomic<uint64_t> resets{0};

  /// Hot path: one or two relaxed adds. Returns the pre-add count of `op`
  /// (the latency-sampling clock for singleton operations).
  uint64_t Record(ColumnOp op, uint64_t count, uint64_t added_bytes) {
    const auto i = static_cast<size_t>(op);
    if (added_bytes != 0) {
      bytes[i].fetch_add(added_bytes, std::memory_order_relaxed);
    }
    return counts[i].fetch_add(count, std::memory_order_relaxed);
  }
  uint64_t count(ColumnOp op) const {
    return counts[static_cast<size_t>(op)].load(std::memory_order_relaxed);
  }
};

/// One column's heat slot. Created by WorkloadProfiler::GetColumn, stable
/// for the life of the process (never moved or destroyed).
class ColumnHeat {
 public:
  /// Singleton extracts/locates time themselves once per this many calls;
  /// the sampled latency is scaled back up for the per-op time totals.
  static constexpr uint64_t kLatencySamplePeriod = 64;

  /// Cumulative totals of one operation on one column.
  struct OpTotals {
    uint64_t count = 0;
    uint64_t bytes = 0;
    double total_us = 0;  // sampled ops contribute latency * sample period
  };

  explicit ColumnHeat(std::string name);
  ColumnHeat(const ColumnHeat&) = delete;
  ColumnHeat& operator=(const ColumnHeat&) = delete;

  const std::string& name() const { return name_; }

  /// Hot path: see OpCounters::Record.
  uint64_t RecordOp(ColumnOp op, uint64_t count, uint64_t bytes) {
    return counters_.Record(op, count, bytes);
  }

  /// The slot's access record, which bound StringColumns add into.
  OpCounters& counters() { return counters_; }

  /// Records one latency observation. `represented_ops` scales the
  /// contribution to total_us (kLatencySamplePeriod for a sampled
  /// singleton, 1 for an exactly-timed batch); the histogram always
  /// receives the raw observation.
  void RecordLatency(ColumnOp op, double us, uint64_t represented_ops);

  OpTotals Totals(ColumnOp op) const;
  uint64_t TotalOps() const;
  const Histogram& latency(ColumnOp op) const {
    return latency_[static_cast<size_t>(op)];
  }

  /// Exponentially decayed operation count: folds the ops recorded since
  /// the last fold into `heat * 2^(-dt / half_life)` and returns the
  /// result. Readers pay the fold; the record path never does.
  double DecayedHeat() const ADICT_EXCLUDES(decay_mutex_);

  /// Deterministic decay for tests: folds pending ops, then ages the heat
  /// by `seconds` without waiting. Later folds do not re-apply the wall
  /// time skipped here.
  void DecayForTest(double seconds) ADICT_EXCLUDES(decay_mutex_);

  /// Zeroes counters, histograms, and heat; keeps the slot and its gauge.
  /// For tests: the only way a slot's totals go down.
  void ResetValues() ADICT_EXCLUDES(decay_mutex_);

 private:
  friend class WorkloadProfiler;

  double FoldLocked(double now_seconds, double extra_age_seconds) const
      ADICT_REQUIRES(decay_mutex_);

  const std::string name_;
  Gauge* heat_gauge_;  // "profiler.heat.<column>", refreshed on fold

  OpCounters counters_;
  std::array<std::atomic<double>, kNumColumnOps> total_us_{};
  std::array<Histogram, kNumColumnOps> latency_;

  mutable Mutex decay_mutex_{LockRank::kColumnHeatDecay,
                             "ColumnHeat.decay_mutex_"};
  mutable double heat_ ADICT_GUARDED_BY(decay_mutex_) = 0;
  mutable uint64_t folded_ops_ ADICT_GUARDED_BY(decay_mutex_) = 0;
  mutable double last_fold_seconds_ ADICT_GUARDED_BY(decay_mutex_) = 0;
};

/// Whether a ScopedColumnOp decides for itself when to read the clock.
enum class OpTiming {
  kAuto,    // batches (count > 1) always, singletons sampled
  kAlways,  // rare-but-important operations (merges)
};

/// Times one column operation and records it into a heat slot on scope
/// exit. A null slot (column not bound, or observability off) reduces the
/// whole helper to two branches — no clock read, no atomics.
class ScopedColumnOp {
 public:
  /// `count` > 1 marks a batch operation, which is always timed exactly;
  /// `count` == 1 is a singleton, timed every kLatencySamplePeriod-th call
  /// (unless `timing` forces the clock).
  ScopedColumnOp(ColumnHeat* heat, ColumnOp op, uint64_t count = 1,
                 OpTiming timing = OpTiming::kAuto)
      : heat_(heat != nullptr && Enabled() ? heat : nullptr),
        op_(op),
        count_(count) {
    if (heat_ == nullptr) return;
    const uint64_t before = heat_->RecordOp(op_, count_, 0);
    if (timing == OpTiming::kAlways || count_ > 1) {
      represented_ = 1;
    } else if (before % ColumnHeat::kLatencySamplePeriod == 0) {
      represented_ = ColumnHeat::kLatencySamplePeriod;
    }
    if (represented_ != 0) start_ = Clock::now();
  }
  ~ScopedColumnOp() {
    if (heat_ == nullptr) return;
    if (bytes_ != 0) heat_->RecordOp(op_, 0, bytes_);
    if (represented_ != 0) {
      heat_->RecordLatency(
          op_,
          std::chrono::duration<double, std::micro>(Clock::now() - start_)
              .count(),
          represented_);
    }
  }
  ScopedColumnOp(const ScopedColumnOp&) = delete;
  ScopedColumnOp& operator=(const ScopedColumnOp&) = delete;

  void AddBytes(uint64_t n) { bytes_ += n; }

 private:
  using Clock = std::chrono::steady_clock;
  ColumnHeat* heat_;
  ColumnOp op_;
  uint64_t count_;
  uint64_t bytes_ = 0;
  uint64_t represented_ = 0;  // ops this timing stands for; 0 = not timed
  Clock::time_point start_;
};

/// Per-query attribution: which columns one query touched, and how much.
struct QueryColumnUsage {
  std::string column;
  std::array<ColumnHeat::OpTotals, kNumColumnOps> ops;
};

struct QueryAttribution {
  std::string query;
  double wall_us = 0;
  std::vector<QueryColumnUsage> columns;  // only columns with activity
};

/// One row of the recompression scheduler's latest pressure ranking, for
/// /profile.json (the "why was this column evicted" answer).
struct SchedulerRankEntry {
  std::string column;
  double score = 0;         // dict_bytes * staleness / (1 + heat)
  double decayed_heat = 0;  // traffic signal the score divided by
  uint64_t dict_bytes = 0;
  double staleness = 0;  // ticks since the column's last rebuild
};

/// Process-wide registry of heat slots plus the query-attribution ring and
/// the scheduler's latest ranking. Access through Profiler().
class WorkloadProfiler {
 public:
  static constexpr size_t kQueryRingCapacity = 64;

  WorkloadProfiler() = default;
  WorkloadProfiler(const WorkloadProfiler&) = delete;
  WorkloadProfiler& operator=(const WorkloadProfiler&) = delete;

  /// The slot for `name` ("table.column"), created on first use. The
  /// returned pointer is stable forever — cache it.
  ColumnHeat* GetColumn(std::string_view name) ADICT_EXCLUDES(mutex_);

  /// Stable pointers to all slots, sorted by name.
  std::vector<const ColumnHeat*> Columns() const ADICT_EXCLUDES(mutex_);

  /// Folds every slot's heat into its "profiler.heat.<column>" gauge and
  /// raises the dict.* access totals to the sums over the slots. Call
  /// before rendering Metrics() (the HTTP exporter does, per scrape).
  void RefreshMetrics() ADICT_EXCLUDES(mutex_);

  /// Half-life of the decayed heat, seconds. Applies on the next fold.
  double half_life_seconds() const {
    return half_life_seconds_.load(std::memory_order_relaxed);
  }
  void set_half_life_seconds(double seconds) {
    half_life_seconds_.store(seconds, std::memory_order_relaxed);
  }

  void RecordQuery(QueryAttribution record) ADICT_EXCLUDES(mutex_);
  std::vector<QueryAttribution> RecentQueries() const ADICT_EXCLUDES(mutex_);
  uint64_t total_queries() const ADICT_EXCLUDES(mutex_);

  void RecordSchedulerRanking(std::vector<SchedulerRankEntry> ranking)
      ADICT_EXCLUDES(mutex_);
  std::vector<SchedulerRankEntry> LatestSchedulerRanking() const
      ADICT_EXCLUDES(mutex_);

  /// Zeroes every slot and clears the rings; slots (and cached pointers)
  /// survive, mirroring MetricsRegistry::ResetValues.
  void ResetValues() ADICT_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_{LockRank::kProfilerState,
                       "WorkloadProfiler.mutex_"};
  // Node-based map: ColumnHeat addresses are stable across insertions.
  std::map<std::string, ColumnHeat, std::less<>> columns_
      ADICT_GUARDED_BY(mutex_);
  std::deque<QueryAttribution> queries_ ADICT_GUARDED_BY(mutex_);
  uint64_t total_queries_ ADICT_GUARDED_BY(mutex_) = 0;
  std::vector<SchedulerRankEntry> ranking_ ADICT_GUARDED_BY(mutex_);
  std::atomic<double> half_life_seconds_{30.0};
};

/// The process-wide profiler. Never destroyed.
WorkloadProfiler& Profiler();

/// RAII per-query attribution: snapshots every slot's totals at
/// construction, diffs at destruction, and pushes the result into the
/// profiler's query ring. Exact for serial queries; concurrent queries on
/// the same columns blend into each other's diffs (documented in
/// docs/observability.md). Inactive when observability is off.
class ScopedQueryProfile {
 public:
  explicit ScopedQueryProfile(std::string_view query);
  ~ScopedQueryProfile();
  ScopedQueryProfile(const ScopedQueryProfile&) = delete;
  ScopedQueryProfile& operator=(const ScopedQueryProfile&) = delete;

 private:
  struct SlotSnapshot {
    const ColumnHeat* slot;
    std::array<ColumnHeat::OpTotals, kNumColumnOps> ops;
  };

  std::string query_;
  bool active_ = false;
  std::chrono::steady_clock::time_point start_;
  std::vector<SlotSnapshot> before_;
};

/// {"half_life_seconds":...,"columns":[...],"queries":[...],
///  "scheduler_ranking":[...]} — the /profile.json body.
std::string ProfileToJson(const WorkloadProfiler& profiler);

}  // namespace obs
}  // namespace adict

#endif  // ADICT_OBS_WORKLOAD_PROFILER_H_
