// Domain-encoded, usage-instrumented string column of the read-optimized
// store.
//
// Every dictionary access is recorded once, into the column's access record
// (obs::OpCounters): its heat slot's when the column belongs to a Table, a
// private one otherwise. The usage trace the compression manager consumes
// is that record minus a baseline: the paper's offline prototype instruments
// the store, runs a representative workload, and feeds the counts into the
// format decision at the next rebuild. Because all dictionary formats are
// order-preserving, the dictionary can be rebuilt in a different format
// without touching the column vector.
#ifndef ADICT_STORE_STRING_COLUMN_H_
#define ADICT_STORE_STRING_COLUMN_H_

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tradeoff.h"
#include "dict/dictionary.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "store/column_vector.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace adict {

/// Domain encoding: sorted distinct values plus one value ID per row.
struct DomainEncoded {
  std::vector<std::string> dictionary;  // sorted, distinct
  std::vector<uint32_t> ids;            // per row, index into dictionary
};

/// Domain-encodes a raw value column.
DomainEncoded DomainEncode(std::span<const std::string> values);

class StringColumn {
 public:
  /// Empty placeholder column (no dictionary); assign a built column before
  /// using any accessor.
  StringColumn() = default;

  // Move-only: the dictionary and the private access record are uniquely
  // owned. Moving happens at build/merge time, before the column is shared.
  StringColumn(StringColumn&&) = default;
  StringColumn& operator=(StringColumn&&) = default;

  /// Builds from raw row values with an explicit dictionary format.
  static StringColumn FromValues(std::span<const std::string> values,
                                 DictFormat format = DictFormat::kFcInline);

  /// Builds from pre-encoded parts (used by merge and by format changes).
  static StringColumn FromEncoded(DomainEncoded encoded, DictFormat format);

  /// Assembles a column from an already-built dictionary and per-row value
  /// IDs (used by the guarded merge path, which builds — and possibly
  /// falls back — the dictionary before committing the column).
  static StringColumn FromParts(std::unique_ptr<Dictionary> dict,
                                std::span<const uint32_t> ids);

  /// Same, reusing an already-packed column vector. Because every format is
  /// order-preserving, a dictionary-only rebuild (format change under
  /// memory pressure) keeps the value IDs bit-identical — the rebuilder
  /// copies the packed words instead of decoding and re-packing the rows.
  /// `vector` must have been packed against a dictionary with the same
  /// entries as `dict`.
  static StringColumn FromParts(std::unique_ptr<Dictionary> dict,
                                ColumnVector vector);

  /// Value of `row` (counted as one extract).
  std::string GetValue(uint64_t row) const {
    std::string value;
    Record(obs::ColumnOp::kExtract, 1, [&] {
      value = dict_->Extract(vector_.Get(row));
      return value.size();
    });
    return value;
  }

  /// Appends the value of `row` to `out` (counted as one extract).
  void GetValueInto(uint64_t row, std::string* out) const {
    Record(obs::ColumnOp::kExtract, 1, [&] {
      const size_t before = out->size();
      dict_->ExtractInto(vector_.Get(row), out);
      return out->size() - before;
    });
  }

  /// Value ID of `row` (pure vector access, no dictionary cost).
  uint32_t GetValueId(uint64_t row) const { return vector_.Get(row); }

  /// Dictionary lookup (counted as one locate).
  LocateResult Locate(std::string_view value) const {
    LocateResult result;
    Record(obs::ColumnOp::kLocate, 1, [&] {
      result = dict_->Locate(value);
      return value.size();
    });
    return result;
  }

  /// Extracts the dictionary entry for a value ID (counted as one extract).
  std::string ExtractId(uint32_t id) const {
    std::string value;
    Record(obs::ColumnOp::kExtract, 1, [&] {
      value = dict_->Extract(id);
      return value.size();
    });
    return value;
  }

  /// Sequentially scans dictionary entries [first, first + count) (counted
  /// as `count` extracts). Block-based formats decode each block only once.
  void ScanDictionary(uint32_t first, uint32_t count,
                      const std::function<void(uint32_t, std::string_view)>&
                          fn) const {
    ADICT_TRACE_SPAN("column.scan_dictionary");
    Record(obs::ColumnOp::kScan, count, [&] {
      dict_->Scan(first, count, fn);
      // Bytes touched is approximated from the compressed dictionary size;
      // summing entry lengths in the callback would tax every entry.
      return num_distinct() == 0
                 ? 0
                 : DictionaryBytes() * count / num_distinct();
    });
  }

  uint64_t num_rows() const { return vector_.size(); }
  uint32_t num_distinct() const { return dict_->size(); }
  const Dictionary& dictionary() const { return *dict_; }
  const ColumnVector& vector() const { return vector_; }
  DictFormat format() const { return dict_->format(); }

  /// Decompresses the full dictionary back into sorted distinct values
  /// (used at merge / format-change time, when reconstruction happens
  /// anyway). Not counted as extracts.
  std::vector<std::string> MaterializeDictionary() const;

  size_t MemoryBytes() const {
    return dict_->MemoryBytes() + vector_.MemoryBytes();
  }
  size_t DictionaryBytes() const { return dict_->MemoryBytes(); }
  size_t VectorBytes() const { return vector_.MemoryBytes(); }

  /// Rebuilds only the dictionary in a different format. Value IDs are
  /// stable across formats (all formats are order-preserving), so the
  /// column vector is reused as-is.
  void ChangeFormat(DictFormat format);

  /// Persistence: compressed dictionary + bit-packed vector, no re-encoding
  /// on load. Usage counters are not persisted (they describe one dictionary
  /// lifetime). Deserialize fails (never aborts) on a corrupt or truncated
  /// dictionary image.
  void Serialize(ByteWriter* out) const;
  static StatusOr<StringColumn> Deserialize(ByteReader* in);

  /// The usage trace: extracts (singleton extracts plus dictionary-scan
  /// entries) and locates since this version was built or bound, or since
  /// the last ResetUsage(), with the lifetime and column vector size filled
  /// in. A table-bound column reads it from its heat slot, so accesses to
  /// other versions or same-named tables inside the window count too.
  ColumnUsage TracedUsage(double lifetime_seconds) const;
  /// Restarts the trace; the access record itself keeps counting.
  void ResetUsage() { baseline_ = Mark(); }

  /// Binds the column to a workload-profiler heat slot (null: the private
  /// record) and restarts the trace there. Not synchronized: bind before
  /// the column is shared — Table::AddStringColumn does, and publishes
  /// rebind inside the version mutex, so this takes atomic loads only.
  void BindHeat(obs::ColumnHeat* heat);
  obs::ColumnHeat* heat() const { return heat_; }

 private:
  struct UsageMark {  // the record's trace totals at one instant
    uint64_t extracts = 0;  // kExtract + kScan counts
    uint64_t locates = 0;   // kLocate count
    uint64_t resets = 0;    // OpCounters::resets
  };
  UsageMark Mark() const;

  /// The one record every accessor makes: `count` ops of `op` plus the
  /// bytes `access()` returns. With obs on and a slot bound, batches are
  /// timed exactly and singletons every kLatencySamplePeriod-th call; with
  /// obs off only the timing stops.
  template <typename Access>
  void Record(obs::ColumnOp op, uint64_t count, const Access& access) const {
    const uint64_t before = counters_->Record(op, count, 0);
    const uint64_t period = obs::ColumnHeat::kLatencySamplePeriod;
    if (heat_ == nullptr || !obs::Enabled() || count == 0 ||
        (count == 1 && before % period != 0)) {
      counters_->Record(op, 0, access());
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    const uint64_t bytes = access();
    heat_->RecordLatency(op,
                         std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count(),
                         count == 1 ? period : 1);
    counters_->Record(op, 0, bytes);
  }

  std::unique_ptr<Dictionary> dict_;
  ColumnVector vector_;
  // Written only before the column is shared (see BindHeat); the record is
  // relaxed atomics, so readers of a shared column count without a race.
  obs::ColumnHeat* heat_ = nullptr;  // null when unbound
  std::unique_ptr<obs::OpCounters> own_counters_ =
      std::make_unique<obs::OpCounters>();
  obs::OpCounters* counters_ = own_counters_.get();  // slot's or own
  UsageMark baseline_;
};

/// Versioned holder of one read-optimized column: the snapshot-read side of
/// the delta-merge protocol (docs/parallelism.md).
///
/// Readers call Snapshot() — a brief lock to copy the shared_ptr — and then
/// scan their version without any further synchronization; a concurrent
/// merge builds the next version entirely off-lock (MergeDelta /
/// MergeDeltaAdaptive are pure functions of the old column) and Publish()es
/// it with a pointer swap. Readers therefore never block a merge and a
/// merge never blocks readers; a superseded version stays alive exactly
/// until its last snapshot holder drops it (shared_ptr refcount).
///
/// current() is the compatibility accessor for single-writer phases (load,
/// reconfiguration between workloads): it returns a reference into the
/// current version, valid only until the next Publish(). Phases that hold a
/// current() reference across a possible Publish must snapshot instead.
class VersionedStringColumn {
 public:
  explicit VersionedStringColumn(StringColumn column)
      : current_(std::make_shared<StringColumn>(std::move(column))) {}

  VersionedStringColumn(const VersionedStringColumn&) = delete;
  VersionedStringColumn& operator=(const VersionedStringColumn&) = delete;

  /// The current version, pinned: holds the version alive across any number
  /// of later Publish() calls.
  std::shared_ptr<const StringColumn> Snapshot() const
      ADICT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return current_;
  }

  /// Atomically replaces the current version and bumps the epoch. The new
  /// column is fully built by the caller before the swap, so the lock is
  /// held only for the pointer exchange. The epoch is advanced while the
  /// lock is still held so PublishIfEpoch can compare epoch and version
  /// consistently.
  void Publish(StringColumn next) ADICT_EXCLUDES(mutex_) {
    auto version = std::make_shared<StringColumn>(std::move(next));
    uint64_t epoch;
    {
      MutexLock lock(&mutex_);
      // The heat slot follows the column across rebuilds and merges. Binding
      // before the swap, while no reader can hold the new version yet, also
      // starts the new version's usage trace at zero.
      version->BindHeat(version->heat() ? version->heat() : current_->heat());
      current_ = std::move(version);
      epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    }
    if (obs::Enabled()) {
      static obs::Counter* publishes = obs::Metrics().GetCounter(
          "store.snapshot.publish", "versions",
          "column versions published by delta merges / format changes");
      static obs::Gauge* epoch_gauge = obs::Metrics().GetGauge(
          "store.snapshot.epoch", "epoch",
          "version epoch of the most recently published column");
      publishes->Increment();
      epoch_gauge->Set(static_cast<double>(epoch));
    }
  }

  /// Conditional publish: commits `next` only if the column's epoch still
  /// equals `expected_epoch` (i.e. no other writer published since the
  /// caller snapshotted). Returns false — and discards `next` — when the
  /// version moved on. This is the optimistic-concurrency primitive for
  /// writers whose input is derived from a snapshot (the recompression
  /// scheduler): a delta merge that races a pressure rebuild must never be
  /// overwritten by a column built from the pre-merge snapshot.
  bool PublishIfEpoch(StringColumn next, uint64_t expected_epoch)
      ADICT_EXCLUDES(mutex_) {
    auto version = std::make_shared<StringColumn>(std::move(next));
    uint64_t epoch;
    {
      MutexLock lock(&mutex_);
      if (epoch_.load(std::memory_order_acquire) != expected_epoch) {
        return false;
      }
      version->BindHeat(version->heat() ? version->heat() : current_->heat());
      current_ = std::move(version);
      epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    }
    if (obs::Enabled()) {
      static obs::Counter* publishes = obs::Metrics().GetCounter(
          "store.snapshot.publish_if_epoch", "versions",
          "column versions committed by epoch-guarded conditional publishes");
      static obs::Gauge* epoch_gauge = obs::Metrics().GetGauge(
          "store.snapshot.epoch", "epoch",
          "version epoch of the most recently published column");
      publishes->Increment();
      epoch_gauge->Set(static_cast<double>(epoch));
    }
    return true;
  }

  /// Versions published since construction (0 = the initial version).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Single-writer-phase reference to the current version (see class
  /// comment for the validity contract).
  const StringColumn& current() const ADICT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return *current_;
  }
  StringColumn& current() ADICT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return *current_;
  }

 private:
  mutable Mutex mutex_{LockRank::kColumnVersion,
                       "VersionedStringColumn.mutex_"};
  std::shared_ptr<StringColumn> current_ ADICT_GUARDED_BY(mutex_);
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace adict

#endif  // ADICT_STORE_STRING_COLUMN_H_
