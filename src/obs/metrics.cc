#include "obs/metrics.h"

#include <algorithm>
#include <array>

#include "util/check.h"

namespace adict {
namespace obs {

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(new std::atomic<uint64_t>[bounds.size() + 1]) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    ADICT_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                    "histogram bounds must be strictly ascending");
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // lower_bound makes the bounds inclusive: bucket i counts <= bounds[i].
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20 but not yet universal; CAS instead.
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::Quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Rank of the quantile observation, 1-based; q = 0 maps to the first.
  const double rank = std::max(1.0, q * static_cast<double>(total));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(cumulative + counts[i]) >= rank) {
      if (i >= bounds_.size()) {
        // Overflow bucket: no upper edge, clamp to the largest bound (or 0
        // for a bounds-less histogram, which holds no value information).
        return bounds_.empty() ? 0.0 : bounds_.back();
      }
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double fraction = (rank - static_cast<double>(cumulative)) /
                              static_cast<double>(counts[i]);
      return lower + fraction * (upper - lower);
    }
    cumulative += counts[i];
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::span<const double> DefaultLatencyBucketsUs() {
  static constexpr std::array<double, 19> kBounds = {
      1,    2,    5,    10,   20,   50,   100,  200,  500, 1e3,
      2e3,  5e3,  1e4,  2e4,  5e4,  1e5,  2e5,  5e5,  1e6};
  return kBounds;
}

MetricsRegistry::Entry* MetricsRegistry::GetOrCreate(
    std::string_view name, MetricType type, std::string_view unit,
    std::string_view help, std::string_view labels,
    std::span<const double> bounds) {
  MutexLock lock(&mutex_);
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    ADICT_CHECK_MSG(it->second.type == type,
                    "metric re-registered with a different type");
    return &it->second;
  }
  Entry entry;
  entry.name = std::string(name);
  entry.unit = std::string(unit);
  entry.help = std::string(help);
  entry.labels = std::string(labels);
  entry.type = type;
  switch (type) {
    case MetricType::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry.histogram = std::make_unique<Histogram>(
          bounds.empty() ? DefaultLatencyBucketsUs() : bounds);
      break;
  }
  return &entries_.emplace(entry.name, std::move(entry)).first->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view unit,
                                     std::string_view help,
                                     std::string_view labels) {
  return GetOrCreate(name, MetricType::kCounter, unit, help, labels, {})
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view unit,
                                 std::string_view help,
                                 std::string_view labels) {
  return GetOrCreate(name, MetricType::kGauge, unit, help, labels, {})
      ->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::span<const double> bounds,
                                         std::string_view unit,
                                         std::string_view help) {
  return GetOrCreate(name, MetricType::kHistogram, unit, help, "", bounds)
      ->histogram.get();
}

std::vector<const MetricsRegistry::Entry*> MetricsRegistry::Entries() const {
  MutexLock lock(&mutex_);
  std::vector<const Entry*> entries;
  entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) entries.push_back(&entry);
  return entries;  // std::map iterates in name order
}

void MetricsRegistry::ResetValues() {
  MutexLock lock(&mutex_);
  for (auto& [name, entry] : entries_) {
    switch (entry.type) {
      case MetricType::kCounter:
        entry.counter->Reset();
        break;
      case MetricType::kGauge:
        entry.gauge->Reset();
        break;
      case MetricType::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

}  // namespace obs
}  // namespace adict
