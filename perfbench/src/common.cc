// Statistics, digests, peak RSS and the span recorder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

Slice MergedSlice(const std::vector<SliceRecorder>& recorders, int index) {
  Slice merged;
  for (const SliceRecorder& recorder : recorders) {
    const Slice& slice = recorder.slices[static_cast<size_t>(index)];
    merged.ok += slice.ok;
    merged.failed += slice.failed;
    merged.kept.insert(merged.kept.end(), slice.kept.begin(), slice.kept.end());
  }
  return merged;
}

ReadSummary Summarize(const std::vector<SliceRecorder>& recorders,
                      double slice_seconds) {
  ReadSummary summary;
  if (recorders.empty() || slice_seconds <= 0) return summary;
  std::vector<double> qps, p50, p99;
  summary.min_slice_samples = UINT64_MAX;
  summary.min_beyond_p99 = UINT64_MAX;
  for (int index = 0; index < kSlices; ++index) {
    const Slice slice = MergedSlice(recorders, index);
    Latencies ms = slice.kept;
    std::sort(ms.begin(), ms.end());
    const uint64_t n = ms.size();
    const auto rank = [&](double q) {
      return n == 0 ? 0
                    : static_cast<uint64_t>(std::llround(q * static_cast<double>(n - 1)));
    };
    // Failed reads sort last; a percentile on one reads as the slice length.
    const auto at = [&](double q) {
      const double v = n == 0 ? 0 : ms[rank(q)];
      return v < kFailedMs ? v : slice_seconds * 1e3;
    };
    qps.push_back(static_cast<double>(slice.ok) / slice_seconds);
    p50.push_back(at(0.50));
    p99.push_back(at(0.99));
    summary.samples += slice.ok + slice.failed;
    summary.min_slice_samples = std::min(summary.min_slice_samples, n);
    summary.min_beyond_p99 =
        std::min(summary.min_beyond_p99, n == 0 ? 0 : n - 1 - rank(0.99));
  }
  summary.qps = Median(qps);
  summary.p50_ms = Median(p50);
  summary.p99_ms = Median(p99);
  return summary;
}

uint64_t ResultDigest(const adict::QueryResult& result) {
  const std::vector<uint8_t> bytes = adict::EncodeQueryResult(result);
  return adict::Fnv1a64(bytes.data(), bytes.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// ---------------------------------------------------------------- spans

void SpanBuffer::Open(const char* name, uint64_t id) {
  const int32_t parent = stack_.empty() ? -1 : stack_.back().record;
  int32_t record = -1;
  const uint64_t start = NowNs();
  if (records_.size() < records_.capacity()) {
    record = static_cast<int32_t>(records_.size());
    records_.push_back({name, id, start, 0, parent});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, start, 0, record});
}

void SpanBuffer::Close() {
  const uint64_t end = NowNs();
  const OpenSpan span = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end - span.start_ns;
  if (span.record >= 0) records_[static_cast<size_t>(span.record)].end_ns = end;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  auto it = std::find_if(totals_.begin(), totals_.end(),
                         [&](const SpanTotals& t) { return t.name == span.name; });
  if (it == totals_.end()) {
    totals_.push_back({span.name, 0, 0, 0});
    it = totals_.end() - 1;
  }
  ++it->count;
  it->total_ns += duration;
  it->self_ns += duration - std::min(duration, span.child_ns);
}

SpanBuffer* SpanCollector::NewThread() {
  // Enough for a few seconds of a closed loop per thread; totals keep
  // counting past it.
  constexpr size_t kSpansPerThread = 1u << 14;
  buffers_.push_back(std::make_unique<SpanBuffer>(kSpansPerThread));
  return buffers_.back().get();
}

bool SpanCollector::WriteFile(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<SpanRecord>& records = buffers_[t]->records();
    for (size_t i = 0; i < records.size(); ++i) {
      const SpanRecord& r = records[i];
      if (r.end_ns == 0) continue;  // still open when the window ended
      std::fprintf(out,
                   "{\"thread\":%zu,\"span\":%zu,\"parent\":%d,\"id\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   t, i, r.parent, static_cast<unsigned long long>(r.id),
                   r.name, static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

std::vector<SpanTotals> SpanCollector::Totals() const {
  std::vector<SpanTotals> merged;
  for (const auto& buffer : buffers_) {
    for (const SpanTotals& t : buffer->totals()) {
      auto it = std::find_if(merged.begin(), merged.end(),
                             [&](const SpanTotals& m) {
                               return std::strcmp(m.name, t.name) == 0;
                             });
      if (it == merged.end()) {
        merged.push_back(t);
      } else {
        it->count += t.count;
        it->total_ns += t.total_ns;
        it->self_ns += t.self_ns;
      }
    }
  }
  return merged;
}

uint64_t SpanCollector::dropped() const {
  uint64_t dropped = 0;
  for (const auto& buffer : buffers_) dropped += buffer->dropped();
  return dropped;
}

}  // namespace perfbench
