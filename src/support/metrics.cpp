#include "support/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace ppnpart::support {

const std::vector<double>& Histogram::latency_bounds_us() {
  static const std::vector<double> bounds = {
      1,       2,       5,        10,       20,       50,       100,
      200,     500,     1000,     2000,     5000,     10000,    20000,
      50000,   100000,  200000,   500000,   1000000,  2000000,  5000000,
      10000000};
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = latency_bounds_us();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // == size() → overflow
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add(double) needs C++20 library support; CAS-loop keeps us portable.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  // Concurrent observes can make the total drift from the bucket sum; clamp
  // to the buckets actually copied so the snapshot is internally consistent.
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : snap.counts) bucket_total += c;
  snap.count = std::min(snap.count, bucket_total);
  return snap;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t c = counts[i];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= target) {
      if (i == bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(c);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    seen += c;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  for (const CounterEntry& c : counters)
    if (c.name == name) return c.value;
  return fallback;
}

const MetricsSnapshot::HistogramEntry* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const HistogramEntry& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

std::string MetricsSnapshot::to_string() const {
  std::ostringstream out;
  for (const CounterEntry& c : counters)
    out << "counter " << c.name << " " << c.value << "\n";
  for (const HistogramEntry& h : histograms) {
    out << "histogram " << h.name << " count=" << h.hist.count
        << " mean=" << h.hist.mean() << " p50=" << h.hist.quantile(0.5)
        << " p95=" << h.hist.quantile(0.95)
        << " p99=" << h.hist.quantile(0.99) << "\n";
  }
  return out.str();
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked: cached Histogram& references may be used from destructors of
  // other statics during shutdown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    snap.histograms.push_back({name, h->snapshot()});
  return snap;
}

}  // namespace ppnpart::support
