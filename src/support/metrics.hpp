#pragma once
// Metrics registry — named fixed-bucket histograms with a consistent
// snapshot, the quantitative half of the observability layer (traces answer
// "where did this job's time go", metrics answer "what does the fleet look
// like over thousands of jobs").
//
// Design: registration (name -> histogram) is mutex-protected and happens
// once per name; the returned references are pointer-stable for the
// registry lifetime, so hot paths cache them and every observation is a few
// relaxed atomics — no locks, no allocation, no string hashing per event.
// snapshot() walks the registry under the mutex and reads each histogram's
// atomics in one pass, yielding a name-sorted, self-consistent view.
//
// The registry holds only histograms. A MetricsSnapshot also carries
// counters, but those are written by whoever owns the counts: the engine
// copies its ledger rows in under its own lock (Engine::stats()), so a
// counter can never disagree with the ledger it mirrors.
//
// There is one process-wide registry (MetricsRegistry::global()) for
// service-style use, but the type is instantiable so tests and embedded
// engines can keep private, isolated registries (EngineOptions::metrics).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ppnpart::support {

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds,
/// plus an implicit overflow bucket. Observation is two relaxed atomic adds
/// and a branch-free-ish bucket scan over a handful of doubles.
class Histogram {
 public:
  /// Default latency buckets in MICROSECONDS: 1us .. 10s, roughly 1-2-5 per
  /// decade — wide enough for both a 3us cache hit and a 30s exact solve.
  static const std::vector<double>& latency_bounds_us();

  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  struct Snapshot {
    std::vector<double> bounds;         // upper bounds, ascending
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0;

    double mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Linear-in-bucket quantile estimate (q in [0,1]); the overflow bucket
    /// reports its lower bound.
    double quantile(double q) const;
  };

  Snapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// A consistent, name-sorted view of a registry's histograms, plus the
/// counters its owner wrote in (MetricsRegistry::snapshot() leaves them
/// empty).
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    Histogram::Snapshot hist;
  };

  std::vector<CounterEntry> counters;
  std::vector<HistogramEntry> histograms;

  /// Value of a counter, or `fallback` when there is none by that name.
  std::uint64_t counter_or(std::string_view name,
                           std::uint64_t fallback = 0) const;
  const HistogramEntry* find_histogram(std::string_view name) const;

  /// Human-readable dump (one metric per line), the CLI --metrics format.
  std::string to_string() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry. Leaked (like ThreadPool::global()):
  /// histogram references handed out must stay valid through static
  /// destruction.
  static MetricsRegistry& global();

  /// Get-or-create by name. References stay valid for the registry
  /// lifetime; cache them on hot paths. `bounds` applies only at creation
  /// (empty = latency_bounds_us()); a later lookup of an existing histogram
  /// ignores it.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Every histogram, name-sorted; `counters` is left empty.
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  // node-based map: pointer stability for the values, sorted iteration for
  // the snapshot.
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ppnpart::support
