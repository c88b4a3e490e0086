// Metrics registry: histogram bucketing and quantile estimation,
// get-or-create pointer stability, snapshot consistency (sorted, internally
// consistent under concurrent updates), counter lookup on a snapshot and
// the to_string format the CLI --metrics flag prints.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.hpp"

namespace ppnpart {
namespace {

using support::Histogram;
using support::MetricsRegistry;
using support::MetricsSnapshot;

TEST(Metrics, HistogramBucketsAndQuantiles) {
  Histogram h({1, 10, 100});
  h.observe(0.5);   // bucket <= 1
  h.observe(5);     // bucket <= 10
  h.observe(50);    // bucket <= 100
  h.observe(50);
  h.observe(1000);  // overflow

  const Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.bounds, (std::vector<double>{1, 10, 100}));
  ASSERT_EQ(snap.counts, (std::vector<std::uint64_t>{1, 1, 2, 1}));
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 5 + 50 + 50 + 1000);
  EXPECT_DOUBLE_EQ(snap.mean(), snap.sum / 5);

  // Quantiles are linear-in-bucket and monotone; the overflow bucket
  // reports the top bound (there is no upper edge to interpolate toward).
  EXPECT_LE(snap.quantile(0.1), 1.0);
  EXPECT_GT(snap.quantile(0.5), 1.0);
  EXPECT_LE(snap.quantile(0.5), 100.0);
  EXPECT_EQ(snap.quantile(1.0), 100.0);
  double prev = 0;
  for (double q = 0; q <= 1.0; q += 0.05) {
    const double v = snap.quantile(q);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
    prev = v;
  }
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_EQ(snap.quantile(-1), snap.quantile(0));
  EXPECT_EQ(snap.quantile(2), snap.quantile(1));
}

TEST(Metrics, HistogramEmptyBehaviour) {
  Histogram h({1, 2});
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().quantile(0.5), 0.0);
  EXPECT_EQ(h.snapshot().mean(), 0.0);
}

TEST(Metrics, HistogramDefaultBoundsAreTheLatencyBuckets) {
  // Empty bounds mean the shared microsecond latency scheme: ascending,
  // wide enough for a cache hit and a 10-second exact solve.
  const std::vector<double>& bounds = Histogram::latency_bounds_us();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1.0);
  EXPECT_EQ(bounds.back(), 10'000'000.0);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_LT(bounds[i - 1], bounds[i]);

  Histogram h({});
  EXPECT_EQ(h.snapshot().bounds, bounds);
}

TEST(Metrics, HistogramBoundsAreSortedAndDeduplicated) {
  Histogram h({100, 1, 100, 10});
  EXPECT_EQ(h.snapshot().bounds, (std::vector<double>{1, 10, 100}));
}

TEST(Metrics, RegistryGetOrCreateIsPointerStable) {
  MetricsRegistry reg;
  Histogram& h1 = reg.histogram("lat", {1, 2, 3});
  EXPECT_NE(&h1, &reg.histogram("other"));
  // Creation-time bounds win; a later lookup's bounds are ignored.
  Histogram& h2 = reg.histogram("lat", {99});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.snapshot().bounds, (std::vector<double>{1, 2, 3}));
}

TEST(Metrics, SnapshotIsNameSortedAndQueriable) {
  MetricsRegistry reg;
  reg.histogram("lat.zeta").observe(42);
  reg.histogram("lat.alpha");

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "lat.alpha");
  EXPECT_EQ(snap.histograms[1].name, "lat.zeta");
  ASSERT_NE(snap.find_histogram("lat.zeta"), nullptr);
  EXPECT_EQ(snap.find_histogram("lat.zeta")->hist.count, 1u);
  EXPECT_EQ(snap.find_histogram("missing"), nullptr);

  // Counters are written into a snapshot by its owner (the engine's
  // stats()); counter_or reads them back.
  MetricsSnapshot owned;
  owned.counters = {{"c.alpha", 1}, {"c.zeta", 3}};
  EXPECT_EQ(owned.counter_or("c.zeta"), 3u);
  EXPECT_EQ(owned.counter_or("missing", 77), 77u);
}

TEST(Metrics, ToStringMatchesTheCliFormat) {
  MetricsRegistry reg;
  reg.histogram("engine.job.time_us").observe(10);
  MetricsSnapshot snap = reg.snapshot();
  snap.counters = {{"engine.jobs", 3}};
  const std::string text = snap.to_string();
  EXPECT_NE(text.find("counter engine.jobs 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram engine.job.time_us count=1"),
            std::string::npos)
      << text;
}

TEST(Metrics, ConcurrentUpdatesAreExactAndSnapshotsConsistent) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&reg, w] {
      // Hot-path idiom: resolve once, then relaxed atomics only.
      Histogram& h = reg.histogram("lat", {10, 100, 1000});
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.observe(static_cast<double>((w * 37 + i) % 2000));
    });
  }
  // A reader races the writers: every snapshot must be internally
  // consistent (count never exceeds the bucket total it ships with).
  std::thread reader([&reg] {
    for (int i = 0; i < 200; ++i) {
      const MetricsSnapshot snap = reg.snapshot();
      const auto* lat = snap.find_histogram("lat");
      if (lat == nullptr) continue;
      std::uint64_t bucket_total = 0;
      for (const std::uint64_t c : lat->hist.counts) bucket_total += c;
      EXPECT_LE(lat->hist.count, bucket_total);
    }
  });
  for (std::thread& t : workers) t.join();
  reader.join();

  const MetricsSnapshot snap = reg.snapshot();
  const auto* lat = snap.find_histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : lat->hist.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

}  // namespace
}  // namespace ppnpart
