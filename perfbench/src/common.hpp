#pragma once
// Shared pieces of the benchmark: clocks and order statistics, the result
// record printed as the last stdout line, the benchmark's own span recorder
// (written as Chrome trace JSON), answer checking by independent
// recomputation, and the workload inputs pinned by the benchmark.
//
// Everything here calls only the library's public headers; nothing inside
// src/ is instrumented for the benchmark.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"
#include "support/prng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using ppnpart::graph::Graph;
using ppnpart::graph::NodeId;
using ppnpart::graph::Weight;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// Peak resident set (VmHWM) in MiB; 0 where /proc is unavailable.
double peak_rss_mb();

/// One named metric of the final result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The last line of standard output: correct / attempted / failed / metrics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  std::string to_json() const;
};

std::string json_escape(const std::string& s);
std::string json_number(double v);

/// The benchmark's own spans: name, start, end, parent span, request id.
/// Kept in memory, written once as Chrome trace JSON. Per-layer self times
/// are derived from here: a span's duration minus the part of it covered by
/// its child spans.
class SpanRecorder {
 public:
  static constexpr std::int64_t kNone = -1;

  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = kNone;
    std::int64_t request = kNone;
    std::string args;  // pre-rendered JSON object body, may be empty
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a completed span; returns its index (kNone when disabled).
  std::int64_t record(std::string name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent = kNone,
                      std::int64_t request = kNone, std::string args = {});
  /// Opens a span whose end is filled in by close().
  std::int64_t open(std::string name, std::int64_t parent = kNone,
                    std::int64_t request = kNone);
  void close(std::int64_t index, std::string args = {},
             Clock::time_point end = Clock::now());

  /// Self time in seconds of every span called `name`, in record order.
  std::vector<double> self_seconds(const std::string& name) const;
  /// Sum of self_seconds(name).
  double total_self_seconds(const std::string& name) const;

  /// Writes {"traceEvents": [...], "metadata": {...}}; `metadata_json` is
  /// a rendered JSON object. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path,
                    const std::string& metadata_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span around one public call.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const char* name,
            std::int64_t parent = SpanRecorder::kNone,
            std::int64_t request = SpanRecorder::kNone)
      : rec_(rec), index_(rec.open(name, parent, request)) {}
  ~SpanScope() { rec_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
  std::int64_t index_;
};

/// Outcome of checking one answer against its own graph and request.
struct AnswerCheck {
  bool valid = false;
  std::string reason;  // empty when valid
  Weight total_cut = 0;
  bool feasible = false;
};

/// Recomputes loads, total cut, max load, max pairwise cut and feasibility
/// of `r.partition` from the graph's CSR arrays alone, and compares them to
/// what the answer claims (`r.metrics`, `r.feasible`). The partition must be
/// complete, sized to `g`, and use exactly `request.k` parts.
AnswerCheck check_answer(const Graph& g,
                         const ppnpart::part::PartitionRequest& request,
                         const ppnpart::part::PartitionResult& r);

// ------------------------------------------------------------- inputs
// The benchmark pins its own copies of the tracked workload definitions, so
// its inputs cannot drift when the library's bench harnesses change.

/// The tracked multilevel workload graph: a PN-shaped random_process_network
/// of `nodes` nodes (layers = max(8, nodes / 64), generator seed 123 + nodes).
Graph tracked_pn_graph(NodeId nodes);

/// The tracked multilevel constraints: K=8, seed 99, Rmax = 1.15 W / 8,
/// Bmax = 1.3 E / 28 / 2.
ppnpart::part::PartitionRequest tracked_pn_request(const Graph& g);

/// A PN-shaped instance with Rmax = slack * W / k and Bmax = slack * E /
/// (k choose 2) / 2 (the InstanceFamily scheme of the bench harnesses).
struct Instance {
  Graph graph;
  ppnpart::part::PartitionRequest request;
};
Instance family_instance(NodeId nodes, ppnpart::part::PartId k,
                         std::uint64_t seed, double slack);

/// A near-identical arrival: ~`divergence * n` edge edits (reweights and
/// channel additions) applied to `g`, node ids stable — the shape of a
/// caller who edited its network out of band and sends the result.
Graph near_identical_arrival(const Graph& g, double divergence,
                             ppnpart::support::Rng& rng);

}  // namespace perfbench
