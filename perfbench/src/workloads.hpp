#pragma once
// The three workloads and the layer probes they share.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "partition/gp.hpp"
#include "partition/phase_profile.hpp"

namespace perfbench {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs that finish in seconds, for the benchmark's own tests.
  bool toy = false;
};

/// Per-layer values by metric name; names missing here are reported as 0
/// (the layer does not run on that workload, see layers.json).
using LayerValues = std::map<std::string, double>;

/// Appends every per-layer metric, in BENCHMARK.json's order, to `out`,
/// taking values from `values`.
void emit_layer_metrics(const LayerValues& values, Result& out);

/// Per-key median over several runs' values.
LayerValues median_of(const std::vector<LayerValues>& runs);

/// The partition.phase.*, cycles, levels, coarsest_nodes and ws_growths
/// metrics of one GP run: its PhaseProfile, its cycle-0 hierarchy from
/// GpResult::trace, and the workspace growths it caused.
LayerValues gp_run_layers(const ppnpart::part::GpResult& r,
                          const ppnpart::part::PhaseProfile& phases,
                          std::uint64_t ws_growths);

/// `pn100k_serial` (threads = 1) and `pn100k_parallel` (threads > 1).
Result run_pn(const Options& opt, std::uint32_t threads, SpanRecorder& rec);

/// `service_mix`: the open-loop engine traffic mix.
Result run_service_mix(const Options& opt, double rate_rps,
                       SpanRecorder& rec);

/// Requests per second `service_mix` offers (full and toy size).
double service_rate(bool toy);

/// Reproduces the known facts of the tracked 100k instance; prints each
/// check and returns the number that failed.
int self_check();

// ----------------------------------------------------------- probes

/// An instance with its exact_min_cut optimum under its constraints.
struct ExactRef {
  Instance inst;
  Weight optimum = 0;
};
/// The fixed 12-node K=4 family (slack 1.5, the first `count` generator
/// seeds from 5000 up that admit a feasible assignment) with its optima:
/// the exact-checkable class of every workload. The slack leaves room for
/// service_mix's one-edit drifts of these graphs, which keep the original
/// constraints.
std::vector<ExactRef> exact_family(int count);

/// Rebuilds a hierarchy of `g` with the public matching and contraction
/// kernels, then walks it coarsest to finest with greedy growth, FM, swap
/// and LP — one call at a time, each inside a span — and fills the kernel
/// metrics. `threads` > 1 uses the parallel matching and LP-then-FM levels,
/// as the parallel path does.
void probe_kernels(const Graph& g, const ppnpart::part::PartitionRequest& req,
                   std::uint32_t threads, SpanRecorder& rec,
                   LayerValues& out);

/// One near-twin pair: a served base graph, its answer, and an arrival.
struct TwinPair {
  const Graph* base = nullptr;
  const Graph* arriving = nullptr;
  const ppnpart::part::Partition* prev = nullptr;
  ppnpart::part::PartitionRequest request;
};

/// Times support::sketch_of, graph::diff and
/// IncrementalPartitioner::try_repartition_diffed on each pair (median per
/// call into support.sketch_s, graph.diff_s, partition.warm_s).
void probe_warm_start(const std::vector<TwinPair>& pairs, SpanRecorder& rec,
                      LayerValues& out);

}  // namespace perfbench
