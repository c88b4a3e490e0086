#pragma once
// Shared helpers for the bench harnesses: instance generation and aligned
// table printing.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "partition/gp.hpp"
#include "partition/metislike.hpp"
#include "partition/workspace.hpp"
#include "support/timer.hpp"

namespace ppnpart::bench {

/// The PR-3 multilevel hot-path workload: one PN-shaped graph at `nodes`
/// with the scaling-study constraint scheme (K=8). bench_scaling's
/// throughput table and the ctest gates on this workload (10k nodes in
/// golden_determinism_test; 800 in gp_test, engine_test, similarity_test
/// and timing_gates_test) all build it here, so they cannot drift apart.
inline graph::Graph multilevel_workload_graph(graph::NodeId nodes) {
  graph::ProcessNetworkParams params;
  params.num_nodes = nodes;
  params.layers = std::max<std::uint32_t>(8, nodes / 64);
  support::Rng rng(123 + nodes);
  return graph::random_process_network(params, rng);
}

inline part::PartitionRequest multilevel_workload_request(
    const graph::Graph& g) {
  part::PartitionRequest request;
  request.k = 8;
  request.seed = 99;
  request.constraints.rmax =
      static_cast<graph::Weight>(1.15 * g.total_node_weight() / 8);
  request.constraints.bmax =
      static_cast<graph::Weight>(1.3 * g.total_edge_weight() / 28.0 / 2.0);
  return request;
}

/// Warm-then-time harness: one untimed warming run, `reps` timed runs, and
/// the workspace growth delta across the timed phase (0 == allocation-free
/// steady state).
struct MultilevelCase {
  double seconds = 0;
  std::uint64_t ws_growths = 0;
};

inline MultilevelCase run_multilevel_case(part::Partitioner& p,
                                          const graph::Graph& g,
                                          part::Workspace& ws, int reps) {
  part::PartitionRequest request = multilevel_workload_request(g);
  request.workspace = &ws;
  MultilevelCase result;
  p.run(g, request);
  const std::uint64_t growths_before = ws.stats().growths;
  support::Timer timer;
  for (int i = 0; i < reps; ++i) p.run(g, request);
  result.seconds = timer.seconds();
  result.ws_growths = ws.stats().growths - growths_before;
  return result;
}

/// A random small-edit script against `g` — the evolving-network workload
/// of the incremental-repartitioning scenario (PR 4). Roughly
/// `edit_fraction * num_nodes` ops: mostly channel reweights, some channel
/// adds/removes, and (when `node_ops`) occasional process adds/removals.
/// Deterministic in `rng`; bench_engine and the repartition-chain gate of
/// engine_test drive exactly this generator.
inline graph::GraphDelta random_evolution_delta(const graph::Graph& g,
                                                double edit_fraction,
                                                support::Rng& rng,
                                                bool node_ops = true) {
  graph::GraphDelta delta(g);
  const graph::NodeId n = g.num_nodes();
  if (n == 0) return delta;
  const auto ops = static_cast<std::size_t>(
      std::max(1.0, edit_fraction * static_cast<double>(n)));
  std::vector<graph::NodeId> live;  // base nodes not yet removed
  live.reserve(n);
  for (graph::NodeId u = 0; u < n; ++u) live.push_back(u);
  for (std::size_t i = 0; i < ops && live.size() >= 2; ++i) {
    const std::size_t roll = rng.uniform_index(100);
    const graph::NodeId u = live[rng.uniform_index(live.size())];
    if (roll < 60) {  // reweight a channel of u (if it has one alive)
      if (g.degree(u) != 0) {
        const graph::NodeId v = g.neighbors(u)[rng.uniform_index(g.degree(u))];
        if (std::find(live.begin(), live.end(), v) != live.end()) {
          delta.set_edge_weight(
              u, v, 1 + static_cast<graph::Weight>(rng.uniform_index(12)));
          continue;
        }
      }
      // u lost its channels to removals: fall through to adding one.
    }
    if (roll < 80 || !node_ops) {  // add a channel
      const graph::NodeId v = live[rng.uniform_index(live.size())];
      if (u != v)
        delta.add_edge(u, v,
                       1 + static_cast<graph::Weight>(rng.uniform_index(6)));
      continue;
    }
    if (roll < 90) {  // add a process wired to two live ones
      const graph::NodeId fresh = delta.add_node(
          10 + static_cast<graph::Weight>(rng.uniform_index(70)));
      delta.add_edge(fresh, live[rng.uniform_index(live.size())],
                     1 + static_cast<graph::Weight>(rng.uniform_index(6)));
      delta.add_edge(fresh, live[rng.uniform_index(live.size())],
                     1 + static_cast<graph::Weight>(rng.uniform_index(6)));
      continue;
    }
    // retire a process (strands its channels)
    const std::size_t idx = rng.uniform_index(live.size());
    delta.remove_node(live[idx]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  return delta;
}

/// A near-identical ARRIVAL: the evolving-network edit generator applied and
/// materialized as a fresh plain-CSR graph, the shape a service receives
/// when callers edit their networks out-of-band and hand over the result
/// with no delta attached. ~`divergence * num_nodes` edits; node ids stay
/// stable (edge-only edits by default), which is what the similarity
/// admission path's stable-id diff exploits. bench_engine section 6, the
/// similarity-chain gate of similarity_test and the near-twin burst of
/// timing_gates_test drive exactly this generator.
inline graph::Graph near_identical_arrival(const graph::Graph& g,
                                           double divergence,
                                           support::Rng& rng,
                                           bool node_ops = false) {
  return random_evolution_delta(g, divergence, rng, node_ops).apply(g).graph;
}

/// A reproducible family of PN-shaped instances with constraints scaled to
/// a tightness factor: rmax = resource_slack * W/k, bmax = bandwidth_slack *
/// (total edge weight) / (k choose 2)  — slack 1.0 is the tightest sensible
/// setting, larger is looser.
struct InstanceFamily {
  graph::NodeId nodes = 200;
  part::PartId k = 4;
  double resource_slack = 1.3;
  double bandwidth_slack = 1.3;
  std::uint64_t base_seed = 1000;

  struct Instance {
    graph::Graph graph;
    part::PartitionRequest request;
  };

  Instance make(int index) const {
    graph::ProcessNetworkParams params;
    params.num_nodes = nodes;
    params.layers = std::max<std::uint32_t>(4, nodes / 16);
    support::Rng rng(base_seed + static_cast<std::uint64_t>(index));
    Instance inst;
    inst.graph = graph::random_process_network(params, rng);
    inst.request.k = k;
    inst.request.seed = base_seed * 7 + static_cast<std::uint64_t>(index);
    const auto total_w = static_cast<double>(inst.graph.total_node_weight());
    const auto total_e = static_cast<double>(inst.graph.total_edge_weight());
    const double pairs = k * (k - 1) / 2.0;
    inst.request.constraints.rmax = std::max<graph::Weight>(
        static_cast<graph::Weight>(resource_slack * total_w / k),
        inst.graph.max_node_weight());
    inst.request.constraints.bmax =
        std::max<graph::Weight>(1,
                                static_cast<graph::Weight>(
                                    bandwidth_slack * total_e / pairs / 2.0));
    return inst;
  }
};

/// Aggregate of one algorithm over a family.
struct RunSummary {
  int feasible = 0;
  int total = 0;
  double cut_sum = 0;
  double seconds_sum = 0;
  double max_bw_sum = 0;
  double max_load_sum = 0;

  void add(const part::PartitionResult& r) {
    ++total;
    feasible += r.feasible ? 1 : 0;
    cut_sum += static_cast<double>(r.metrics.total_cut);
    seconds_sum += r.seconds;
    max_bw_sum += static_cast<double>(r.metrics.max_pairwise_cut);
    max_load_sum += static_cast<double>(r.metrics.max_load);
  }
  double feasible_rate() const {
    return total != 0 ? static_cast<double>(feasible) / total : 0;
  }
  double mean_cut() const { return total != 0 ? cut_sum / total : 0; }
  double mean_seconds() const { return total != 0 ? seconds_sum / total : 0; }
};

inline void print_header(const char* title, const char* columns) {
  std::printf("=== %s ===\n%s\n", title, columns);
}

}  // namespace ppnpart::bench
