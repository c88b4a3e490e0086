#pragma once
// Random graph generators.
//
// The paper evaluates on "random generated graphs … represent[ing] Process
// Networks generated via suitable tools". `random_process_network` is the
// workhorse: a layered, mostly-feed-forward topology with skewed node
// (resource) and edge (bandwidth) weights, which is the structure PPN
// derivation tools emit for streaming kernels. The classic generators
// (G(n,m), geometric, preferential attachment) feed the scaling studies and
// the test suite.

#include <cstdint>

#include "graph/graph.hpp"
#include "support/prng.hpp"

namespace ppnpart::graph {

struct WeightRange {
  Weight lo = 1;
  Weight hi = 1;
};

/// Uniform random simple graph with exactly `m` edges (m capped at n(n-1)/2).
Graph erdos_renyi_gnm(NodeId n, std::uint64_t m, support::Rng& rng,
                      WeightRange node_w = {1, 1}, WeightRange edge_w = {1, 1});

/// Nodes on the unit square, edge when distance <= radius.
Graph random_geometric(NodeId n, double radius, support::Rng& rng,
                       WeightRange node_w = {1, 1},
                       WeightRange edge_w = {1, 1});

/// Barabási–Albert-style preferential attachment; each new node attaches to
/// `attach` existing nodes. Produces the heavy-tailed degree distributions
/// that stress matching heuristics.
Graph preferential_attachment(NodeId n, std::uint32_t attach,
                              support::Rng& rng, WeightRange node_w = {1, 1},
                              WeightRange edge_w = {1, 1});

struct ProcessNetworkParams {
  NodeId num_nodes = 64;
  /// Average out-degree of forward (pipeline) edges.
  double forward_degree = 2.0;
  /// Probability of a skip edge to a node >1 layer ahead.
  double skip_probability = 0.15;
  std::uint32_t layers = 8;
  WeightRange resource = {10, 80};   // R_p per process
  WeightRange bandwidth = {1, 12};   // sustained tokens/cycle per channel
  /// Fraction of "hub" nodes whose resource weight is scaled up ~3x —
  /// mirrors the mix of tiny glue processes and heavy compute kernels that
  /// PPN derivation produces.
  double hub_fraction = 0.1;
};

/// PN-shaped random graph; always connected (a pipeline spine is enforced).
Graph random_process_network(const ProcessNetworkParams& params,
                             support::Rng& rng);

/// Streamed variant of random_process_network for large instances (the
/// 8-thread GP speedup gate in tests/timing_gates_test.cpp builds its
/// 20k-node PN with it). Instead of accumulating a GraphBuilder edge list
/// that is later sorted and merged — whose peak footprint is several times
/// the finished CSR — it emits a deterministic per-node edge stream twice
/// (a degree-count pass, then a fill pass replaying the same Rng state) and
/// writes the CSR arrays directly, so peak memory is the finished graph
/// plus one cursor array.
///
/// Topology matches the layered PN shape: contiguous layer blocks, every
/// node keeps a "parent" channel into the previous layer (connectivity by
/// induction), extra channels reach back one layer or skip further with
/// `skip_probability`. Every edge is generated by its higher-id endpoint
/// with local dedup, so the adjacency is duplicate-free by construction
/// (validate() clean). Deterministic in (params, rng state) only.
Graph streamed_process_network(const ProcessNetworkParams& params,
                               support::Rng& rng);

/// Ring of cliques: `cliques` cliques of `clique_size` nodes joined in a
/// cycle by single edges — a worst case for naive matchings, a best case for
/// partitioners (the natural partition is obvious). Used by tests/benches.
Graph ring_of_cliques(std::uint32_t cliques, std::uint32_t clique_size,
                      Weight intra_weight = 10, Weight inter_weight = 1);

/// 2D grid graph (r x c), unit weights unless specified.
Graph grid2d(std::uint32_t rows, std::uint32_t cols,
             WeightRange node_w = {1, 1}, WeightRange edge_w = {1, 1},
             support::Rng* rng = nullptr);

}  // namespace ppnpart::graph
