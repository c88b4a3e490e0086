// Property tests for the direct CSR contraction (graph::contract_csr): the
// hot path must be bit-identical to the GraphBuilder reference
// (contract_via_builder) — same sorted adjacency, same merged weights, same
// node weights — over randomized graphs and matchings, including the
// degenerate shapes (empty matchings, isolated nodes, stars).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/contract.hpp"
#include "graph/generators.hpp"
#include "partition/coarsen.hpp"
#include "partition/matching.hpp"
#include "partition/workspace.hpp"

namespace {

using namespace ppnpart;
using part::Matching;

void expect_graphs_identical(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.xadj(), b.xadj());
  EXPECT_EQ(a.adj(), b.adj());
  EXPECT_EQ(a.raw_edge_weights(), b.raw_edge_weights());
  EXPECT_EQ(a.node_weights(), b.node_weights());
}

/// Runs both contraction paths on (g, m) and checks bit-identity plus CSR
/// invariants. The same workspace is reused across calls on purpose: stale
/// scratch contents must never leak into a later contraction.
void check_matching(const graph::Graph& g, const Matching& m,
                    part::Workspace& ws) {
  ASSERT_EQ(part::validate_matching(g, m), "");
  const part::CoarseLevel direct = part::contract(g, m, ws);
  const part::CoarseLevel reference = part::contract_via_builder(g, m);
  EXPECT_EQ(direct.fine_to_coarse, reference.fine_to_coarse);
  expect_graphs_identical(direct.graph, reference.graph);
  EXPECT_EQ(direct.graph.validate(), "");
  // Contraction preserves total node weight; edge weight only shrinks by
  // what the matching hid.
  EXPECT_EQ(direct.graph.total_node_weight(), g.total_node_weight());
  EXPECT_EQ(direct.graph.total_edge_weight(),
            g.total_edge_weight() - part::matched_edge_weight(g, m));
}

TEST(ContractProperty, RandomGraphsAndMatchings) {
  part::Workspace ws;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Rng rng(seed);
    const graph::Graph g = graph::erdos_renyi_gnm(
        60 + static_cast<graph::NodeId>(seed * 13), 150 + seed * 31, rng,
        {1, 9}, {1, 7});
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      support::Rng mrng = rng.derive(trial);
      check_matching(g, part::random_maximal_matching(g, mrng), ws);
      check_matching(g, part::heavy_edge_matching(g, mrng), ws);
      check_matching(g, part::kmeans_matching(g, mrng), ws);
    }
  }
}

TEST(ContractProperty, ProcessNetworkShapes) {
  part::Workspace ws;
  graph::ProcessNetworkParams params;
  params.num_nodes = 300;
  support::Rng rng(77);
  const graph::Graph g = graph::random_process_network(params, rng);
  check_matching(g, part::heavy_edge_matching(g, rng), ws);
}

TEST(ContractProperty, EmptyMatchingIsIdentity) {
  part::Workspace ws;
  support::Rng rng(5);
  const graph::Graph g = graph::erdos_renyi_gnm(40, 80, rng, {1, 5}, {1, 5});
  Matching identity(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) identity[u] = u;
  check_matching(g, identity, ws);
  const part::CoarseLevel level = part::contract(g, identity, ws);
  expect_graphs_identical(level.graph, g);
}

TEST(ContractProperty, IsolatedNodesSurvive) {
  // Path 0-1-2 plus two isolated nodes; match the path pair only.
  graph::GraphBuilder b(5);
  b.add_edge(0, 1, 4);
  b.add_edge(1, 2, 2);
  b.set_node_weight(3, 7);
  b.set_node_weight(4, 9);
  const graph::Graph g = b.build();
  Matching m = {1, 0, 2, 3, 4};
  part::Workspace ws;
  check_matching(g, m, ws);
  const part::CoarseLevel level = part::contract(g, m, ws);
  ASSERT_EQ(level.graph.num_nodes(), 4u);
  // Coarse node 0 = {0,1}; nodes 3/4 keep their weights and stay isolated.
  EXPECT_EQ(level.graph.node_weight(0), 2);
  EXPECT_EQ(level.graph.node_weight(2), 7);
  EXPECT_EQ(level.graph.node_weight(3), 9);
  EXPECT_EQ(level.graph.degree(2), 0u);
  EXPECT_EQ(level.graph.degree(3), 0u);
}

TEST(ContractProperty, StarGraph) {
  // Star: hub 0 with 8 leaves; matching hides one spoke, the rest of the
  // spokes become parallel edges folded onto the merged hub.
  const graph::NodeId leaves = 8;
  graph::GraphBuilder b(leaves + 1);
  for (graph::NodeId leaf = 1; leaf <= leaves; ++leaf) {
    b.add_edge(0, leaf, leaf);  // distinct weights
  }
  const graph::Graph g = b.build();
  Matching m(leaves + 1);
  for (graph::NodeId u = 0; u <= leaves; ++u) m[u] = u;
  m[0] = 3;
  m[3] = 0;
  part::Workspace ws;
  check_matching(g, m, ws);
  const part::CoarseLevel level = part::contract(g, m, ws);
  // Hub {0,3} keeps edges to the 7 remaining leaves with original weights.
  EXPECT_EQ(level.graph.num_nodes(), leaves);
  EXPECT_EQ(level.graph.degree(level.fine_to_coarse[0]), leaves - 1);
}

TEST(ContractProperty, ScratchReuseAcrossShrinkingLevels) {
  // Simulate the multilevel pattern: contract repeatedly with one workspace
  // (graph shrinks each level) and cross-check against the builder path at
  // every level.
  part::Workspace ws;
  support::Rng rng(99);
  graph::Graph g = graph::erdos_renyi_gnm(500, 1500, rng, {1, 20}, {1, 10});
  for (int level = 0; level < 6 && g.num_nodes() > 4; ++level) {
    support::Rng mrng = rng.derive(level);
    const Matching m = part::heavy_edge_matching(g, mrng);
    const part::CoarseLevel direct = part::contract(g, m, ws);
    const part::CoarseLevel reference = part::contract_via_builder(g, m);
    expect_graphs_identical(direct.graph, reference.graph);
    g = direct.graph;
  }
}

/// GraphBuilder reference for an arbitrary surjective fine-to-coarse map.
graph::Graph builder_contraction(const graph::Graph& g,
                                 const std::vector<graph::NodeId>& map,
                                 graph::NodeId num_coarse) {
  graph::GraphBuilder b(num_coarse);
  std::vector<graph::Weight> node_w(num_coarse, 0);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    node_w[map[u]] += g.node_weight(u);
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i] && map[u] != map[nbrs[i]])
        b.add_edge(map[u], map[nbrs[i]], wgts[i]);
    }
  }
  for (graph::NodeId c = 0; c < num_coarse; ++c)
    b.set_node_weight(c, node_w[c]);
  return b.build();
}

TEST(ContractProperty, OneScratchAcrossGrowingAndShrinkingCoarseCounts) {
  // contract_csr keeps one position array per chunk over the coarse nodes
  // and resets each entry when its row is done. One scratch serves coarse
  // counts that grow and shrink, at 1 to 7 chunks (row ranges built
  // concurrently into their own regions), with dense graphs whose rows pass
  // 24 entries (the sort path) next to sparse ones (the insertion path): an
  // entry left set by an earlier row or call, or a region that overlaps its
  // neighbour, would misplace a weight in a later row. A second round over
  // the same inputs grows no buffer.
  struct Case {
    graph::NodeId n;
    std::uint64_t m;
    graph::NodeId coarse;
  };
  const Case cases[] = {{400, 4800, 150}, {120, 240, 100}, {600, 7200, 250},
                        {90, 180, 60},    {500, 3000, 40}, {300, 600, 280}};
  support::AllocStats stats;
  graph::ContractScratch scratch;
  scratch.stats = &stats;
  support::Rng rng(2024);
  std::vector<graph::Graph> graphs;
  std::vector<std::vector<graph::NodeId>> maps;
  for (const Case& cs : cases) {
    graphs.push_back(graph::erdos_renyi_gnm(cs.n, cs.m, rng, {1, 9}, {1, 9}));
    std::vector<graph::NodeId>& map = maps.emplace_back(cs.n);
    for (graph::NodeId u = 0; u < cs.n; ++u) {
      map[u] = u < cs.coarse ? u
                             : static_cast<graph::NodeId>(
                                   rng.uniform_index(cs.coarse));
    }
  }
  std::uint32_t longest_row = 0;
  std::uint64_t first_round_growths = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      const graph::Graph reference =
          builder_contraction(graphs[i], maps[i], cases[i].coarse);
      for (const std::uint32_t chunks : {1u, 2u, 3u, 4u, 7u}) {
        const graph::Graph direct = graph::contract_csr(
            graphs[i], maps[i], cases[i].coarse, scratch, chunks);
        expect_graphs_identical(direct, reference);
        EXPECT_EQ(direct.validate(), "") << "chunks " << chunks;
        for (graph::NodeId c = 0; c < cases[i].coarse; ++c)
          longest_row = std::max(longest_row, direct.degree(c));
      }
    }
    if (round == 0) first_round_growths = stats.growths;
  }
  EXPECT_GT(longest_row, 24u);
  EXPECT_EQ(stats.growths, first_round_growths);
}

TEST(ContractProperty, RejectsBadInput) {
  support::Rng rng(1);
  const graph::Graph g = graph::erdos_renyi_gnm(10, 20, rng);
  part::Workspace ws;
  Matching wrong_size(5, 0);
  EXPECT_THROW(part::contract(g, wrong_size, ws), std::invalid_argument);
}

}  // namespace
