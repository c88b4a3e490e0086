#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace ppnpart::graph {
namespace {

Graph triangle() {
  GraphBuilder b(3);
  b.set_node_weight(0, 5);
  b.set_node_weight(1, 7);
  b.set_node_weight(2, 9);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 2, 3);
  b.add_edge(0, 2, 4);
  return b.build();
}

// ---------------------------------------------------------------- build ---

TEST(GraphBuilder, BasicCounts) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.total_node_weight(), 21);
  EXPECT_EQ(g.total_edge_weight(), 9);
  EXPECT_TRUE(g.validate().empty()) << g.validate();
}

TEST(GraphBuilder, MergesDuplicateEdges) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 3);
  b.add_edge(1, 0, 4);  // reverse orientation merges too
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge_weight_between(0, 1), 8);
  EXPECT_EQ(g.edge_weight_between(1, 0), 8);
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0, 5);
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, RejectsBadInput) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 5, 1), std::out_of_range);
  EXPECT_THROW(b.add_edge(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 1, -2), std::invalid_argument);
  EXPECT_THROW(b.set_node_weight(9, 1), std::out_of_range);
  EXPECT_THROW(b.set_node_weight(0, -1), std::invalid_argument);
}

TEST(GraphBuilder, AddNodesAndDefaults) {
  GraphBuilder b;
  EXPECT_EQ(b.add_node(), 0u);
  EXPECT_EQ(b.add_node(10), 1u);
  EXPECT_EQ(b.add_nodes(3), 2u);
  const Graph g = b.build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.node_weight(0), 1);
  EXPECT_EQ(g.node_weight(1), 10);
  EXPECT_EQ(g.node_weight(4), 1);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1);
  const Graph g1 = b.build();
  const Graph g2 = b.build();
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
}

TEST(Graph, AdjacencySortedAndSymmetric) {
  support::Rng rng(3);
  const Graph g = erdos_renyi_gnm(40, 120, rng, {1, 9}, {1, 9});
  EXPECT_TRUE(g.validate().empty()) << g.validate();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto nbrs = g.neighbors(u);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1], nbrs[i]);
    }
  }
}

TEST(Graph, EdgeWeightBetweenMissing) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_weight_between(0, 2), 0);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Graph, IncidentWeight) {
  const Graph g = triangle();
  EXPECT_EQ(g.incident_weight(0), 6);  // 2 + 4
  EXPECT_EQ(g.incident_weight(1), 5);  // 2 + 3
  EXPECT_EQ(g.incident_weight(2), 7);  // 3 + 4
}

TEST(Graph, MaxNodeWeight) {
  const Graph g = triangle();
  EXPECT_EQ(g.max_node_weight(), 9);
  EXPECT_EQ(Graph().max_node_weight(), 0);
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate().empty());
}

// ----------------------------------------------------------- algorithms ---

TEST(Algorithms, ConnectedComponents) {
  GraphBuilder b(5);
  b.add_edge(0, 1, 1);
  b.add_edge(2, 3, 1);
  const Graph g = b.build();
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.component_of[0], c.component_of[1]);
  EXPECT_EQ(c.component_of[2], c.component_of[3]);
  EXPECT_NE(c.component_of[0], c.component_of[2]);
  EXPECT_NE(c.component_of[4], c.component_of[0]);
  EXPECT_FALSE(is_connected(g));
}

TEST(Algorithms, IsConnectedOnTriangle) {
  EXPECT_TRUE(is_connected(triangle()));
  EXPECT_TRUE(is_connected(Graph()));
}

TEST(Algorithms, InducedSubgraph) {
  const Graph g = triangle();
  const Subgraph sub = induced_subgraph(g, {2, 0});
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
  EXPECT_EQ(sub.graph.node_weight(0), 9);  // original node 2
  EXPECT_EQ(sub.graph.node_weight(1), 5);  // original node 0
  EXPECT_EQ(sub.graph.edge_weight_between(0, 1), 4);
  EXPECT_EQ(sub.original_of[0], 2u);
}

TEST(Algorithms, InducedSubgraphRejectsDuplicates) {
  const Graph g = triangle();
  EXPECT_THROW(induced_subgraph(g, {0, 0}), std::invalid_argument);
  EXPECT_THROW(induced_subgraph(g, {9}), std::out_of_range);
}

TEST(Algorithms, DegreeStats) {
  const Graph g = triangle();
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.min_degree, 2u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 2.0);
  EXPECT_EQ(s.min_node_weight, 5);
  EXPECT_EQ(s.max_node_weight, 9);
  EXPECT_EQ(s.min_edge_weight, 2);
  EXPECT_EQ(s.max_edge_weight, 4);
}

TEST(Algorithms, DegreeStatsNoEdges) {
  GraphBuilder b(3);
  const DegreeStats s = degree_stats(b.build());
  EXPECT_EQ(s.max_degree, 0u);
  EXPECT_EQ(s.min_edge_weight, 0);
}

TEST(Graph, EdgeWeightBetweenBinarySearch) {
  // Hub with neighbours spread across the id range; the sorted-adjacency
  // binary search must find first/middle/last neighbours and reject the
  // gaps on both sides and in between.
  GraphBuilder b(9);
  b.add_edge(4, 0, 10);  // first neighbour of 4
  b.add_edge(4, 2, 20);
  b.add_edge(4, 5, 30);
  b.add_edge(4, 8, 40);  // last neighbour of 4
  const Graph g = b.build();

  // Present: first, middle, last — and symmetric lookups.
  EXPECT_EQ(g.edge_weight_between(4, 0), 10);
  EXPECT_EQ(g.edge_weight_between(4, 2), 20);
  EXPECT_EQ(g.edge_weight_between(4, 5), 30);
  EXPECT_EQ(g.edge_weight_between(4, 8), 40);
  EXPECT_EQ(g.edge_weight_between(0, 4), 10);
  EXPECT_EQ(g.edge_weight_between(8, 4), 40);

  // Absent: below the first, between entries, above the last, self.
  EXPECT_EQ(g.edge_weight_between(4, 1), 0);
  EXPECT_EQ(g.edge_weight_between(4, 3), 0);
  EXPECT_EQ(g.edge_weight_between(4, 6), 0);
  EXPECT_EQ(g.edge_weight_between(4, 7), 0);
  EXPECT_EQ(g.edge_weight_between(4, 4), 0);
  EXPECT_FALSE(g.has_edge(4, 6));
  EXPECT_TRUE(g.has_edge(4, 5));

  // Isolated endpoint: empty adjacency must not be searched out of range.
  EXPECT_EQ(g.edge_weight_between(1, 4), 0);
  EXPECT_EQ(g.edge_weight_between(1, 3), 0);
}

}  // namespace
}  // namespace ppnpart::graph
