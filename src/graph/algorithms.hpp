#pragma once
// Basic graph algorithms shared by the partitioners and the test suite.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ppnpart::graph {

/// Component id per node, ids dense in [0, count).
struct Components {
  std::vector<std::uint32_t> component_of;
  std::uint32_t count = 0;
};
Components connected_components(const Graph& g);

bool is_connected(const Graph& g);

/// Induced subgraph on `nodes` (need not be sorted; duplicates invalid).
/// `original_of[i]` gives the source node of new node i.
struct Subgraph {
  Graph graph;
  std::vector<NodeId> original_of;
};
Subgraph induced_subgraph(const Graph& g, const std::vector<NodeId>& nodes);

struct DegreeStats {
  std::uint32_t min_degree = 0;
  std::uint32_t max_degree = 0;
  double mean_degree = 0;
  Weight min_node_weight = 0;
  Weight max_node_weight = 0;
  Weight min_edge_weight = 0;
  Weight max_edge_weight = 0;
};
DegreeStats degree_stats(const Graph& g);

}  // namespace ppnpart::graph
