#include "graph/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace ppnpart::graph {

Components connected_components(const Graph& g) {
  Components out;
  out.component_of.assign(g.num_nodes(), std::numeric_limits<std::uint32_t>::max());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (out.component_of[s] != std::numeric_limits<std::uint32_t>::max())
      continue;
    const std::uint32_t id = out.count++;
    std::queue<NodeId> queue;
    queue.push(s);
    out.component_of[s] = id;
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop();
      for (NodeId v : g.neighbors(u)) {
        if (out.component_of[v] == std::numeric_limits<std::uint32_t>::max()) {
          out.component_of[v] = id;
          queue.push(v);
        }
      }
    }
  }
  return out;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  return connected_components(g).count == 1;
}

Subgraph induced_subgraph(const Graph& g, const std::vector<NodeId>& nodes) {
  std::vector<NodeId> new_id(g.num_nodes(), kInvalidNode);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= g.num_nodes())
      throw std::out_of_range("induced_subgraph: node out of range");
    if (new_id[nodes[i]] != kInvalidNode)
      throw std::invalid_argument("induced_subgraph: duplicate node");
    new_id[nodes[i]] = static_cast<NodeId>(i);
  }
  GraphBuilder builder(static_cast<NodeId>(nodes.size()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId u = nodes[i];
    builder.set_node_weight(static_cast<NodeId>(i), g.node_weight(u));
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const NodeId v = nbrs[j];
      if (new_id[v] != kInvalidNode && u < v) {
        builder.add_edge(static_cast<NodeId>(i), new_id[v], wgts[j]);
      }
    }
  }
  return Subgraph{builder.build(), nodes};
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats s;
  if (g.num_nodes() == 0) return s;
  s.min_degree = std::numeric_limits<std::uint32_t>::max();
  s.min_node_weight = std::numeric_limits<Weight>::max();
  s.min_edge_weight = std::numeric_limits<Weight>::max();
  std::uint64_t degree_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::uint32_t d = g.degree(u);
    degree_sum += d;
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
    s.min_node_weight = std::min(s.min_node_weight, g.node_weight(u));
    s.max_node_weight = std::max(s.max_node_weight, g.node_weight(u));
    for (Weight w : g.edge_weights(u)) {
      s.min_edge_weight = std::min(s.min_edge_weight, w);
      s.max_edge_weight = std::max(s.max_edge_weight, w);
    }
  }
  if (g.num_edges() == 0) {
    s.min_edge_weight = 0;
    s.max_edge_weight = 0;
  }
  s.mean_degree = static_cast<double>(degree_sum) / g.num_nodes();
  return s;
}

}  // namespace ppnpart::graph
