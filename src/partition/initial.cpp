#include "partition/initial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <vector>

#include "support/thread_pool.hpp"

namespace ppnpart::part {

namespace {

/// One growth attempt. `first_seed` selects the seed of the first partition;
/// subsequent partitions always seed from the heaviest remaining node (the
/// paper's rule — only the initial selection is randomised across restarts).
Partition grow_once(const Graph& g, PartId k, const Constraints& c,
                    NodeId first_seed) {
  const NodeId n = g.num_nodes();
  Partition p(n, k);
  std::vector<bool> assigned(n, false);

  const Weight total = g.total_node_weight();
  // The paper grows each partition "as long as Rmax is not violated"; the
  // balanced cap ceil(W / k) only substitutes when no resource budget is
  // given (an unlimited Rmax must not let one part swallow the whole graph).
  const Weight balanced =
      k > 0
          ? std::max<Weight>(
                static_cast<Weight>(std::ceil(static_cast<double>(total) / k)),
                1)
          : total;
  const auto cap_of = [&](PartId part) {
    const Weight budget = c.rmax_of(part);
    return budget == Constraints::kUnlimited ? balanced : budget;
  };

  auto heaviest_unassigned = [&]() -> NodeId {
    NodeId best = graph::kInvalidNode;
    Weight best_w = -1;
    for (NodeId u = 0; u < n; ++u) {
      if (!assigned[u] && g.node_weight(u) > best_w) {
        best_w = g.node_weight(u);
        best = u;
      }
    }
    return best;
  };

  for (PartId part = 0; part < k; ++part) {
    NodeId seed = graph::kInvalidNode;
    if (part == 0 && first_seed != graph::kInvalidNode &&
        !assigned[first_seed]) {
      seed = first_seed;
    } else {
      seed = heaviest_unassigned();
    }
    if (seed == graph::kInvalidNode) break;  // everything assigned already
    p.set(seed, part);
    assigned[seed] = true;
    Weight load = g.node_weight(seed);

    // Frontier keyed by connection strength into the growing part; lazy
    // entries are revalidated on pop.
    struct FrontierEntry {
      Weight conn;
      NodeId node;
      bool operator<(const FrontierEntry& o) const { return conn < o.conn; }
    };
    std::priority_queue<FrontierEntry> frontier;
    std::vector<Weight> conn_to_part(n, 0);
    auto absorb_neighbours = [&](NodeId u) {
      auto nbrs = g.neighbors(u);
      auto wgts = g.edge_weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId v = nbrs[i];
        if (!assigned[v]) {
          conn_to_part[v] += wgts[i];
          frontier.push({conn_to_part[v], v});
        }
      }
    };
    absorb_neighbours(seed);
    while (!frontier.empty()) {
      const FrontierEntry e = frontier.top();
      frontier.pop();
      if (assigned[e.node] || e.conn != conn_to_part[e.node]) continue;
      if (load + g.node_weight(e.node) > cap_of(part)) continue;  // try others
      p.set(e.node, part);
      assigned[e.node] = true;
      load += g.node_weight(e.node);
      absorb_neighbours(e.node);
    }
  }

  // Leftovers: heaviest first, best-fit by free space under Rmax; when
  // nothing fits, overflow into the part with the most free space.
  std::vector<Weight> loads(static_cast<std::size_t>(k), 0);
  for (NodeId u = 0; u < n; ++u) {
    if (assigned[u]) loads[static_cast<std::size_t>(p[u])] += g.node_weight(u);
  }
  std::vector<NodeId> leftovers;
  for (NodeId u = 0; u < n; ++u) {
    if (!assigned[u]) leftovers.push_back(u);
  }
  std::sort(leftovers.begin(), leftovers.end(), [&](NodeId a, NodeId b) {
    if (g.node_weight(a) != g.node_weight(b))
      return g.node_weight(a) > g.node_weight(b);
    return a < b;
  });
  for (NodeId u : leftovers) {
    const Weight w = g.node_weight(u);
    PartId best_fit = kUnassigned;
    Weight best_free = -1;
    PartId most_free = 0;
    Weight most_free_w = std::numeric_limits<Weight>::min();
    for (PartId q = 0; q < k; ++q) {
      const Weight budget = c.rmax_of(q);
      const Weight free =
          (budget == Constraints::kUnlimited ? total : budget) - loads[q];
      if (free > most_free_w) {
        most_free_w = free;
        most_free = q;
      }
      if (w <= free && free > best_free) {
        best_free = free;
        best_fit = q;
      }
    }
    const PartId target = best_fit != kUnassigned ? best_fit : most_free;
    p.set(u, target);
    loads[static_cast<std::size_t>(target)] += w;
  }
  return p;
}

}  // namespace

Partition greedy_grow_initial(const Graph& g, PartId k, const Constraints& c,
                              const GreedyGrowOptions& options,
                              support::Rng& rng) {
  const NodeId n = g.num_nodes();
  const std::uint32_t restarts = std::max(1u, options.restarts);

  // Restart r seeds: r == 0 uses the heaviest node (the paper's primary
  // rule); the rest pick uniformly random seeds. Seeds are drawn up front so
  // parallel execution stays deterministic.
  std::vector<NodeId> seeds(restarts, graph::kInvalidNode);
  for (std::uint32_t r = 1; r < restarts && n > 0; ++r) {
    seeds[r] = static_cast<NodeId>(rng.uniform_index(n));
  }

  std::vector<Partition> results(restarts);
  auto run_one = [&](std::size_t r) {
    results[r] = grow_once(g, k, c, seeds[r]);
  };
  if (options.parallel && restarts > 1) {
    support::parallel_for(0, restarts, run_one);
  } else {
    for (std::uint32_t r = 0; r < restarts; ++r) run_one(r);
  }

  std::size_t best = 0;
  Goodness best_g = compute_goodness(g, results[0], c);
  for (std::size_t r = 1; r < restarts; ++r) {
    const Goodness gr = compute_goodness(g, results[r], c);
    if (gr < best_g) {
      best_g = gr;
      best = r;
    }
  }
  return results[best];
}

Partition random_balanced_partition(const Graph& g, PartId k,
                                    support::Rng& rng) {
  const NodeId n = g.num_nodes();
  Partition p(n, k);
  auto order = rng.permutation(n);
  std::vector<Weight> loads(static_cast<std::size_t>(k), 0);
  for (NodeId u : order) {
    const auto lightest = static_cast<PartId>(
        std::min_element(loads.begin(), loads.end()) - loads.begin());
    p.set(u, lightest);
    loads[static_cast<std::size_t>(lightest)] += g.node_weight(u);
  }
  return p;
}

Partition region_grow_bisection(const Graph& g, double fraction,
                                support::Rng& rng) {
  const NodeId n = g.num_nodes();
  Partition p(n, 2);
  for (NodeId u = 0; u < n; ++u) p.set(u, 1);
  if (n == 0) return p;
  const Weight target = static_cast<Weight>(
      fraction * static_cast<double>(g.total_node_weight()));
  Weight grown = 0;
  std::vector<bool> visited(n, false);
  // BFS from random seeds until the target weight is reached; multiple
  // seeds cover disconnected graphs.
  while (grown < target) {
    NodeId seed = graph::kInvalidNode;
    for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
      const NodeId cand = static_cast<NodeId>(rng.uniform_index(n));
      if (!visited[cand]) {
        seed = cand;
        break;
      }
    }
    if (seed == graph::kInvalidNode) {
      for (NodeId u = 0; u < n && seed == graph::kInvalidNode; ++u) {
        if (!visited[u]) seed = u;
      }
    }
    if (seed == graph::kInvalidNode) break;  // everything visited
    std::queue<NodeId> queue;
    queue.push(seed);
    visited[seed] = true;
    while (!queue.empty() && grown < target) {
      const NodeId u = queue.front();
      queue.pop();
      p.set(u, 0);
      grown += g.node_weight(u);
      for (NodeId v : g.neighbors(u)) {
        if (!visited[v]) {
          visited[v] = true;
          queue.push(v);
        }
      }
    }
  }
  return p;
}

}  // namespace ppnpart::part
