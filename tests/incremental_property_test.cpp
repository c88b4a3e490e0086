// Property/fuzz suite for incremental repartitioning (PR 4).
//
// Two contracts are fuzzed over randomized edit sequences:
//
//   1. GraphDelta::apply is bit-identical to a from-scratch rebuild: a
//      shadow model (plain maps) mirrors every op's documented semantics,
//      rebuilds the edited graph through GraphBuilder, and the digests must
//      agree — including removals that strand edges, isolated added nodes,
//      duplicate-edge accumulation and remove-then-re-add pairs.
//   2. IncrementalPartitioner output is valid: complete assignment, every
//      reported metric equal to a scratch recomputation, and goodness never
//      worse than the projected warm start (refinement commits best
//      prefixes only).
//
// Sequence counts are deliberately >= 200 in aggregate (see ISSUE/ROADMAP
// acceptance); keep them if you shrink individual cases.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "partition/coarsen_cache.hpp"
#include "partition/incremental.hpp"
#include "partition/workspace.hpp"
#include "support/prng.hpp"

namespace {

using namespace ppnpart;
using graph::GraphDelta;
using graph::NodeId;
using graph::Weight;

/// Reference semantics of a delta, kept as plain maps and replayed through
/// GraphBuilder — deliberately sharing no code with GraphDelta::apply.
struct ShadowGraph {
  std::vector<Weight> weights;         // extended ids
  std::vector<bool> removed;           // extended ids
  std::map<std::pair<NodeId, NodeId>, Weight> edges;  // canonical (u < v)

  explicit ShadowGraph(const graph::Graph& g) {
    weights.assign(g.node_weights().begin(), g.node_weights().end());
    removed.assign(weights.size(), false);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      auto nbrs = g.neighbors(u);
      auto wgts = g.edge_weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (u < nbrs[i]) edges[{u, nbrs[i]}] = wgts[i];
      }
    }
  }

  static std::pair<NodeId, NodeId> key(NodeId u, NodeId v) {
    return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
  }

  NodeId add_node(Weight w) {
    weights.push_back(w);
    removed.push_back(false);
    return static_cast<NodeId>(weights.size() - 1);
  }
  void remove_node(NodeId u) { removed[u] = true; }
  void set_node_weight(NodeId u, Weight w) { weights[u] = w; }
  void add_edge(NodeId u, NodeId v, Weight w) { edges[key(u, v)] += w; }
  void remove_edge(NodeId u, NodeId v) { edges.erase(key(u, v)); }
  void set_edge(NodeId u, NodeId v, Weight w) { edges[key(u, v)] = w; }

  struct Rebuilt {
    graph::Graph graph;
    std::vector<NodeId> node_map;
  };
  Rebuilt rebuild() const {
    Rebuilt out;
    out.node_map.assign(weights.size(), graph::kInvalidNode);
    NodeId n_new = 0;
    for (NodeId u = 0; u < weights.size(); ++u) {
      if (!removed[u]) out.node_map[u] = n_new++;
    }
    graph::GraphBuilder b(n_new);
    for (NodeId u = 0; u < weights.size(); ++u) {
      if (!removed[u]) b.set_node_weight(out.node_map[u], weights[u]);
    }
    for (const auto& [uv, w] : edges) {
      if (!removed[uv.first] && !removed[uv.second])
        b.add_edge(out.node_map[uv.first], out.node_map[uv.second], w);
    }
    out.graph = b.build();
    return out;
  }
};

/// Mirrors random ops into a GraphDelta and the shadow model at once.
struct Fuzzer {
  support::Rng rng;
  GraphDelta delta;
  ShadowGraph shadow;
  std::vector<NodeId> live;  // live extended ids

  Fuzzer(const graph::Graph& base, std::uint64_t seed)
      : rng(seed), delta(base), shadow(base) {
    for (NodeId u = 0; u < base.num_nodes(); ++u) live.push_back(u);
  }

  std::vector<std::pair<NodeId, NodeId>> live_edges() const {
    std::vector<std::pair<NodeId, NodeId>> out;
    for (const auto& [uv, w] : shadow.edges) {
      (void)w;
      if (!shadow.removed[uv.first] && !shadow.removed[uv.second])
        out.push_back(uv);
    }
    return out;
  }

  NodeId random_live() { return live[rng.uniform_index(live.size())]; }

  void random_op() {
    const std::size_t roll = rng.uniform_index(100);
    if (roll < 25) {  // reweight an existing edge
      const auto es = live_edges();
      if (!es.empty()) {
        const auto [u, v] = es[rng.uniform_index(es.size())];
        const Weight w = 1 + static_cast<Weight>(rng.uniform_index(12));
        delta.set_edge_weight(u, v, w);
        shadow.set_edge(u, v, w);
        return;
      }
    }
    if (roll < 45) {  // add (or accumulate onto) an edge
      if (live.size() >= 2) {
        const NodeId u = random_live();
        const NodeId v = random_live();
        if (u != v) {
          const Weight w = 1 + static_cast<Weight>(rng.uniform_index(9));
          delta.add_edge(u, v, w);
          shadow.add_edge(u, v, w);
          return;
        }
      }
    }
    if (roll < 55) {  // remove an edge (sometimes one that does not exist)
      if (live.size() >= 2 && rng.bernoulli(0.2)) {
        const NodeId u = random_live();
        const NodeId v = random_live();
        if (u != v) {
          delta.remove_edge(u, v);
          shadow.remove_edge(u, v);
          return;
        }
      }
      const auto es = live_edges();
      if (!es.empty()) {
        const auto [u, v] = es[rng.uniform_index(es.size())];
        delta.remove_edge(u, v);
        shadow.remove_edge(u, v);
        return;
      }
    }
    if (roll < 68) {  // reweight a node (0 allowed)
      if (!live.empty()) {
        const NodeId u = random_live();
        const Weight w = static_cast<Weight>(rng.uniform_index(50));
        delta.set_node_weight(u, w);
        shadow.set_node_weight(u, w);
        return;
      }
    }
    if (roll < 85 || live.empty()) {  // add a node, often wired, often isolated
      const Weight w = 1 + static_cast<Weight>(rng.uniform_index(40));
      const NodeId ext = delta.add_node(w);
      ASSERT_EQ(ext, shadow.add_node(w));
      const std::size_t wires =
          live.empty() ? 0 : rng.uniform_index(3);  // 0 = isolated node
      for (std::size_t i = 0; i < wires; ++i) {
        const NodeId v = random_live();
        const Weight ew = 1 + static_cast<Weight>(rng.uniform_index(9));
        delta.add_edge(ext, v, ew);
        shadow.add_edge(ext, v, ew);
      }
      live.push_back(ext);
      return;
    }
    // remove a node (strands its edges)
    const std::size_t idx = rng.uniform_index(live.size());
    const NodeId u = live[idx];
    delta.remove_node(u);
    shadow.remove_node(u);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
  }
};

graph::Graph random_base(support::Rng& rng) {
  switch (rng.uniform_index(6)) {
    case 0:
      return graph::Graph();  // empty
    case 1: {
      graph::GraphBuilder b(1 + static_cast<NodeId>(rng.uniform_index(3)));
      return b.build();  // tiny, edgeless
    }
    case 2: {
      graph::ProcessNetworkParams params;
      params.num_nodes = 8 + static_cast<NodeId>(rng.uniform_index(56));
      params.layers = 4;
      return graph::random_process_network(params, rng);
    }
    case 3: {
      const NodeId n = 6 + static_cast<NodeId>(rng.uniform_index(40));
      return graph::erdos_renyi_gnm(n, 2ull * n, rng, {1, 20}, {1, 9});
    }
    case 4:
      return graph::ring_of_cliques(
          2 + static_cast<std::uint32_t>(rng.uniform_index(4)), 4);
    default:
      return graph::grid2d(3 + static_cast<std::uint32_t>(rng.uniform_index(4)),
                           3 + static_cast<std::uint32_t>(rng.uniform_index(4)));
  }
}

void expect_graphs_identical(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.xadj(), b.xadj());
  EXPECT_EQ(a.adj(), b.adj());
  EXPECT_EQ(a.raw_edge_weights(), b.raw_edge_weights());
  EXPECT_EQ(a.node_weights(), b.node_weights());
  EXPECT_EQ(part::graph_digest(a), part::graph_digest(b));
}

// ---- 1. Delta apply == scratch rebuild (digest equality), chained. --------

TEST(IncrementalProperty, DeltaMatchesScratchRebuild) {
  support::Rng meta(0xde17a);
  for (int seq = 0; seq < 120; ++seq) {
    support::Rng base_rng = meta.derive(seq);
    graph::Graph g = random_base(base_rng);
    // Chain two deltas: the second edits the first's output, which is how
    // evolving networks are actually driven.
    for (int round = 0; round < 2; ++round) {
      Fuzzer fz(g, meta.derive(1000 + seq * 2 + round)());
      const std::size_t ops = 1 + fz.rng.uniform_index(30);
      for (std::size_t i = 0; i < ops; ++i) fz.random_op();

      const GraphDelta::Applied applied = fz.delta.apply(g);
      EXPECT_TRUE(applied.graph.validate().empty())
          << "seq " << seq << ": " << applied.graph.validate();

      const ShadowGraph::Rebuilt ref = fz.shadow.rebuild();
      ASSERT_NO_FATAL_FAILURE(expect_graphs_identical(applied.graph, ref.graph))
          << "seq " << seq << " round " << round;
      EXPECT_EQ(applied.node_map, ref.node_map);

      // touched: sorted, unique, in range.
      for (std::size_t i = 0; i < applied.touched.size(); ++i) {
        EXPECT_LT(applied.touched[i], applied.graph.num_nodes());
        if (i > 0) EXPECT_LT(applied.touched[i - 1], applied.touched[i]);
      }
      g = applied.graph;
    }
  }
}

TEST(IncrementalProperty, TouchedCoversAdjacencyChanges) {
  // Every node whose CSR row or weight differs (under the node map) must be
  // in `touched` — the incremental partitioner trusts this to bound where
  // refinement is needed, and the fallback threshold counts it.
  support::Rng meta(0x70c4ed);
  for (int seq = 0; seq < 40; ++seq) {
    support::Rng base_rng = meta.derive(seq);
    const graph::Graph g = random_base(base_rng);
    Fuzzer fz(g, meta.derive(500 + seq)());
    const std::size_t ops = 1 + fz.rng.uniform_index(20);
    for (std::size_t i = 0; i < ops; ++i) fz.random_op();
    const GraphDelta::Applied applied = fz.delta.apply(g);

    std::vector<bool> touched(applied.graph.num_nodes(), false);
    for (NodeId t : applied.touched) touched[t] = true;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const NodeId m = applied.node_map[u];
      if (m == graph::kInvalidNode) continue;
      bool changed = g.node_weight(u) != applied.graph.node_weight(m) ||
                     g.degree(u) != applied.graph.degree(m);
      if (!changed) {
        auto old_nbrs = g.neighbors(u);
        auto old_w = g.edge_weights(u);
        auto new_nbrs = applied.graph.neighbors(m);
        auto new_w = applied.graph.edge_weights(m);
        for (std::size_t i = 0; i < old_nbrs.size() && !changed; ++i) {
          changed = applied.node_map[old_nbrs[i]] != new_nbrs[i] ||
                    old_w[i] != new_w[i];
        }
      }
      if (changed) {
        EXPECT_TRUE(touched[m])
            << "seq " << seq << ": node " << u << " changed but not touched";
      }
    }
  }
}

// ---- 2. Incremental partitions are valid and never worse than the warm
// start. ---------------------------------------------------------------------

TEST(IncrementalProperty, RepartitionValidOverRandomEditSequences) {
  support::Rng meta(0x5eed);
  part::IncrementalOptions opts;
  opts.max_touched_fraction = 2.0;      // never decline: exercise the
  opts.max_projected_imbalance = 1e18;  // incremental path on every shape
  part::IncrementalPartitioner inc(opts);
  part::Workspace ws;  // one workspace reused across every sequence

  int nonempty = 0;
  for (int seq = 0; seq < 100; ++seq) {
    support::Rng base_rng = meta.derive(7000 + seq);
    const graph::Graph g = random_base(base_rng);
    const auto k = static_cast<part::PartId>(1 + base_rng.uniform_index(7));

    // Previous solution: a deliberately mediocre but complete partition —
    // validity must not depend on the warm start being good.
    part::Partition prev(g.num_nodes(), k);
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      prev.set(u, static_cast<part::PartId>((u * 7 + 3) % k));

    Fuzzer fz(g, meta.derive(9000 + seq)());
    const std::size_t ops = 1 + fz.rng.uniform_index(25);
    for (std::size_t i = 0; i < ops; ++i) fz.random_op();
    const GraphDelta::Applied applied = fz.delta.apply(g);

    part::PartitionRequest request;
    request.k = k;
    request.seed = 42 + static_cast<std::uint64_t>(seq);
    request.workspace = &ws;
    if (base_rng.bernoulli(0.5) && k > 0) {
      request.constraints.rmax = std::max<Weight>(
          1, static_cast<Weight>(1.3 * static_cast<double>(
                                           applied.graph.total_node_weight()) /
                                 k));
      request.constraints.bmax =
          std::max<Weight>(1, applied.graph.total_edge_weight() / 4);
    }

    part::IncrementalStats stats;
    const auto result = inc.try_repartition(applied, prev, request, &stats);
    ASSERT_TRUE(result.has_value()) << "declined: " << stats.fallback_reason;

    const graph::Graph& ng = applied.graph;
    ASSERT_EQ(result->partition.size(), ng.num_nodes());
    EXPECT_TRUE(result->partition.complete());
    if (ng.num_nodes() == 0) continue;
    ++nonempty;

    // Reported metrics == scratch recomputation.
    const part::PartitionMetrics m = part::compute_metrics(ng, result->partition);
    EXPECT_EQ(result->metrics.total_cut, m.total_cut);
    EXPECT_EQ(result->metrics.max_load, m.max_load);
    EXPECT_EQ(result->metrics.max_pairwise_cut, m.max_pairwise_cut);
    const part::Violation v = part::compute_violation(m, request.constraints);
    EXPECT_EQ(result->violation.resource_excess, v.resource_excess);
    EXPECT_EQ(result->violation.bandwidth_excess, v.bandwidth_excess);
    EXPECT_EQ(result->feasible, v.feasible());

    // Refinement never returns anything worse than the projected start.
    EXPECT_FALSE(stats.projected_goodness < part::goodness_of(*result))
        << "seq " << seq << ": refinement worsened the warm start";
    EXPECT_EQ(stats.projected + stats.fresh, ng.num_nodes());
  }
  EXPECT_GT(nonempty, 50);  // the fuzz mix must exercise real instances
}

TEST(IncrementalProperty, RepartitionChainsAcrossDeltas) {
  // prev -> delta -> result -> delta -> result ... the evolving-network
  // loop. Every hop must stay valid.
  support::Rng meta(0xc4a1);
  part::IncrementalOptions opts;
  opts.max_touched_fraction = 2.0;
  opts.max_projected_imbalance = 1e18;
  part::IncrementalPartitioner inc(opts);
  part::Workspace ws;

  for (int seq = 0; seq < 20; ++seq) {
    support::Rng base_rng = meta.derive(seq);
    graph::ProcessNetworkParams params;
    params.num_nodes = 40;
    params.layers = 5;
    graph::Graph g = graph::random_process_network(params, base_rng);
    const part::PartId k = 4;

    part::PartitionRequest request;
    request.k = k;
    request.seed = 7;
    request.workspace = &ws;

    part::Partition prev(g.num_nodes(), k);
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      prev.set(u, static_cast<part::PartId>(u % k));

    for (int hop = 0; hop < 5; ++hop) {
      Fuzzer fz(g, meta.derive(100 + seq * 10 + hop)());
      const std::size_t ops = 1 + fz.rng.uniform_index(8);
      for (std::size_t i = 0; i < ops; ++i) fz.random_op();
      const GraphDelta::Applied applied = fz.delta.apply(g);

      const auto result = inc.try_repartition(applied, prev, request, nullptr);
      ASSERT_TRUE(result.has_value());
      ASSERT_EQ(result->partition.size(), applied.graph.num_nodes());
      EXPECT_TRUE(result->partition.complete());
      if (applied.graph.num_nodes() > 0) {
        EXPECT_EQ(result->metrics.total_cut,
                  part::compute_metrics(applied.graph, result->partition)
                      .total_cut);
      }
      g = applied.graph;
      prev = result->partition;
    }
  }
}

// ---- 3. Decline thresholds and determinism. -------------------------------

TEST(IncrementalProperty, DeclinesOversizedDeltasAndChangedK) {
  graph::ProcessNetworkParams params;
  params.num_nodes = 60;
  params.layers = 6;
  support::Rng rng(31);
  const graph::Graph g = graph::random_process_network(params, rng);

  part::Partition prev(g.num_nodes(), 4);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    prev.set(u, static_cast<part::PartId>(u % 4));

  // Touch every node: reweight them all.
  GraphDelta big(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    big.set_node_weight(u, g.node_weight(u) + 1);
  const GraphDelta::Applied applied = big.apply(g);
  ASSERT_EQ(applied.touched.size(), g.num_nodes());

  part::IncrementalPartitioner inc;  // default thresholds
  part::PartitionRequest request;
  request.k = 4;
  part::IncrementalStats stats;
  EXPECT_FALSE(inc.try_repartition(applied, prev, request, &stats).has_value());
  EXPECT_TRUE(stats.fell_back);
  EXPECT_FALSE(stats.fallback_reason.empty());

  // k change declines even for a tiny delta.
  GraphDelta small(g);
  small.set_node_weight(0, 99);
  const GraphDelta::Applied applied_small = small.apply(g);
  part::PartitionRequest request_k8 = request;
  request_k8.k = 8;
  EXPECT_FALSE(
      inc.try_repartition(applied_small, prev, request_k8, &stats).has_value());
  EXPECT_EQ(stats.fallback_reason, "k changed");
}

TEST(IncrementalProperty, RepartitionDeterministicAcrossWorkspaces) {
  graph::ProcessNetworkParams params;
  params.num_nodes = 80;
  params.layers = 8;
  support::Rng rng(77);
  const graph::Graph g = graph::random_process_network(params, rng);

  part::Partition prev(g.num_nodes(), 4);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    prev.set(u, static_cast<part::PartId>(u % 4));

  GraphDelta delta(g);
  delta.set_edge_weight(0, 1, 5);
  const NodeId fresh = delta.add_node(25);
  delta.add_edge(fresh, 3, 4);
  delta.remove_node(10);
  const GraphDelta::Applied applied = delta.apply(g);

  part::PartitionRequest request;
  request.k = 4;
  request.seed = 99;
  request.constraints.rmax = g.total_node_weight();  // loose

  part::IncrementalPartitioner inc;
  part::Workspace ws_a, ws_b;
  part::PartitionRequest ra = request, rb = request;
  ra.workspace = &ws_a;
  const auto a = inc.try_repartition(applied, prev, ra, nullptr);
  const auto b = inc.try_repartition(applied, prev, rb, nullptr);  // no ws
  rb.workspace = &ws_b;
  const auto c = inc.try_repartition(applied, prev, rb, nullptr);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(a->partition.assignments(), b->partition.assignments());
  EXPECT_EQ(a->partition.assignments(), c->partition.assignments());
}

// ---- 4. Workspace steady state: the incremental refine loop allocates
// nothing once warm. ---------------------------------------------------------

TEST(IncrementalProperty, WorkspaceSteadyStateAllocationFree) {
  graph::ProcessNetworkParams params;
  params.num_nodes = 400;
  params.layers = 16;
  support::Rng rng(123);
  graph::Graph g = graph::random_process_network(params, rng);
  const part::PartId k = 6;

  part::Partition prev(g.num_nodes(), k);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    prev.set(u, static_cast<part::PartId>(u % k));

  part::IncrementalOptions opts;
  opts.max_touched_fraction = 2.0;
  part::IncrementalPartitioner inc(opts);
  part::Workspace ws;
  part::PartitionRequest request;
  request.k = k;
  request.seed = 5;
  request.workspace = &ws;
  request.constraints.rmax = static_cast<Weight>(
      1.3 * static_cast<double>(g.total_node_weight()) / k);

  // Edge-only deltas keep the graph size stable: after two warm-up rounds
  // every workspace buffer has reached its high-water mark.
  support::Rng edit_rng(9);
  const auto one_round = [&]() {
    GraphDelta delta(g);
    for (int e = 0; e < 8; ++e) {
      const NodeId u = static_cast<NodeId>(edit_rng.uniform_index(g.num_nodes()));
      if (g.degree(u) == 0) continue;
      const auto nbrs = g.neighbors(u);
      const NodeId v = nbrs[edit_rng.uniform_index(nbrs.size())];
      delta.set_edge_weight(u, v, 1 + static_cast<Weight>(edit_rng.uniform_index(12)));
    }
    const GraphDelta::Applied applied = delta.apply(g);
    const auto result = inc.try_repartition(applied, prev, request, nullptr);
    ASSERT_TRUE(result.has_value());
    g = applied.graph;
    prev = result->partition;
  };

  for (int warm = 0; warm < 2; ++warm) ASSERT_NO_FATAL_FAILURE(one_round());
  const std::uint64_t growths_before = ws.stats().growths;
  for (int i = 0; i < 6; ++i) ASSERT_NO_FATAL_FAILURE(one_round());
  EXPECT_EQ(ws.stats().growths, growths_before)
      << "incremental refine loop allocated in steady state";
}

}  // namespace
