#include "partition/metislike.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "partition/coarsen.hpp"
#include "partition/coarsen_cache.hpp"
#include "partition/initial.hpp"
#include "partition/phase_profile.hpp"
#include "partition/refine.hpp"
#include "partition/workspace.hpp"
#include "support/timer.hpp"

namespace ppnpart::part {

namespace {

constexpr const char* kTraceCat = "metislike";

/// Recursive bisection of `g` into parts [part_offset, part_offset + k);
/// writes into `assign` through `original_of` (ids of g's nodes in the
/// caller's graph).
void recursive_bisect(const Graph& g, const std::vector<NodeId>& original_of,
                      PartId k, PartId part_offset, double imbalance,
                      std::uint32_t fm_passes, support::Rng& rng,
                      std::vector<PartId>& assign, Workspace& ws) {
  if (k <= 1) {
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      assign[original_of[u]] = part_offset;
    return;
  }
  const PartId k0 = k / 2;
  const PartId k1 = k - k0;
  const double fraction = static_cast<double>(k0) / static_cast<double>(k);
  const Weight total = g.total_node_weight();
  // METIS ufactor semantics: loads must stay <= (1+eps) * target, i.e. the
  // integer cap is the floor (never below the exact target rounded up).
  const auto side_cap = [&](double frac) {
    const double target = frac * static_cast<double>(total);
    return std::max(static_cast<Weight>(imbalance * target),
                    static_cast<Weight>(std::ceil(target)));
  };
  const Weight cap0 = side_cap(fraction);
  const Weight cap1 = side_cap(1.0 - fraction);

  Partition p = region_grow_bisection(g, fraction, rng);
  bisection_fm_refine(g, p, cap0, cap1, fm_passes, rng, ws);

  std::vector<NodeId> side0, side1;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    (p[u] == 0 ? side0 : side1).push_back(u);
  }
  // Degenerate splits (empty side) can happen on tiny graphs; fall back to
  // an arbitrary non-empty split so recursion terminates.
  if (side0.empty() || side1.empty()) {
    side0.clear();
    side1.clear();
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      (u % 2 == 0 ? side0 : side1).push_back(u);
    }
    if (side1.empty() && !side0.empty()) {
      side1.push_back(side0.back());
      side0.pop_back();
    }
  }

  auto recurse = [&](const std::vector<NodeId>& side, PartId sub_k,
                     PartId offset) {
    if (side.empty()) return;
    graph::Subgraph sub = graph::induced_subgraph(g, side);
    std::vector<NodeId> sub_original(side.size());
    for (std::size_t i = 0; i < side.size(); ++i) {
      sub_original[i] = original_of[side[i]];
    }
    recursive_bisect(sub.graph, sub_original, sub_k, offset, imbalance,
                     fm_passes, rng, assign, ws);
  };
  recurse(side0, k0, part_offset);
  recurse(side1, k1, part_offset + k0);
}

}  // namespace

MetisLikePartitioner::MetisLikePartitioner(MetisLikeOptions options)
    : options_(options) {
  if (options_.imbalance < 1.0)
    throw std::invalid_argument("MetisLike: imbalance must be >= 1");
}

PartitionResult MetisLikePartitioner::run(const Graph& g,
                                          const PartitionRequest& request) {
  if (request.k <= 0)
    throw std::invalid_argument("MetisLike: k must be positive");
  support::Timer timer;
  PartitionResult result;
  result.algorithm = name();
  const PartId k = request.k;
  support::Rng rng(request.seed);
  Workspace local_ws;
  Workspace& ws = request.workspace != nullptr ? *request.workspace : local_ws;
  WorkspaceLease lease(ws);
  PhaseContextScope<Workspace> phase_ctx(ws, request.phases, kTraceCat);

  // Under unit balance, partition a copy whose node weights are all 1 (edge
  // weights — the cut — are untouched); metrics are computed on the real
  // graph afterwards.
  const Graph* work = &g;
  Graph unit_graph;
  if (options_.unit_vertex_balance) {
    graph::GraphBuilder builder(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      auto nbrs = g.neighbors(u);
      auto wgts = g.edge_weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (u < nbrs[i]) builder.add_edge(u, nbrs[i], wgts[i]);
      }
    }
    unit_graph = builder.build();
    work = &unit_graph;
  }

  // --- Coarsening: heavy-edge matching only, like METIS defaults. --------
  CoarsenOptions coarsen_opts;
  coarsen_opts.strategies = {MatchingKind::kHeavyEdge};
  coarsen_opts.coarsen_to =
      options_.coarsen_to > 0
          ? options_.coarsen_to
          : std::max<NodeId>(40, static_cast<NodeId>(20 * k));
  Hierarchy local;
  std::shared_ptr<const Hierarchy> shared_h;
  if (request.coarsen_cache != nullptr) {
    PhaseScope phase(request.phases, PhaseProfile::kCoarsen, kTraceCat, -1,
                     static_cast<std::int64_t>(work->num_nodes()));
    // Unit-balance runs coarsen a rewritten graph: the caller's graph_key
    // names the original, so key the cache on the work graph's own digest.
    const std::uint64_t gkey = (work == &g && request.graph_key != 0)
                                   ? request.graph_key
                                   : graph_digest(*work);
    shared_h = request.coarsen_cache->hierarchy(gkey, coarsen_opts, *work);
  } else {
    local = coarsen(*work, coarsen_opts, rng, ws);
  }
  const Hierarchy& h = shared_h ? *shared_h : local;

  // --- Initial partitioning: recursive bisection of the coarsest graph. --
  const Graph& coarsest = h.num_levels() == 1 ? *work : h.coarsest();
  std::vector<PartId> coarse_assign(coarsest.num_nodes(), 0);
  std::vector<NodeId> identity(coarsest.num_nodes());
  for (NodeId u = 0; u < coarsest.num_nodes(); ++u) identity[u] = u;
  {
    PhaseScope phase(request.phases, PhaseProfile::kInitial, kTraceCat,
                     static_cast<std::int64_t>(h.num_levels() - 1),
                     static_cast<std::int64_t>(coarsest.num_nodes()));
    recursive_bisect(coarsest, identity, k, 0, options_.imbalance,
                     options_.bisection_fm_passes, rng, coarse_assign, ws);
  }

  // --- Uncoarsening: project + greedy k-way boundary refinement. ---------
  const Weight total = work->total_node_weight();
  const double target = static_cast<double>(total) / std::max(1, k);
  // Floor of (1+eps)*target per METIS ufactor semantics, but never below
  // the exact target rounded up, and never below the heaviest node (a cap
  // smaller than one node would deadlock refinement entirely).
  Weight max_load =
      std::max(static_cast<Weight>(options_.imbalance * target),
               static_cast<Weight>(std::ceil(target)));
  max_load = std::max(max_load, work->max_node_weight());

  GreedyRefineOptions refine_opts;
  refine_opts.max_passes = options_.refine_passes;

  std::vector<PartId> assign = std::move(coarse_assign);
  for (std::size_t level = h.num_levels(); level-- > 0;) {
    // Level 0 of a cached hierarchy is empty; the work graph stands in.
    const Graph& level_graph = level == 0 ? *work : h.graphs[level];
    PhaseScope phase(request.phases, PhaseProfile::kRefine, kTraceCat,
                     static_cast<std::int64_t>(level),
                     static_cast<std::int64_t>(level_graph.num_nodes()));
    if (level + 1 < h.num_levels()) {
      std::vector<PartId> finer(level_graph.num_nodes());
      for (NodeId u = 0; u < level_graph.num_nodes(); ++u) {
        finer[u] = assign[h.maps[level][u]];
      }
      assign = std::move(finer);
    }
    Partition& p = ws.level_partition;
    p.reset(level_graph.num_nodes(), k);
    for (NodeId u = 0; u < level_graph.num_nodes(); ++u) p.set(u, assign[u]);
    support::Rng level_rng = rng.derive(0x3E71ull * (level + 1));
    greedy_cut_refine(level_graph, p, max_load, refine_opts, level_rng, ws);
    for (NodeId u = 0; u < level_graph.num_nodes(); ++u) assign[u] = p[u];
  }

  result.partition = Partition(g.num_nodes(), k);
  for (NodeId u = 0; u < g.num_nodes(); ++u) result.partition.set(u, assign[u]);
  result.finalize(g, request.constraints);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ppnpart::part
