#include "partition/coarsen.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/contract.hpp"
#include "partition/parallel.hpp"
#include "partition/phase_profile.hpp"
#include "support/contracts.hpp"
#include "support/thread_pool.hpp"

namespace ppnpart::part {

std::string to_string(MatchingKind kind) {
  switch (kind) {
    case MatchingKind::kRandom:
      return "random";
    case MatchingKind::kHeavyEdge:
      return "heavy-edge";
    case MatchingKind::kKMeans:
      return "k-means";
  }
  return "?";
}

namespace {

/// Coarse-id assignment shared by both contraction paths: scan fine nodes
/// ascending, matched pairs collapse onto one id. Returns the coarse node
/// count.
NodeId build_fine_to_coarse(const Graph& fine, const Matching& matching,
                            std::vector<NodeId>& fine_to_coarse) {
  const NodeId n = fine.num_nodes();
  if (matching.size() != n)
    throw std::invalid_argument("contract: matching size mismatch");
  fine_to_coarse.assign(n, graph::kInvalidNode);
  NodeId next = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (fine_to_coarse[u] != graph::kInvalidNode) continue;
    const NodeId v = matching[u];
    fine_to_coarse[u] = next;
    if (v != u) fine_to_coarse[v] = next;
    ++next;
  }
  return next;
}

/// Per-level chunking of the two coarsening kernels (grains in
/// parallel.hpp); `threads` is the caller's resolved chunk count.
bool race_concurrently(const Graph& current, std::uint32_t threads) {
  return threads > 1 && current.num_nodes() >= kRaceMinNodes;
}
std::uint32_t contract_chunks(const Graph& current, std::uint32_t threads) {
  return chunks_for(threads, current.adj().size(), kContractGrain);
}

/// Unmatches the pairs of `m` that straddle two parts of `parts` and
/// returns the matched weight they took with them.
Weight unmatch_straddlers(const Graph& g, const std::vector<PartId>& parts,
                          Matching& m) {
  Weight removed = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId v = m[u];
    if (v != u && parts[u] != parts[v]) {
      m[u] = u;
      m[v] = v;
      removed += g.edge_weight_between(u, v);
    }
  }
  return removed;
}

/// Races the enabled matching heuristics on `current`: strategy i runs into
/// ws.race_slot(i). Returns the winner's slot (most hidden weight; ties:
/// more pairs, then strategy order). With `parts` (restricted coarsening),
/// each heuristic's part-straddling pairs are unmatched before the winner
/// is picked. With `concurrent`, the strategies run as tasks on the global
/// pool. Each draws from its own stream derived from the const `rng` and
/// the winner is picked serially in strategy order, so the outcome is the
/// same either way.
const RaceSlot& race_matchings(const Graph& current,
                               const CoarsenOptions& options,
                               std::size_t num_levels,
                               const support::Rng& rng, Workspace& ws,
                               const std::vector<PartId>* parts,
                               bool concurrent) {
  const std::size_t count = options.strategies.size();
  // Slots are created serially, before any task runs.
  for (std::size_t i = 0; i < count; ++i) (void)ws.race_slot(i);
  const auto run = [&](std::size_t i) {
    const MatchingKind kind = options.strategies[i];
    RaceSlot& slot = ws.race_slot(i);
    support::Rng stream = rng.derive(
        static_cast<std::uint64_t>(kind) * 977 + num_levels * 131071);
    slot.kind = kind;
    slot.weight =
        run_matching_into(current, kind, stream, slot.match, slot.scratch);
    if (parts != nullptr)
      slot.weight -= unmatch_straddlers(current, *parts, slot.match);
    slot.pairs = matched_pair_count(slot.match);
  };
  if (concurrent) {
    support::parallel_for(0, count, run);
  } else {
    for (std::size_t i = 0; i < count; ++i) run(i);
  }
  const RaceSlot* best = &ws.race_slot(0);
  for (std::size_t i = 1; i < count; ++i) {
    const RaceSlot& slot = ws.race_slot(i);
    if (slot.weight > best->weight ||
        (slot.weight == best->weight && slot.pairs > best->pairs))
      best = &slot;
  }
  return *best;
}

/// The level loop of coarsen() and coarsen_restricted(). With `parts`,
/// which labels g's nodes, pairs that straddle two parts are never matched
/// (so the partition projects exactly onto every level), and `*parts` is
/// carried down to each coarser level, ending as the coarsest level's
/// labels; without, the matching race is unfiltered.
Hierarchy coarsen_levels(const Graph& g, const CoarsenOptions& options,
                         support::Rng& rng, Workspace& ws,
                         std::uint32_t threads, std::vector<PartId>* parts) {
  if (options.strategies.empty())
    throw std::invalid_argument("coarsen: no matching strategies enabled");
  Hierarchy h;
  while (h.coarsest(g).num_nodes() > options.coarsen_to &&
         h.num_levels() <= options.max_levels) {
    const Graph& current = h.coarsest(g);
    PhaseScope phase(ws.phases, PhaseProfile::kCoarsen, ws.phase_cat,
                     static_cast<std::int64_t>(h.num_levels() - 1),
                     static_cast<std::int64_t>(current.num_nodes()));
    // Race the enabled heuristics; each writes its own workspace slot, so
    // the race allocates nothing once warm.
    const RaceSlot& best =
        race_matchings(current, options, h.num_levels(), rng, ws, parts,
                       race_concurrently(current, threads));
    if (best.pairs == 0) break;  // nothing contractible (e.g. no edges)
    CoarseLevel level = contract(current, best.match, ws,
                                 contract_chunks(current, threads));
    const double shrink = static_cast<double>(level.graph.num_nodes()) /
                          static_cast<double>(current.num_nodes());
    if (shrink > options.min_shrink_factor) break;
    if (parts != nullptr) {
      std::vector<PartId> coarse_parts(level.graph.num_nodes(), kUnassigned);
      for (NodeId u = 0; u < current.num_nodes(); ++u)
        coarse_parts[level.fine_to_coarse[u]] = (*parts)[u];
      *parts = std::move(coarse_parts);
    }
    level.used_matching = best.kind;
    h.levels.push_back(std::move(level));  // invalidates `current`
  }
  return h;
}

}  // namespace

CoarseLevel contract(const Graph& fine, const Matching& matching,
                     Workspace& ws, std::uint32_t chunks) {
  CoarseLevel out;
  const NodeId next = build_fine_to_coarse(fine, matching, out.fine_to_coarse);
  out.graph = graph::contract_csr(fine, out.fine_to_coarse, next, ws.contract,
                                  chunks);
  return out;
}

CoarseLevel contract_via_builder(const Graph& fine, const Matching& matching) {
  const NodeId n = fine.num_nodes();
  CoarseLevel out;
  const NodeId next = build_fine_to_coarse(fine, matching, out.fine_to_coarse);

  graph::GraphBuilder builder(next);
  // Coarse node weight = sum of merged fine node weights.
  std::vector<Weight> cw(next, 0);
  for (NodeId u = 0; u < n; ++u) cw[out.fine_to_coarse[u]] += fine.node_weight(u);
  for (NodeId c = 0; c < next; ++c) builder.set_node_weight(c, cw[c]);
  // Coarse edges: fold every fine edge whose endpoints land in different
  // coarse nodes; GraphBuilder merges parallel edges by summing weights,
  // which implements the paper's "weights are merged into one and the new
  // edge has a weight equal to the sum of the weights of the merged edges".
  for (NodeId u = 0; u < n; ++u) {
    auto nbrs = fine.neighbors(u);
    auto wgts = fine.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (u >= v) continue;
      const NodeId cu = out.fine_to_coarse[u];
      const NodeId cv = out.fine_to_coarse[v];
      if (cu != cv) builder.add_edge(cu, cv, wgts[i]);
    }
  }
  out.graph = builder.build();
  return out;
}

Weight run_matching_into(const Graph& g, MatchingKind kind, support::Rng& rng,
                         Matching& match, MatchingScratch& scratch) {
  switch (kind) {
    case MatchingKind::kRandom:
      return random_maximal_matching_into(g, rng, match, scratch);
    case MatchingKind::kHeavyEdge:
      return heavy_edge_matching_into(g, rng, match, scratch);
    case MatchingKind::kKMeans:
      return kmeans_matching_into(g, rng, match, scratch);
  }
  throw std::logic_error("run_matching_into: bad kind");
}

Weight run_matching_into(const Graph& g, MatchingKind kind, support::Rng& rng,
                         Matching& match, Workspace& ws) {
  return run_matching_into(g, kind, rng, match, ws.matching);
}

const Graph& Hierarchy::coarsest() const {
  PPN_ASSERT(!levels.empty());
  return levels.back().graph;
}

std::vector<PartId> Hierarchy::project_to_level(
    const std::vector<PartId>& coarse_assign, std::size_t level) const {
  // With no coarse level the input is the coarsest: nothing to project.
  if (levels.empty()) return coarse_assign;
  if (coarse_assign.size() != levels.back().graph.num_nodes())
    throw std::invalid_argument("project_to_level: size mismatch");
  std::vector<PartId> assign = coarse_assign;
  // levels[i].fine_to_coarse : level i -> level i+1; walk backwards from
  // the coarsest.
  for (std::size_t i = levels.size(); i-- > level;) {
    const std::vector<NodeId>& map = levels[i].fine_to_coarse;
    std::vector<PartId> finer(map.size());
    for (std::size_t u = 0; u < finer.size(); ++u) finer[u] = assign[map[u]];
    assign = std::move(finer);
  }
  return assign;
}

RestrictedHierarchy coarsen_restricted(const Graph& g,
                                       const std::vector<PartId>& parts,
                                       const CoarsenOptions& options,
                                       support::Rng& rng, Workspace& ws,
                                       std::uint32_t threads) {
  if (parts.size() != g.num_nodes())
    throw std::invalid_argument("coarsen_restricted: parts size mismatch");
  RestrictedHierarchy out;
  out.coarse_parts = parts;
  out.hierarchy = coarsen_levels(g, options, rng, ws, threads,
                                 &out.coarse_parts);
  return out;
}

Hierarchy coarsen(const Graph& g, const CoarsenOptions& options,
                  support::Rng& rng, Workspace& ws, std::uint32_t threads) {
  return coarsen_levels(g, options, rng, ws, threads, nullptr);
}

Hierarchy coarsen(const Graph& g, const CoarsenOptions& options,
                  support::Rng& rng) {
  Workspace ws;
  return coarsen(g, options, rng, ws);
}

}  // namespace ppnpart::part
