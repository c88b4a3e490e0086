#pragma once
// Coarsening phase (paper Section IV-A).
//
// At each level all enabled matching heuristics are computed, scored by the
// total weight of matched edges (hidden weight can no longer be cut at
// coarser levels — the standard Karypis–Kumar argument), and the winner is
// contracted: matched pairs become single coarse nodes whose weight is the
// sum of the pair's weights; parallel coarse edges are folded by summing
// weights. Coarsening stops at `coarsen_to` nodes (paper default: 100) or
// when a level fails to shrink the graph by `min_shrink_factor`.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "partition/matching.hpp"
#include "partition/partition.hpp"
#include "partition/workspace.hpp"
#include "support/prng.hpp"

namespace ppnpart::part {

std::string to_string(MatchingKind kind);

/// One contracted level: the coarse graph, the map from the finer level's
/// node ids to its own, and the matching heuristic whose pairs it contracts.
struct CoarseLevel {
  Graph graph;
  std::vector<NodeId> fine_to_coarse;
  MatchingKind used_matching = MatchingKind::kRandom;
};

/// Contracts `fine` along `matching` (must be valid, see validate_matching)
/// through the direct CSR path (graph::contract_csr), reusing the
/// workspace's contraction scratch across levels and building the coarse
/// rows in `chunks` tasks. The coarse graph is bit-identical to
/// contract_via_builder's.
CoarseLevel contract(const Graph& fine, const Matching& matching,
                     Workspace& ws, std::uint32_t chunks = 1);

/// Slow-but-simple reference contraction through GraphBuilder (copy, sort,
/// merge). Kept as the oracle the direct CSR path is property-tested
/// against; not used on the hot path.
CoarseLevel contract_via_builder(const Graph& fine, const Matching& matching);

struct CoarsenOptions {
  NodeId coarsen_to = 100;  // paper's default
  std::vector<MatchingKind> strategies = {
      MatchingKind::kRandom, MatchingKind::kHeavyEdge, MatchingKind::kKMeans};
  /// Stop if a level shrinks the node count by less than this factor.
  double min_shrink_factor = 0.98;
  std::uint32_t max_levels = 64;
};

/// The levels coarsened above an input graph, which the hierarchy does not
/// hold: level 0 is the input, which callers pass back as `finest`, and
/// levels[i] is level i + 1, contracted from level i.
struct Hierarchy {
  std::vector<CoarseLevel> levels;

  /// Levels including the input: 1 when nothing was contracted.
  std::size_t num_levels() const { return levels.size() + 1; }
  const Graph& level_graph(std::size_t level, const Graph& finest) const {
    return level == 0 ? finest : levels[level - 1].graph;
  }
  const Graph& coarsest(const Graph& finest) const {
    return level_graph(levels.size(), finest);
  }
  /// The coarsest contracted graph; requires at least one coarse level.
  const Graph& coarsest() const;

  /// Projects a coarsest-level part assignment down to level `level`
  /// (0 = the input). `coarse_assign` indexes coarsest-graph nodes. Needs
  /// only the maps, not the input.
  std::vector<PartId> project_to_level(
      const std::vector<PartId>& coarse_assign, std::size_t level) const;
};

/// Builds the hierarchy, selecting the best of the enabled matchings at each
/// level (ties by matched pair count, then strategy order). The Workspace
/// overload reuses matching/contraction scratch across levels and runs.
/// `threads` is the caller's resolved chunk count (parallel.hpp): at more
/// than one, levels of at least kRaceMinNodes nodes run their matchings
/// concurrently, and contraction gets chunks_for(threads, adjacency
/// entries, kContractGrain) chunks. The hierarchy is the same at every
/// value.
Hierarchy coarsen(const Graph& g, const CoarsenOptions& options,
                  support::Rng& rng, Workspace& ws, std::uint32_t threads = 1);
Hierarchy coarsen(const Graph& g, const CoarsenOptions& options,
                  support::Rng& rng);

/// Runs one matching heuristic, allocation-free: the result goes into
/// `match`, temporaries come from `scratch` (or from ws.matching). Returns
/// the total matched edge weight (== matched_edge_weight(g, match)).
Weight run_matching_into(const Graph& g, MatchingKind kind, support::Rng& rng,
                         Matching& match, MatchingScratch& scratch);
Weight run_matching_into(const Graph& g, MatchingKind kind, support::Rng& rng,
                         Matching& match, Workspace& ws);

/// Partition-preserving ("restricted") coarsening for the paper's cyclic
/// re-coarsening: only node pairs inside the same part may match, so the
/// current partition projects exactly onto every level of the new hierarchy.
/// Returns the hierarchy plus the induced coarsest-level assignment.
struct RestrictedHierarchy {
  Hierarchy hierarchy;
  std::vector<PartId> coarse_parts;
};
/// `threads` as in coarsen().
RestrictedHierarchy coarsen_restricted(const Graph& g,
                                       const std::vector<PartId>& parts,
                                       const CoarsenOptions& options,
                                       support::Rng& rng, Workspace& ws,
                                       std::uint32_t threads = 1);

}  // namespace ppnpart::part
