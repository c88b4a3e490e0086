#pragma once
// The three matching heuristics of the paper's coarsening phase
// (Section IV-A): Random Maximal Matching, Heavy Edge Matching and K-Means
// Matching. All three are run side by side at every coarsening level and the
// best-scoring matching is contracted (see coarsen.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/alloc_stats.hpp"
#include "support/prng.hpp"

namespace ppnpart::part {

using graph::Graph;
using graph::NodeId;
using graph::Weight;

enum class MatchingKind { kRandom, kHeavyEdge, kKMeans };

/// match[u] == v means u and v are contracted together (match[v] == u);
/// match[u] == u means u stays single.
using Matching = std::vector<NodeId>;

/// An undirected edge record for k-means matching's sorted-edge sweep within
/// a cluster. `pos` tags the edge's position after the pre-sort shuffle so
/// an unstable sort by (w desc, pos asc) reproduces exactly what a stable
/// sort by weight produced — without stable_sort's per-call merge-buffer
/// allocation.
struct WeightedEdge {
  Weight w;
  NodeId u, v;
  std::uint32_t pos;
};

/// Reusable temporaries for the matching heuristics. One scratch serves all
/// three heuristics sequentially (the coarsening competition); buffers grow
/// to the finest level's size once and are reused for every coarser level
/// and every later run.
struct MatchingScratch {
  support::AllocStats* stats = nullptr;
  std::vector<std::uint32_t> order;      // random visit order
  std::vector<NodeId> candidates;        // free-neighbour pool
  std::vector<WeightedEdge> edges;       // k-means sorted-edge sweep
  // k-means matching state; buckets are numbered in first-seen order
  std::vector<std::uint32_t> weight_table;  // open addressing -> bucket
  std::vector<Weight> bucket_w;             // node weight per bucket
  std::vector<std::uint32_t> bucket_count;  // nodes per bucket
  std::vector<std::uint32_t> bucket_rank;   // bucket -> index in distinct_w
  std::vector<Weight> distinct_w;           // distinct weights, ascending
  std::vector<std::uint32_t> distinct_count;    // nodes per distinct weight
  std::vector<std::uint32_t> distinct_cluster;  // cluster per distinct weight
  std::vector<double> centroid;
  std::vector<double> midpoints;
  std::vector<Weight> cluster_sum;
  std::vector<std::uint32_t> cluster_of;
  std::vector<std::uint32_t> cluster_count;
};

/// Visits nodes in random order; each unmatched node picks a uniformly
/// random unmatched neighbour (paper: "Random Maximal Matching").
Matching random_maximal_matching(const Graph& g, support::Rng& rng);
/// Allocation-free variant: result into `match`, temporaries from `scratch`.
/// Returns the total matched edge weight (== matched_edge_weight(g, match)),
/// computed for free during the sweep.
Weight random_maximal_matching_into(const Graph& g, support::Rng& rng,
                                    Matching& match, MatchingScratch& scratch);

/// Visits nodes in random order; each unmatched node picks its heaviest
/// unmatched incident edge. (The paper describes a global sorted-edge
/// sweep; this node-local variant is the standard Karypis–Kumar form, O(m)
/// instead of O(m log m).)
Matching heavy_edge_matching(const Graph& g, support::Rng& rng);
Weight heavy_edge_matching_into(const Graph& g, support::Rng& rng,
                                Matching& match, MatchingScratch& scratch);

struct KMeansMatchingOptions {
  /// Number of weight-clusters; 0 means ceil(n / 8).
  std::uint32_t clusters = 0;
  std::uint32_t max_iterations = 16;
};

/// The paper's "K-Means Matching": nodes are clustered by weight (1-D
/// k-means over the distinct weights, seeded at jittered quantiles; O(n)
/// to bucket the weights plus O(d log d) for the d distinct ones); within
/// each cluster, adjacent pairs are matched heaviest-edge-first. Nodes whose
/// neighbours all fall in other clusters remain unmatched (maximality within
/// clusters only), which is why this heuristic is only ever used in
/// competition with the other two.
Matching kmeans_matching(const Graph& g, support::Rng& rng,
                         const KMeansMatchingOptions& options = {});
Weight kmeans_matching_into(const Graph& g, support::Rng& rng, Matching& match,
                            MatchingScratch& scratch,
                            const KMeansMatchingOptions& options = {});

/// Sum of weights of matched edges — the standard proxy for matching quality
/// (hidden weight cannot be cut at coarser levels).
Weight matched_edge_weight(const Graph& g, const Matching& m);

std::uint32_t matched_pair_count(const Matching& m);

/// Validates symmetry (match[match[u]] == u), adjacency of matched pairs and
/// range; returns first problem or empty string.
std::string validate_matching(const Graph& g, const Matching& m);

}  // namespace ppnpart::part
