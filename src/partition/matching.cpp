#include "partition/matching.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "support/strings.hpp"

namespace ppnpart::part {

namespace {

constexpr std::uint32_t kNoBucket = std::numeric_limits<std::uint32_t>::max();

void identity_matching_into(NodeId n, Matching& m, MatchingScratch& scratch) {
  support::reserve_tracked(m, n, scratch.stats);
  m.resize(n);
  std::iota(m.begin(), m.end(), NodeId{0});
}

/// Random tie-break among equal weights keeps the sweep stochastic across
/// V-cycles, as the multi-restart design expects. Tagging the shuffled
/// positions and sorting by (w desc, pos asc) is exactly the stable sort by
/// descending weight, minus stable_sort's per-call merge-buffer allocation.
void shuffle_sort_by_weight(support::Rng& rng,
                            std::vector<WeightedEdge>& edges) {
  rng.shuffle(edges);
  for (std::size_t i = 0; i < edges.size(); ++i)
    edges[i].pos = static_cast<std::uint32_t>(i);
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.w != b.w ? a.w > b.w : a.pos < b.pos;
            });
}

}  // namespace

Weight random_maximal_matching_into(const Graph& g, support::Rng& rng,
                                    Matching& match, MatchingScratch& scratch) {
  const NodeId n = g.num_nodes();
  identity_matching_into(n, match, scratch);
  support::reserve_tracked(scratch.order, n, scratch.stats);
  rng.permutation_into(n, scratch.order);
  std::vector<NodeId>& candidates = scratch.candidates;
  support::reserve_tracked(candidates, n, scratch.stats);  // degree <= n
  Weight matched_weight = 0;
  for (NodeId u : scratch.order) {
    if (match[u] != u) continue;
    candidates.clear();
    for (NodeId v : g.neighbors(u)) {
      if (match[v] == v) candidates.push_back(v);
    }
    if (candidates.empty()) continue;
    const NodeId v = candidates[rng.uniform_index(candidates.size())];
    match[u] = v;
    match[v] = u;
    matched_weight += g.edge_weight_between(u, v);
  }
  return matched_weight;
}

Matching random_maximal_matching(const Graph& g, support::Rng& rng) {
  Matching match;
  MatchingScratch scratch;
  random_maximal_matching_into(g, rng, match, scratch);
  return match;
}

Weight heavy_edge_matching_into(const Graph& g, support::Rng& rng,
                                Matching& match, MatchingScratch& scratch) {
  const NodeId n = g.num_nodes();
  identity_matching_into(n, match, scratch);
  Weight matched_weight = 0;
  // Node-local HEM (Karypis-Kumar style): random visit order, pick the
  // heaviest free incident edge.
  support::reserve_tracked(scratch.order, n, scratch.stats);
  rng.permutation_into(n, scratch.order);
  for (NodeId u : scratch.order) {
    if (match[u] != u) continue;
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    NodeId best = graph::kInvalidNode;
    Weight best_w = std::numeric_limits<Weight>::min();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (match[v] != v) continue;
      if (wgts[i] > best_w) {
        best_w = wgts[i];
        best = v;
      }
    }
    if (best != graph::kInvalidNode) {
      match[u] = best;
      match[best] = u;
      matched_weight += best_w;
    }
  }
  return matched_weight;
}

Matching heavy_edge_matching(const Graph& g, support::Rng& rng) {
  Matching match;
  MatchingScratch scratch;
  heavy_edge_matching_into(g, rng, match, scratch);
  return match;
}

Weight kmeans_matching_into(const Graph& g, support::Rng& rng, Matching& match,
                            MatchingScratch& scratch,
                            const KMeansMatchingOptions& options) {
  const NodeId n = g.num_nodes();
  identity_matching_into(n, match, scratch);
  if (n < 2) return 0;
  Weight matched_weight = 0;

  std::uint32_t k = options.clusters;
  if (k == 0) k = std::max<std::uint32_t>(1, (n + 7) / 8);
  k = std::min<std::uint32_t>(k, n);

  // --- 1-D k-means on node weight. --------------------------------------
  // Nodes of equal weight always share a cluster, so Lloyd's iterations run
  // over the d distinct weights (each standing for its multiplicity). With
  // centroids kept sorted, the nearest centroid is given by the k-1 sorted
  // midpoints, and both lists ascend: one iteration is a single merge walk,
  // O(d + k). Cluster sums are exact integers, so each centroid is the
  // correctly rounded mean of its nodes' weights. Seeding uses jittered
  // quantiles of the weight distribution (the 1-D equivalent of k-means++
  // spread).
  std::vector<double>& centroid = scratch.centroid;
  support::assign_tracked(centroid, k, 0.0, scratch.stats);
  {
    // Bucket the weights in O(n): an open-addressing table, at most half
    // full, maps each weight to a bucket id in first-seen order, and
    // cluster_of holds each node's bucket until the clusters are known.
    // There are at most min(n, max - min + 1) distinct weights, which keeps
    // the table small when the weights span a narrow range.
    const auto [lo, hi] = std::minmax_element(g.node_weights().begin(),
                                              g.node_weights().end());
    const std::uint64_t gap = static_cast<std::uint64_t>(*hi) -
                              static_cast<std::uint64_t>(*lo);
    const std::size_t slots =
        std::bit_ceil(2 * (std::min<std::uint64_t>(n - 1, gap) + 1));
    const int shift = 64 - std::countr_zero(slots);
    std::vector<std::uint32_t>& table = scratch.weight_table;
    support::assign_tracked(table, slots, kNoBucket, scratch.stats);
    std::vector<Weight>& bucket_w = scratch.bucket_w;
    std::vector<std::uint32_t>& bucket_n = scratch.bucket_count;
    support::reserve_tracked(bucket_w, n, scratch.stats);
    support::reserve_tracked(bucket_n, n, scratch.stats);
    bucket_w.clear();
    bucket_n.clear();
    std::vector<std::uint32_t>& cluster_of = scratch.cluster_of;
    support::reserve_tracked(cluster_of, n, scratch.stats);
    cluster_of.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      const Weight w = g.node_weight(u);
      std::size_t s =
          (static_cast<std::uint64_t>(w) * 0x9e3779b97f4a7c15ull) >> shift;
      while (table[s] != kNoBucket && bucket_w[table[s]] != w)
        s = (s + 1) & (slots - 1);
      if (table[s] == kNoBucket) {
        table[s] = static_cast<std::uint32_t>(bucket_w.size());
        bucket_w.push_back(w);
        bucket_n.push_back(0);
      }
      ++bucket_n[table[s]];
      cluster_of[u] = table[s];
    }
    // Sort only the d distinct weights; each bucket learns its rank.
    const std::size_t d = bucket_w.size();
    std::vector<Weight>& distinct = scratch.distinct_w;
    support::reserve_tracked(distinct, d, scratch.stats);
    distinct.assign(bucket_w.begin(), bucket_w.end());
    std::sort(distinct.begin(), distinct.end());
    std::vector<std::uint32_t>& mult = scratch.distinct_count;
    support::assign_tracked(mult, d, 0u, scratch.stats);
    std::vector<std::uint32_t>& rank = scratch.bucket_rank;
    support::assign_tracked(rank, d, 0u, scratch.stats);
    for (std::size_t b = 0; b < d; ++b) {
      rank[b] = static_cast<std::uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), bucket_w[b]) -
          distinct.begin());
      mult[rank[b]] = bucket_n[b];
    }

    // Quantile ranks ascend with c, so one walk over the multiplicities
    // finds each seed's weight.
    std::size_t r = 0;
    std::uint64_t below = 0;  // nodes lighter than distinct[r]
    for (std::uint32_t c = 0; c < k; ++c) {
      const double jitter = rng.uniform_real(-0.25, 0.25);
      const double pos =
          (static_cast<double>(c) + 0.5 + jitter) * n / static_cast<double>(k);
      const auto idx = static_cast<std::size_t>(std::clamp(
          pos, 0.0, static_cast<double>(n - 1)));
      while (below + mult[r] <= idx) below += mult[r++];
      centroid[c] = static_cast<double>(distinct[r]);
    }
    std::sort(centroid.begin(), centroid.end());

    std::vector<std::uint32_t>& cluster_at = scratch.distinct_cluster;
    support::assign_tracked(cluster_at, d, 0u, scratch.stats);
    std::vector<double>& midpoints = scratch.midpoints;
    support::assign_tracked(midpoints, k > 0 ? k - 1 : 0, 0.0, scratch.stats);
    std::vector<Weight>& sum = scratch.cluster_sum;
    std::vector<std::uint32_t>& cnt = scratch.cluster_count;
    for (std::uint32_t it = 0; it < options.max_iterations; ++it) {
      for (std::uint32_t c = 0; c + 1 < k; ++c)
        midpoints[c] = 0.5 * (centroid[c] + centroid[c + 1]);
      bool changed = false;
      support::assign_tracked(sum, k, 0, scratch.stats);
      support::assign_tracked(cnt, k, 0u, scratch.stats);
      std::uint32_t best = 0;  // midpoints <= the current weight
      for (std::size_t i = 0; i < d; ++i) {
        const auto w = static_cast<double>(distinct[i]);
        while (best + 1 < k && midpoints[best] <= w) ++best;
        if (cluster_at[i] != best) {
          cluster_at[i] = best;
          changed = true;
        }
        sum[best] += distinct[i] * mult[i];
        cnt[best] += mult[i];
      }
      for (std::uint32_t c = 0; c < k; ++c) {
        if (cnt[c] > 0) centroid[c] = static_cast<double>(sum[c]) / cnt[c];
      }
      // Means of disjoint sorted intervals stay sorted; re-sort only to
      // guard against empty-cluster carry-overs.
      std::sort(centroid.begin(), centroid.end());
      if (!changed) break;
    }

    for (NodeId u = 0; u < n; ++u)
      cluster_of[u] = cluster_at[rank[cluster_of[u]]];

    // --- Match within clusters, heaviest incident edge first. ----------
    std::vector<WeightedEdge>& intra = scratch.edges;
    support::reserve_tracked(intra, g.num_edges(), scratch.stats);
    intra.clear();
    for (NodeId u = 0; u < n; ++u) {
      auto nbrs = g.neighbors(u);
      auto wgts = g.edge_weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId v = nbrs[i];
        if (u < v && cluster_of[u] == cluster_of[v]) {
          intra.push_back({wgts[i], u, v, 0});
        }
      }
    }
    shuffle_sort_by_weight(rng, intra);
    for (const WeightedEdge& e : intra) {
      if (match[e.u] == e.u && match[e.v] == e.v) {
        match[e.u] = e.v;
        match[e.v] = e.u;
        matched_weight += e.w;
      }
    }
  }
  return matched_weight;
}

Matching kmeans_matching(const Graph& g, support::Rng& rng,
                         const KMeansMatchingOptions& options) {
  Matching match;
  MatchingScratch scratch;
  kmeans_matching_into(g, rng, match, scratch, options);
  return match;
}

Weight matched_edge_weight(const Graph& g, const Matching& m) {
  Weight sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId v = m[u];
    if (v != u && u < v) sum += g.edge_weight_between(u, v);
  }
  return sum;
}

std::uint32_t matched_pair_count(const Matching& m) {
  std::uint32_t count = 0;
  for (NodeId u = 0; u < m.size(); ++u) {
    if (m[u] != u && u < m[u]) ++count;
  }
  return count;
}

std::string validate_matching(const Graph& g, const Matching& m) {
  using support::str_format;
  if (m.size() != g.num_nodes()) return "matching size mismatch";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId v = m[u];
    if (v >= g.num_nodes()) return str_format("match[%u] out of range", u);
    if (m[v] != u) return str_format("matching not symmetric at %u", u);
    if (v != u && !g.has_edge(u, v))
      return str_format("matched pair (%u, %u) not adjacent", u, v);
  }
  return {};
}

}  // namespace ppnpart::part
