#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "partition/matching.hpp"

namespace ppnpart::part {
namespace {

// Parameterized over seeds: all matchings must be valid on random graphs.
class MatchingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchingProperty, RandomMaximalIsValidAndMaximal) {
  support::Rng rng(GetParam());
  const Graph g = graph::erdos_renyi_gnm(60, 150, rng, {1, 9}, {1, 9});
  support::Rng mrng(GetParam() * 31);
  const Matching m = random_maximal_matching(g, mrng);
  EXPECT_TRUE(validate_matching(g, m).empty()) << validate_matching(g, m);
  // Maximality: no edge with both endpoints unmatched.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (m[u] != u) continue;
    for (NodeId v : g.neighbors(u)) {
      EXPECT_NE(m[v], v) << "edge (" << u << "," << v << ") both unmatched";
    }
  }
}

TEST_P(MatchingProperty, HeavyEdgeIsValid) {
  support::Rng rng(GetParam());
  const Graph g = graph::erdos_renyi_gnm(60, 150, rng, {1, 9}, {1, 9});
  support::Rng mrng(GetParam() * 37);
  const Matching m = heavy_edge_matching(g, mrng);
  EXPECT_TRUE(validate_matching(g, m).empty()) << validate_matching(g, m);
}

TEST_P(MatchingProperty, KMeansIsValid) {
  support::Rng rng(GetParam());
  const Graph g = graph::erdos_renyi_gnm(60, 150, rng, {1, 9}, {1, 9});
  support::Rng mrng(GetParam() * 43);
  const Matching m = kmeans_matching(g, mrng);
  EXPECT_TRUE(validate_matching(g, m).empty()) << validate_matching(g, m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Matching, HeavyEdgePrefersHeavyEdges) {
  // Star with one heavy spoke. Node-local matching only guarantees the
  // heavy edge when the centre is visited while node 2 is free: when the
  // centre moves first (it can only match once), the heavy edge wins;
  // leaves moving first may claim the centre — but the result must still
  // be a valid maximal matching.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 2, 100);
  b.add_edge(0, 3, 1);
  const Graph g = b.build();
  int heavy_taken = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    support::Rng rng(seed);
    const Matching m = heavy_edge_matching(g, rng);
    EXPECT_TRUE(validate_matching(g, m).empty());
    heavy_taken += m[0] == 2u;
  }
  EXPECT_GT(heavy_taken, 0);
}

TEST(Matching, MatchedWeightAndPairCount) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 5);
  b.add_edge(2, 3, 7);
  const Graph g = b.build();
  Matching m{1, 0, 3, 2};
  EXPECT_EQ(matched_edge_weight(g, m), 12);
  EXPECT_EQ(matched_pair_count(m), 2u);
  Matching none{0, 1, 2, 3};
  EXPECT_EQ(matched_edge_weight(g, none), 0);
  EXPECT_EQ(matched_pair_count(none), 0u);
}

TEST(Matching, ValidateCatchesProblems) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  EXPECT_FALSE(validate_matching(g, {1, 0}).empty());          // size
  EXPECT_FALSE(validate_matching(g, {1, 2, 1, 3}).empty());    // asymmetric
  EXPECT_FALSE(validate_matching(g, {2, 1, 0, 3}).empty());    // not adjacent
  EXPECT_TRUE(validate_matching(g, {1, 0, 2, 3}).empty());
}

TEST(Matching, KMeansGroupsSimilarWeights) {
  // Two weight classes; edges exist within and across classes. With 2
  // clusters, only intra-class edges are candidates.
  graph::GraphBuilder b(4);
  b.set_node_weight(0, 10);
  b.set_node_weight(1, 10);
  b.set_node_weight(2, 1000);
  b.set_node_weight(3, 1000);
  b.add_edge(0, 1, 1);
  b.add_edge(2, 3, 1);
  b.add_edge(1, 2, 50);  // heavy but cross-class
  const Graph g = b.build();
  KMeansMatchingOptions options;
  options.clusters = 2;
  int cross_class = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    support::Rng rng(seed);
    const Matching m = kmeans_matching(g, rng, options);
    EXPECT_TRUE(validate_matching(g, m).empty());
    if (m[1] == 2u) ++cross_class;
  }
  EXPECT_EQ(cross_class, 0) << "k-means matched across weight clusters";
}

TEST(Matching, EmptyAndSingleNodeGraphs) {
  const Graph empty;
  support::Rng rng(1);
  EXPECT_TRUE(random_maximal_matching(empty, rng).empty());
  graph::GraphBuilder b(1);
  const Graph single = b.build();
  const Matching m = kmeans_matching(single, rng);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], 0u);
}

/// The per-node k-means matching the distinct-weight version replaced: one
/// binary search per node per Lloyd iteration, double cluster sums. Kept as
/// the reference the rewrite must match exactly, rng draws included.
Matching reference_kmeans_matching(const Graph& g, support::Rng& rng,
                                   const KMeansMatchingOptions& options,
                                   Weight& matched_weight) {
  const NodeId n = g.num_nodes();
  Matching match(n);
  std::iota(match.begin(), match.end(), NodeId{0});
  matched_weight = 0;
  if (n < 2) return match;
  std::uint32_t k = options.clusters;
  if (k == 0) k = std::max<std::uint32_t>(1, (n + 7) / 8);
  k = std::min<std::uint32_t>(k, n);

  std::vector<double> weight_of(n);
  for (NodeId u = 0; u < n; ++u)
    weight_of[u] = static_cast<double>(g.node_weight(u));
  std::vector<double> sorted_w = weight_of;
  std::sort(sorted_w.begin(), sorted_w.end());
  std::vector<double> centroid(k);
  for (std::uint32_t c = 0; c < k; ++c) {
    const double jitter = rng.uniform_real(-0.25, 0.25);
    const double pos =
        (static_cast<double>(c) + 0.5 + jitter) * n / static_cast<double>(k);
    const auto idx = static_cast<std::size_t>(
        std::clamp(pos, 0.0, static_cast<double>(n - 1)));
    centroid[c] = sorted_w[idx];
  }
  std::sort(centroid.begin(), centroid.end());

  std::vector<std::uint32_t> cluster_of(n, 0);
  std::vector<double> midpoints(k - 1);
  for (std::uint32_t it = 0; it < options.max_iterations; ++it) {
    for (std::uint32_t c = 0; c + 1 < k; ++c)
      midpoints[c] = 0.5 * (centroid[c] + centroid[c + 1]);
    bool changed = false;
    std::vector<double> sum(k, 0.0);
    std::vector<std::uint32_t> cnt(k, 0);
    for (NodeId u = 0; u < n; ++u) {
      const auto best = static_cast<std::uint32_t>(
          std::upper_bound(midpoints.begin(), midpoints.end(), weight_of[u]) -
          midpoints.begin());
      if (cluster_of[u] != best) {
        cluster_of[u] = best;
        changed = true;
      }
      sum[best] += weight_of[u];
      ++cnt[best];
    }
    for (std::uint32_t c = 0; c < k; ++c) {
      if (cnt[c] > 0) centroid[c] = sum[c] / cnt[c];
    }
    std::sort(centroid.begin(), centroid.end());
    if (!changed) break;
  }

  std::vector<WeightedEdge> intra;
  for (NodeId u = 0; u < n; ++u) {
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i] && cluster_of[u] == cluster_of[nbrs[i]])
        intra.push_back({wgts[i], u, nbrs[i], 0});
    }
  }
  rng.shuffle(intra);
  for (std::size_t i = 0; i < intra.size(); ++i)
    intra[i].pos = static_cast<std::uint32_t>(i);
  std::sort(intra.begin(), intra.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.w != b.w ? a.w > b.w : a.pos < b.pos;
            });
  for (const WeightedEdge& e : intra) {
    if (match[e.u] == e.u && match[e.v] == e.v) {
      match[e.u] = e.v;
      match[e.v] = e.u;
      matched_weight += e.w;
    }
  }
  return match;
}

/// `g` with node weights weight(u); the CSR is unchanged.
template <typename WeightFn>
Graph with_node_weights(const Graph& g, WeightFn weight) {
  std::vector<Weight> node_w(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) node_w[u] = weight(u);
  return Graph(g.xadj(), g.adj(), g.raw_edge_weights(), std::move(node_w));
}

TEST(Matching, KMeansMatchesPerNodeReference) {
  struct Input {
    NodeId n;
    std::uint64_t m;
    graph::WeightRange node_w;
  };
  const Input inputs[] = {
      {120, 400, {7, 7}},          // a single weight value
      {200, 700, {1, 4}},          // a few repeated weights
      {3000, 9000, {1, 1000000}},  // near-all-distinct weights
      {5, 6, {1, 9}},              // n < 8
      {7, 12, {3, 3}},
  };
  // Weight patterns that stress the bucketing table: keys equal in all
  // low bits, and keys near 2^62 (two of them, so the total weight still
  // fits in 63 bits; all are exact doubles, as the reference needs).
  const auto all_equal = [](NodeId) { return Weight{5}; };
  const auto all_distinct = [](NodeId u) {
    return 1 + static_cast<Weight>((u * 7919ull) % 2000);
  };
  const auto shifted = [](int bits) {
    return [bits](NodeId u) {
      return static_cast<Weight>(1 + (u * 2654435761ull) % 37) << bits;
    };
  };
  const auto near_2_62 = [](NodeId u) {
    if (u == 3) return (Weight{1} << 62) - (Weight{1} << 20);
    if (u == 11) return (Weight{1} << 62) - (Weight{1} << 21);
    return 1 + static_cast<Weight>(u % 9);
  };
  struct Reweighted {
    NodeId n;
    std::uint64_t m;
    std::function<Weight(NodeId)> weight;
  };
  const Reweighted reweighted[] = {
      {600, 1800, all_equal},   {2000, 6000, all_distinct},
      {400, 1200, shifted(20)}, {400, 1200, shifted(32)},
      {300, 900, near_2_62},
  };
  std::vector<std::pair<std::string, std::function<Graph(std::uint64_t)>>>
      cases;
  for (const Input& in : inputs) {
    cases.emplace_back("n=" + std::to_string(in.n), [in](std::uint64_t seed) {
      support::Rng grng(seed * 1000 + in.n);
      return graph::erdos_renyi_gnm(in.n, in.m, grng, in.node_w, {1, 9});
    });
  }
  for (std::size_t i = 0; i < std::size(reweighted); ++i) {
    const Reweighted& in = reweighted[i];
    cases.emplace_back("reweighted " + std::to_string(i),
                       [in](std::uint64_t seed) {
                         support::Rng grng(seed * 1000 + in.n);
                         return with_node_weights(
                             graph::erdos_renyi_gnm(in.n, in.m, grng),
                             in.weight);
                       });
  }
  // One scratch across every call, as in coarsening: buffers sized by an
  // earlier, larger input must not leak into a later result.
  MatchingScratch scratch;
  Matching match;
  for (const auto& [label, make_graph] : cases) {
    for (std::uint32_t clusters : {0u, 1u, 3u, 50u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Graph g = make_graph(seed);
        KMeansMatchingOptions options;
        options.clusters = clusters;
        support::Rng ref_rng(seed);
        Weight ref_weight = 0;
        const Matching ref =
            reference_kmeans_matching(g, ref_rng, options, ref_weight);
        support::Rng rng(seed);
        const Weight weight =
            kmeans_matching_into(g, rng, match, scratch, options);
        EXPECT_EQ(match, ref) << label << " clusters=" << clusters
                              << " seed=" << seed;
        EXPECT_EQ(weight, ref_weight);
        EXPECT_EQ(weight, matched_edge_weight(g, match));
        EXPECT_EQ(rng(), ref_rng()) << "rng draws differ";
      }
    }
  }
}

}  // namespace
}  // namespace ppnpart::part
