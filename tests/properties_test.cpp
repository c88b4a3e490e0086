// Property-based sweeps over random instances: the invariants every
// partitioner and transformation in the library must satisfy, checked over a
// grid of (seed, k) parameters.

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "partition/coarsen.hpp"
#include "partition/gp.hpp"
#include "partition/initial.hpp"
#include "partition/metislike.hpp"

namespace ppnpart::part {
namespace {

using Param = std::tuple<std::uint64_t, PartId>;

class PartitionerInvariants : public ::testing::TestWithParam<Param> {
 protected:
  Graph make_graph() const {
    graph::ProcessNetworkParams params;
    params.num_nodes = 72;
    support::Rng rng(std::get<0>(GetParam()));
    return graph::random_process_network(params, rng);
  }
  PartitionRequest make_request(const Graph& g) const {
    PartitionRequest r;
    r.k = std::get<1>(GetParam());
    r.constraints.rmax =
        g.total_node_weight() / r.k + 2 * g.max_node_weight();
    r.constraints.bmax = g.total_edge_weight() / r.k;
    r.seed = std::get<0>(GetParam()) * 13 + 1;
    return r;
  }
};

TEST_P(PartitionerInvariants, GpResultConsistent) {
  const Graph g = make_graph();
  const PartitionRequest r = make_request(g);
  const PartitionResult result = GpPartitioner().run(g, r);
  // Complete assignment into [0, k).
  ASSERT_TRUE(result.partition.complete());
  EXPECT_EQ(result.partition.size(), g.num_nodes());
  // Reported metrics must equal recomputed metrics.
  const PartitionMetrics m = compute_metrics(g, result.partition);
  EXPECT_EQ(result.metrics.total_cut, m.total_cut);
  EXPECT_EQ(result.metrics.max_load, m.max_load);
  EXPECT_EQ(result.metrics.max_pairwise_cut, m.max_pairwise_cut);
  // Feasible flag must agree with the violation struct.
  const Violation v = compute_violation(m, r.constraints);
  EXPECT_EQ(result.feasible, v.feasible());
  // Pairwise cut sums to the global cut.
  EXPECT_EQ(m.pairwise.total(), m.total_cut);
  // If feasible, the constraints genuinely hold.
  if (result.feasible) {
    EXPECT_LE(m.max_load, r.constraints.rmax);
    EXPECT_LE(m.max_pairwise_cut, r.constraints.bmax);
  }
}

TEST_P(PartitionerInvariants, MetisLikeResultConsistent) {
  const Graph g = make_graph();
  const PartitionRequest r = make_request(g);
  const PartitionResult result = MetisLikePartitioner().run(g, r);
  ASSERT_TRUE(result.partition.complete());
  const PartitionMetrics m = compute_metrics(g, result.partition);
  EXPECT_EQ(result.metrics.total_cut, m.total_cut);
  // Cut never exceeds total edge weight.
  EXPECT_LE(m.total_cut, g.total_edge_weight());
  // Loads sum to the graph's weight.
  Weight sum = 0;
  for (Weight load : m.loads) sum += load;
  EXPECT_EQ(sum, g.total_node_weight());
}

TEST_P(PartitionerInvariants, GpNeverWorseThanItsOwnInitial) {
  const Graph g = make_graph();
  const PartitionRequest r = make_request(g);
  support::Rng rng(r.seed);
  const Partition initial = greedy_grow_initial(
      g, r.k, r.constraints, GreedyGrowOptions{}, rng);
  const Goodness initial_goodness =
      compute_goodness(g, initial, r.constraints);
  const PartitionResult refined = GpPartitioner().run(g, r);
  const Goodness final_goodness =
      compute_goodness(g, refined.partition, r.constraints);
  EXPECT_FALSE(initial_goodness < final_goodness)
      << "the full pipeline must not be worse than the bare initial";
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, PartitionerInvariants,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values<PartId>(2, 4, 6)));

// ---------------------------------------------------------- coarsening ---

class HierarchyInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierarchyInvariants, EveryLevelConserves) {
  support::Rng rng(GetParam());
  const Graph g = graph::erdos_renyi_gnm(400, 1500, rng, {1, 9}, {1, 9});
  CoarsenOptions options;
  options.coarsen_to = 30;
  support::Rng crng(GetParam() * 3 + 1);
  const Hierarchy h = coarsen(g, options, crng);
  for (std::size_t level = 0; level + 1 < h.num_levels(); ++level) {
    const Graph& fine = h.level_graph(level, g);
    const Graph& coarse = h.level_graph(level + 1, g);
    const std::vector<NodeId>& map = h.levels[level].fine_to_coarse;
    EXPECT_EQ(fine.total_node_weight(), coarse.total_node_weight());
    EXPECT_GE(fine.total_edge_weight(), coarse.total_edge_weight());
    EXPECT_TRUE(coarse.validate().empty());
    // Map is total and within range.
    ASSERT_EQ(map.size(), fine.num_nodes());
    for (NodeId u = 0; u < fine.num_nodes(); ++u) {
      EXPECT_LT(map[u], coarse.num_nodes());
    }
  }
}

TEST_P(HierarchyInvariants, ProjectedCutMatchesCoarseCut) {
  // A partition of the coarse graph, projected to the fine graph, has
  // exactly the same cut: contraction only hides intra-pair edges.
  support::Rng rng(GetParam() + 31);
  const Graph g = graph::erdos_renyi_gnm(300, 1000, rng, {1, 9}, {1, 9});
  CoarsenOptions options;
  options.coarsen_to = 40;
  support::Rng crng(GetParam() * 7 + 3);
  const Hierarchy h = coarsen(g, options, crng);
  const Graph& coarsest = h.coarsest();
  support::Rng prng(GetParam() * 11 + 5);
  Partition coarse_p = random_balanced_partition(coarsest, 4, prng);
  std::vector<PartId> coarse_assign(coarsest.num_nodes());
  for (NodeId u = 0; u < coarsest.num_nodes(); ++u) {
    coarse_assign[u] = coarse_p[u];
  }
  const std::vector<PartId> fine_assign = h.project_to_level(coarse_assign, 0);
  Partition fine_p(g.num_nodes(), 4);
  for (NodeId u = 0; u < g.num_nodes(); ++u) fine_p.set(u, fine_assign[u]);

  const PartitionMetrics coarse_m = compute_metrics(coarsest, coarse_p);
  const PartitionMetrics fine_m = compute_metrics(g, fine_p);
  EXPECT_EQ(coarse_m.total_cut, fine_m.total_cut);
  EXPECT_EQ(coarse_m.max_load, fine_m.max_load);
  EXPECT_EQ(coarse_m.max_pairwise_cut, fine_m.max_pairwise_cut);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------------- ordering ---

TEST(GoodnessProperty, TotalOrderOnSamples) {
  // Transitivity + antisymmetry spot check over a sample set.
  std::vector<Goodness> samples;
  for (Weight r : {0, 1, 5}) {
    for (Weight b : {0, 2}) {
      for (Weight c : {0, 10, 100}) samples.push_back({r, b, c});
    }
  }
  for (const Goodness& a : samples) {
    EXPECT_FALSE(a < a);
    for (const Goodness& b : samples) {
      EXPECT_FALSE(a < b && b < a);
      for (const Goodness& c : samples) {
        if (a < b && b < c) EXPECT_TRUE(a < c);
      }
    }
  }
}

}  // namespace
}  // namespace ppnpart::part
