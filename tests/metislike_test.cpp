#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/metislike.hpp"
#include "partition/partitioner.hpp"

namespace ppnpart::part {
namespace {

TEST(MetisLike, BalancedWithinTolerance) {
  support::Rng rng(1);
  const Graph g = graph::erdos_renyi_gnm(200, 800, rng, {1, 4}, {1, 10});
  MetisLikePartitioner metis;
  PartitionRequest r;
  r.k = 4;
  r.seed = 3;
  const PartitionResult result = metis.run(g, r);
  EXPECT_TRUE(result.partition.complete());
  // Hard cap honoured up to node granularity.
  const Weight cap =
      std::max<Weight>(static_cast<Weight>(1.03 * g.total_node_weight() / 4),
                       g.max_node_weight());
  EXPECT_LE(result.metrics.max_load, cap + g.max_node_weight());
}

TEST(MetisLike, UnitBalanceBoundsPartSizes) {
  support::Rng rng(2);
  const Graph g = graph::erdos_renyi_gnm(12, 33, rng, {1, 100}, {1, 10});
  MetisLikeOptions options;
  options.unit_vertex_balance = true;
  MetisLikePartitioner metis(options);
  PartitionRequest r;
  r.k = 4;
  r.seed = 5;
  const PartitionResult result = metis.run(g, r);
  for (PartId p = 0; p < 4; ++p) {
    EXPECT_LE(result.partition.members(p).size(), 3u)
        << "unit balance must cap parts at ceil-ish n/k";
  }
}

TEST(MetisLike, BeatsRandomOnCut) {
  support::Rng rng(3);
  const Graph g = graph::ring_of_cliques(8, 8, 10, 1);
  PartitionRequest r;
  r.k = 4;
  r.seed = 7;
  const PartitionResult metis = MetisLikePartitioner().run(g, r);
  const PartitionResult random = RandomPartitioner().run(g, r);
  EXPECT_LT(metis.metrics.total_cut, random.metrics.total_cut / 2);
}

TEST(MetisLike, FindsNaturalCliquePartition) {
  const Graph g = graph::ring_of_cliques(4, 8, 20, 1);
  MetisLikePartitioner metis;
  PartitionRequest r;
  r.k = 4;
  r.seed = 11;
  const PartitionResult result = metis.run(g, r);
  EXPECT_LE(result.metrics.total_cut, 4);  // only ring bridges cut
}

TEST(MetisLike, MultilevelPathOnLargeGraph) {
  graph::ProcessNetworkParams params;
  params.num_nodes = 1500;
  support::Rng rng(4);
  const Graph g = graph::random_process_network(params, rng);
  MetisLikePartitioner metis;
  PartitionRequest r;
  r.k = 8;
  r.seed = 13;
  const PartitionResult result = metis.run(g, r);
  EXPECT_TRUE(result.partition.complete());
  EXPECT_TRUE(result.partition.all_parts_nonempty());
}

TEST(MetisLike, DeterministicGivenSeed) {
  support::Rng rng(5);
  const Graph g = graph::erdos_renyi_gnm(60, 200, rng, {1, 6}, {1, 6});
  MetisLikePartitioner metis;
  PartitionRequest r;
  r.k = 3;
  r.seed = 17;
  const PartitionResult a = metis.run(g, r);
  const PartitionResult b = metis.run(g, r);
  EXPECT_EQ(a.partition.assignments(), b.partition.assignments());
}

TEST(MetisLike, IgnoresConstraintsLikeMetis) {
  // Constraints passed in the request do not change the partitioning — only
  // the reporting. (That blindness is the paper's point.)
  support::Rng rng(6);
  const Graph g = graph::erdos_renyi_gnm(40, 120, rng, {1, 20}, {1, 10});
  MetisLikePartitioner metis;
  PartitionRequest loose;
  loose.k = 4;
  loose.seed = 19;
  PartitionRequest tight = loose;
  tight.constraints.rmax = 1;
  tight.constraints.bmax = 1;
  const PartitionResult a = metis.run(g, loose);
  const PartitionResult b = metis.run(g, tight);
  EXPECT_EQ(a.partition.assignments(), b.partition.assignments());
  EXPECT_TRUE(a.feasible);    // unconstrained => feasible
  EXPECT_FALSE(b.feasible);   // same partition judged against rmax=1
}

TEST(MetisLike, OddKSupported) {
  support::Rng rng(7);
  const Graph g = graph::erdos_renyi_gnm(50, 150, rng, {1, 5}, {1, 5});
  MetisLikePartitioner metis;
  PartitionRequest r;
  r.k = 5;
  r.seed = 23;
  const PartitionResult result = metis.run(g, r);
  EXPECT_TRUE(result.partition.complete());
  EXPECT_TRUE(result.partition.all_parts_nonempty());
}

TEST(MetisLike, RejectsBadInput) {
  MetisLikeOptions bad;
  bad.imbalance = 0.5;
  EXPECT_THROW(MetisLikePartitioner{bad}, std::invalid_argument);
  MetisLikePartitioner metis;
  PartitionRequest r;
  r.k = 0;
  EXPECT_THROW(metis.run(Graph(), r), std::invalid_argument);
}

}  // namespace
}  // namespace ppnpart::part
