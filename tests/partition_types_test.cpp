#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/partition.hpp"
#include "partition/partitioner.hpp"

namespace ppnpart::part {
namespace {

// 4-node square with weighted nodes/edges:
//   0-1 (w5), 1-2 (w1), 2-3 (w5), 3-0 (w1); node weights 10,20,30,40.
Graph square() {
  graph::GraphBuilder b(4);
  b.set_node_weight(0, 10);
  b.set_node_weight(1, 20);
  b.set_node_weight(2, 30);
  b.set_node_weight(3, 40);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 5);
  b.add_edge(3, 0, 1);
  return b.build();
}

Partition bisect01_23() {
  Partition p(4, 2);
  p.set(0, 0);
  p.set(1, 0);
  p.set(2, 1);
  p.set(3, 1);
  return p;
}

TEST(Partition, CompletenessAndMembers) {
  Partition p(3, 2);
  EXPECT_FALSE(p.complete());
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 1);
  EXPECT_TRUE(p.complete());
  EXPECT_EQ(p.members(1), (std::vector<graph::NodeId>{1, 2}));
  EXPECT_TRUE(p.all_parts_nonempty());
}

TEST(Partition, EmptyPartDetected) {
  Partition p(2, 3);
  p.set(0, 0);
  p.set(1, 1);
  EXPECT_FALSE(p.all_parts_nonempty());
}

TEST(PairwiseCutMatrix, AddAndQuery) {
  PairwiseCut c(3);
  c.add(0, 1, 5);
  c.add(1, 2, 7);
  c.add(0, 1, 2);
  EXPECT_EQ(c.at(0, 1), 7);
  EXPECT_EQ(c.at(1, 0), 7);
  EXPECT_EQ(c.at(0, 2), 0);
  EXPECT_EQ(c.max_pairwise(), 7);
  EXPECT_EQ(c.total(), 14);
}

TEST(Metrics, SquareBisection) {
  const Graph g = square();
  const PartitionMetrics m = compute_metrics(g, bisect01_23());
  EXPECT_EQ(m.total_cut, 2);  // edges 1-2 and 3-0
  EXPECT_EQ(m.loads[0], 30);
  EXPECT_EQ(m.loads[1], 70);
  EXPECT_EQ(m.max_load, 70);
  EXPECT_EQ(m.max_pairwise_cut, 2);
  EXPECT_DOUBLE_EQ(m.imbalance, 70.0 / 50.0);
}

TEST(Metrics, PairwiseTotalEqualsGlobalCut) {
  const Graph g = square();
  Partition p(4, 4);
  for (graph::NodeId u = 0; u < 4; ++u) p.set(u, static_cast<PartId>(u));
  const PartitionMetrics m = compute_metrics(g, p);
  EXPECT_EQ(m.total_cut, 12);  // every edge cut
  EXPECT_EQ(m.pairwise.total(), m.total_cut);
  EXPECT_EQ(m.pairwise.at(0, 1), 5);
  EXPECT_EQ(m.pairwise.at(1, 2), 1);
}

TEST(Metrics, RejectsIncomplete) {
  const Graph g = square();
  Partition p(4, 2);
  EXPECT_THROW(compute_metrics(g, p), std::invalid_argument);
  Partition wrong_size(3, 2);
  EXPECT_THROW(compute_metrics(g, wrong_size), std::invalid_argument);
}

TEST(Violation, ComputedAgainstConstraints) {
  const Graph g = square();
  const PartitionMetrics m = compute_metrics(g, bisect01_23());
  Constraints c;
  c.rmax = 50;
  c.bmax = 1;
  const Violation v = compute_violation(m, c);
  EXPECT_EQ(v.resource_excess, 20);   // 70 - 50
  EXPECT_EQ(v.bandwidth_excess, 1);   // 2 - 1
  EXPECT_FALSE(v.feasible());
}

TEST(Violation, UnlimitedConstraintsAlwaysFeasible) {
  const Graph g = square();
  const PartitionMetrics m = compute_metrics(g, bisect01_23());
  const Violation v = compute_violation(m, Constraints{});
  EXPECT_TRUE(v.feasible());
  EXPECT_TRUE(Constraints{}.unconstrained());
}

TEST(Goodness, LexicographicOrder) {
  const Goodness a{0, 0, 100};
  const Goodness b{0, 1, 1};
  const Goodness c{1, 0, 0};
  const Goodness d{0, 0, 99};
  EXPECT_TRUE(a < b);   // bandwidth violation dominates cut
  EXPECT_TRUE(b < c);   // resource violation dominates bandwidth
  EXPECT_TRUE(d < a);   // cut breaks ties
  EXPECT_FALSE(a < a);
  EXPECT_TRUE(a == a);
}

TEST(Goodness, ComputedFromPartition) {
  const Graph g = square();
  Constraints c;
  c.rmax = 60;
  c.bmax = 10;
  const Goodness good = compute_goodness(g, bisect01_23(), c);
  EXPECT_EQ(good.resource_excess, 10);
  EXPECT_EQ(good.bandwidth_excess, 0);
  EXPECT_EQ(good.cut, 2);
}

TEST(Describe, MentionsViolations) {
  const Graph g = square();
  const PartitionMetrics m = compute_metrics(g, bisect01_23());
  Constraints c;
  c.rmax = 50;
  c.bmax = 100;
  const std::string s = describe(m, c);
  EXPECT_NE(s.find("VIOLATED"), std::string::npos);
  c.rmax = 100;
  const std::string s2 = describe(m, c);
  EXPECT_NE(s2.find("FEASIBLE"), std::string::npos);
}

TEST(RandomPartitioner, CompleteAndRoughlyBalanced) {
  support::Rng rng(8);
  const Graph g = graph::erdos_renyi_gnm(100, 200, rng, {1, 3}, {1, 3});
  RandomPartitioner random;
  PartitionRequest r;
  r.k = 5;
  r.seed = 9;
  const PartitionResult result = random.run(g, r);
  EXPECT_TRUE(result.partition.complete());
  EXPECT_LT(result.metrics.imbalance, 1.25);
}

}  // namespace
}  // namespace ppnpart::part
