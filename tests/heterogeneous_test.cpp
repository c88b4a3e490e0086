// Heterogeneous platform support: per-part resource budgets
// (Constraints::rmax_per_part). The paper evaluates the homogeneous case;
// real multi-FPGA boards mix device sizes, and its conclusions call for
// tests "on actual multi-FPGA based systems". These tests pin down the
// semantics: budgets apply per part id, the incremental movers agree with
// the from-scratch metrics, every constrained algorithm honours the
// asymmetry, and Platform::to_constraints() derives the right thing.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "mapping/platform.hpp"
#include "partition/exact.hpp"
#include "partition/gp.hpp"
#include "partition/move_context.hpp"
#include "partition/tabu.hpp"
#include "ppn/paper_instances.hpp"

namespace ppnpart::part {
namespace {

using graph::Graph;

/// Three unit-weight-ish clusters of very different sizes: weights force a
/// big/medium/small placement that only works if the big part id gets the
/// big budget.
Graph skewed_graph() {
  graph::GraphBuilder b(9);
  // Cluster A: nodes 0-3 (weight 10 each = 40), B: 4-6 (5 each = 15),
  // C: 7-8 (2 each = 4). Heavy intra-cluster edges, light bridges.
  const Weight w[9] = {10, 10, 10, 10, 5, 5, 5, 2, 2};
  for (graph::NodeId u = 0; u < 9; ++u) b.set_node_weight(u, w[u]);
  const auto clique = [&](std::initializer_list<graph::NodeId> nodes) {
    for (auto i = nodes.begin(); i != nodes.end(); ++i)
      for (auto j = std::next(i); j != nodes.end(); ++j)
        b.add_edge(*i, *j, 20);
  };
  clique({0, 1, 2, 3});
  clique({4, 5, 6});
  clique({7, 8});
  b.add_edge(3, 4, 1);
  b.add_edge(6, 7, 1);
  return b.build();
}

TEST(Heterogeneous, RmaxOfFallsBackToUniform) {
  Constraints c;
  c.rmax = 42;
  EXPECT_EQ(c.rmax_of(0), 42);
  EXPECT_EQ(c.rmax_of(7), 42);
  EXPECT_FALSE(c.heterogeneous());
  c.rmax_per_part = {10, 20, 30};
  EXPECT_TRUE(c.heterogeneous());
  EXPECT_EQ(c.rmax_of(0), 10);
  EXPECT_EQ(c.rmax_of(2), 30);
}

TEST(Heterogeneous, ViolationUsesPerPartBudgets) {
  const Graph g = skewed_graph();
  Partition p(9, 3);
  for (graph::NodeId u = 0; u < 4; ++u) p.set(u, 0);  // load 40
  for (graph::NodeId u = 4; u < 7; ++u) p.set(u, 1);  // load 15
  for (graph::NodeId u = 7; u < 9; ++u) p.set(u, 2);  // load 4
  const PartitionMetrics m = compute_metrics(g, p);

  Constraints fits;
  fits.rmax_per_part = {40, 15, 4};
  EXPECT_EQ(compute_violation(m, fits).resource_excess, 0);

  Constraints swapped;  // big budget on the wrong part id
  swapped.rmax_per_part = {4, 15, 40};
  EXPECT_EQ(compute_violation(m, swapped).resource_excess, 36);  // 40 - 4
}

TEST(Heterogeneous, MoveContextMatchesReferenceUnderAsymmetricBudgets) {
  support::Rng rng(3);
  const Graph g = graph::erdos_renyi_gnm(40, 120, rng, {1, 9}, {1, 7});
  Constraints c;
  c.rmax_per_part = {30, 60, 90, 120};
  c.bmax = 50;
  Partition p(40, 4);
  for (graph::NodeId u = 0; u < 40; ++u)
    p.set(u, static_cast<PartId>(u % 4));
  MoveContext ctx(g, p, c);
  // Random walk of moves; the incremental excess must track the reference.
  for (int step = 0; step < 200; ++step) {
    const auto u = static_cast<graph::NodeId>(rng.uniform_index(40));
    const auto q = static_cast<PartId>(rng.uniform_index(4));
    const Goodness predicted = ctx.goodness_after(u, q);
    ctx.apply(u, q);
    const Goodness actual = compute_goodness(g, ctx.partition(), c);
    ASSERT_EQ(ctx.goodness().resource_excess, actual.resource_excess);
    ASSERT_EQ(ctx.goodness().bandwidth_excess, actual.bandwidth_excess);
    ASSERT_EQ(ctx.goodness().cut, actual.cut);
    ASSERT_EQ(predicted.resource_excess, actual.resource_excess);
  }
}

TEST(Heterogeneous, GpExploitsTheBigDevice) {
  // Budgets {44, 18, 6}: feasible only when the 40-weight cluster lands on
  // part 0, the 15-weight cluster on part 1, the rest on part 2. A uniform
  // rmax of the same total (68/3 ≈ 22) would be infeasible outright.
  const Graph g = skewed_graph();
  PartitionRequest r;
  r.k = 3;
  r.seed = 5;
  r.constraints.rmax_per_part = {44, 18, 6};
  const PartitionResult result = GpPartitioner().run(g, r);
  EXPECT_TRUE(result.feasible);
  EXPECT_LE(result.metrics.loads[0], 44);
  EXPECT_LE(result.metrics.loads[1], 18);
  EXPECT_LE(result.metrics.loads[2], 6);
}

TEST(Heterogeneous, UniformEquivalentIsInfeasible) {
  const Graph g = skewed_graph();
  PartitionRequest r;
  r.k = 3;
  r.seed = 5;
  r.constraints.rmax = 23;  // mean of {44, 18, 6} rounded up
  const PartitionResult result = GpPartitioner().run(g, r);
  // The 4 x 10-weight clique cannot fit anywhere under 23… unless split,
  // which costs 20-weight edges; even then each half is 20 <= 23, so GP
  // may find a feasible split — but loads[*] <= 23 must hold if so.
  if (result.feasible) {
    for (const Weight load : result.metrics.loads) EXPECT_LE(load, 23);
  }
}

TEST(Heterogeneous, ExactHonoursPerPartBudgets) {
  const Graph g = skewed_graph();
  Constraints c;
  c.rmax_per_part = {44, 18, 6};
  const ExactResult exact = exact_min_cut(g, 3, c);
  ASSERT_TRUE(exact.found);
  EXPECT_TRUE(exact.optimal);
  const PartitionMetrics m = compute_metrics(g, exact.partition);
  EXPECT_LE(m.loads[0], 44);
  EXPECT_LE(m.loads[1], 18);
  EXPECT_LE(m.loads[2], 6);
  // The natural clustering cuts only the two unit bridges.
  EXPECT_EQ(exact.cut, 2);
}

TEST(Heterogeneous, TabuStaysValid) {
  const Graph g = skewed_graph();
  PartitionRequest r;
  r.k = 3;
  r.seed = 11;
  r.constraints.rmax_per_part = {44, 18, 6};
  const PartitionResult result = TabuPartitioner().run(g, r);
  EXPECT_TRUE(result.partition.complete());
  const PartitionMetrics reference = compute_metrics(g, result.partition);
  EXPECT_EQ(result.metrics.total_cut, reference.total_cut);
}

TEST(Heterogeneous, PlatformToConstraintsUniform) {
  const mapping::Platform p = mapping::Platform::all_to_all(4, 900, 32);
  const Constraints c = p.to_constraints();
  EXPECT_FALSE(c.heterogeneous());
  EXPECT_EQ(c.rmax, 900);
  EXPECT_EQ(c.bmax, 32);
}

TEST(Heterogeneous, PlatformToConstraintsMixedDevices) {
  mapping::Platform p("mixed");
  p.add_device({"big", 2000});
  p.add_device({"small", 500});
  p.add_device({"small2", 500});
  p.add_link(0, 1, 40);
  p.add_link(0, 2, 24);
  p.add_link(1, 2, 16);
  const Constraints c = p.to_constraints();
  ASSERT_TRUE(c.heterogeneous());
  EXPECT_EQ(c.rmax_per_part, (std::vector<Weight>{2000, 500, 500}));
  EXPECT_EQ(c.bmax, 16);  // conservative: the weakest link
}

TEST(Heterogeneous, PaperInstanceWithOneSmallDevice) {
  // Experiment 1's instance, but FPGA 3 is half-size: GP must still meet
  // all budgets or report infeasible — never silently violate.
  const ppn::PaperInstance inst = ppn::paper_instance(1);
  PartitionRequest r;
  r.k = inst.k;
  r.seed = 17;
  r.constraints.bmax = inst.constraints.bmax;
  r.constraints.rmax_per_part = {165, 165, 165, 82};
  const PartitionResult result = GpPartitioner().run(inst.graph, r);
  const Violation v = compute_violation(
      compute_metrics(inst.graph, result.partition), r.constraints);
  EXPECT_EQ(result.feasible, v.feasible());
  if (result.feasible) {
    EXPECT_LE(result.metrics.loads[3], 82);
  }
}

class HeteroSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeteroSeedSweep, IncrementalExcessAlwaysMatchesReference) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);
  const Graph g = graph::erdos_renyi_gnm(30, 90, rng, {1, 8}, {1, 6});
  Constraints c;
  c.rmax_per_part = {20, 40, 80};
  PartitionRequest r;
  r.k = 3;
  r.seed = seed;
  r.constraints = c;
  const PartitionResult result = GpPartitioner().run(g, r);
  const Violation v =
      compute_violation(compute_metrics(g, result.partition), c);
  EXPECT_EQ(result.violation.resource_excess, v.resource_excess);
  EXPECT_EQ(result.feasible, v.feasible());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeteroSeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ppnpart::part
