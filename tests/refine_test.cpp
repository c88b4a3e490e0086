#include <gtest/gtest.h>

#include <cstdio>

#include "graph/generators.hpp"
#include "partition/initial.hpp"
#include "partition/refine.hpp"

namespace ppnpart::part {
namespace {

// ------------------------------------------------------- constrained FM ---

class FmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FmProperty, NeverWorsensGoodness) {
  support::Rng rng(GetParam());
  const Graph g = graph::erdos_renyi_gnm(60, 220, rng, {1, 20}, {1, 10});
  const PartId k = 4;
  Partition p = random_balanced_partition(g, k, rng);
  Constraints c;
  c.rmax = g.total_node_weight() / k + 30;
  c.bmax = 60;
  const Goodness before = compute_goodness(g, p, c);
  support::Rng frng(GetParam() * 3);
  constrained_fm_refine(g, p, c, FmOptions{}, frng);
  const Goodness after = compute_goodness(g, p, c);
  EXPECT_FALSE(before < after) << "FM worsened the goodness";
  EXPECT_TRUE(p.complete());
}

TEST_P(FmProperty, ImprovesRandomPartitionCut) {
  support::Rng rng(GetParam() + 100);
  const Graph g = graph::ring_of_cliques(6, 5, 10, 1);
  Partition p = random_balanced_partition(g, 3, rng);
  const Goodness before = compute_goodness(g, p, Constraints{});
  support::Rng frng(GetParam() * 7);
  constrained_fm_refine(g, p, Constraints{}, FmOptions{}, frng);
  const Goodness after = compute_goodness(g, p, Constraints{});
  // Random 3-way of a 6-clique ring is nowhere near optimal; FM must help.
  EXPECT_LT(after.cut, before.cut);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(ConstrainedFm, RepairsResourceViolation) {
  // Two heavy nodes stacked in one part; Rmax forces a spread.
  graph::GraphBuilder b(4);
  b.set_node_weight(0, 50);
  b.set_node_weight(1, 50);
  b.set_node_weight(2, 10);
  b.set_node_weight(3, 10);
  b.add_edge(0, 1, 1);
  b.add_edge(2, 3, 1);
  b.add_edge(0, 2, 1);
  b.add_edge(1, 3, 1);
  const Graph g = b.build();
  Partition p(4, 2);
  p.set(0, 0);
  p.set(1, 0);  // load 100
  p.set(2, 1);
  p.set(3, 1);  // load 20
  Constraints c;
  c.rmax = 70;
  support::Rng rng(5);
  EXPECT_TRUE(constrained_fm_refine(g, p, c, FmOptions{}, rng));
  const Goodness after = compute_goodness(g, p, c);
  EXPECT_EQ(after.resource_excess, 0);
}

TEST(ConstrainedFm, RepairsBandwidthViolation) {
  // All cross traffic concentrated between parts 0 and 1; moving one node
  // to part 2 spreads it.
  graph::GraphBuilder b(6);
  b.add_edge(0, 3, 10);
  b.add_edge(1, 4, 10);
  b.add_edge(2, 5, 10);
  b.add_edge(0, 1, 1);
  b.add_edge(3, 4, 1);
  const Graph g = b.build();
  Partition p(6, 3);
  p.set(0, 0);
  p.set(1, 0);
  p.set(2, 0);
  p.set(3, 1);
  p.set(4, 1);
  p.set(5, 2);
  Constraints c;
  c.bmax = 15;  // pair (0,1) carries 20
  EXPECT_GT(compute_goodness(g, p, c).bandwidth_excess, 0);
  support::Rng rng(6);
  constrained_fm_refine(g, p, c, FmOptions{}, rng);
  EXPECT_EQ(compute_goodness(g, p, c).bandwidth_excess, 0);
}

TEST(ConstrainedFm, FindsObviousCutImprovement) {
  // Two triangles joined by a light edge, split across the triangles.
  graph::GraphBuilder b(6);
  for (NodeId u = 0; u < 3; ++u) {
    for (NodeId v = u + 1; v < 3; ++v) b.add_edge(u, v, 10);
  }
  for (NodeId u = 3; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) b.add_edge(u, v, 10);
  }
  b.add_edge(2, 3, 1);
  const Graph g = b.build();
  Partition p(6, 2);  // deliberately bad: mixes the triangles
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 0);
  p.set(3, 1);
  p.set(4, 0);
  p.set(5, 1);
  support::Rng rng(7);
  constrained_fm_refine(g, p, Constraints{}, FmOptions{}, rng);
  EXPECT_EQ(compute_goodness(g, p, Constraints{}).cut, 1);
}

TEST(ConstrainedFm, StallRuleBoundsRolledBackMoves) {
  // A 3000-node PN from a random 8-way split under slack-1.3 constraints:
  // passes run far past their best prefix, so the stall rule ends them, and
  // no pass rolls back more than kFmStallMoves moves.
  graph::ProcessNetworkParams params;
  params.num_nodes = 3000;
  params.layers = 3000 / 16;
  support::Rng rng(21);
  const Graph g = graph::random_process_network(params, rng);
  const PartId k = 8;
  Partition p = random_balanced_partition(g, k, rng);
  Constraints c;
  c.rmax = g.total_node_weight() * 13 / (10 * k);
  c.bmax = g.total_edge_weight() * 13 / (10 * k * (k - 1));
  const Goodness before = compute_goodness(g, p, c);
  Workspace ws;
  support::Rng frng(22);
  constrained_fm_refine(g, p, c, FmOptions{}, frng, ws);
  const FmTotals& t = ws.fm.totals;
  std::printf("passes %llu stalled %llu applied %llu kept %llu\n",
              static_cast<unsigned long long>(t.passes),
              static_cast<unsigned long long>(t.stalled),
              static_cast<unsigned long long>(t.applied),
              static_cast<unsigned long long>(t.kept));
  EXPECT_GE(t.stalled, 1u);
  EXPECT_LE(t.applied - t.kept, t.passes * kFmStallMoves);
  EXPECT_FALSE(before < compute_goodness(g, p, c));
}

// ------------------------------------------------------- greedy refine ---

TEST(GreedyCutRefine, RespectsLoadCap) {
  support::Rng rng(8);
  const Graph g = graph::erdos_renyi_gnm(40, 160, rng, {1, 10}, {1, 10});
  Partition p = random_balanced_partition(g, 4, rng);
  const Weight cap = g.total_node_weight() / 4 + g.max_node_weight();
  const Weight before = compute_metrics(g, p).total_cut;
  support::Rng grng(9);
  Workspace ws;
  greedy_cut_refine(g, p, cap, GreedyRefineOptions{}, grng, ws);
  const PartitionMetrics after = compute_metrics(g, p);
  EXPECT_LE(after.total_cut, before);
  EXPECT_LE(after.max_load, cap);
}

TEST(GreedyCutRefine, NoMovesWhenCapForbids) {
  // Cap equal to current max load: only moves into lighter parts allowed.
  graph::GraphBuilder b(2);
  b.set_node_weight(0, 10);
  b.set_node_weight(1, 10);
  b.add_edge(0, 1, 5);
  const Graph g = b.build();
  Partition p(2, 2);
  p.set(0, 0);
  p.set(1, 1);
  support::Rng rng(10);
  Workspace ws;
  greedy_cut_refine(g, p, 10, GreedyRefineOptions{}, rng, ws);
  // Merging would reduce the cut but blow the cap; must stay split.
  EXPECT_EQ(compute_metrics(g, p).max_load, 10);
}

// --------------------------------------------------------- bisection FM ---

TEST(BisectionFm, BalancesTwoCliques) {
  const Graph g = graph::ring_of_cliques(2, 6, 10, 1);
  Partition p(g.num_nodes(), 2);
  // Terrible start: alternate nodes.
  for (NodeId u = 0; u < g.num_nodes(); ++u) p.set(u, u % 2);
  const Weight half = g.total_node_weight() / 2;
  support::Rng rng(11);
  Workspace ws;
  bisection_fm_refine(g, p, half, half, 10, rng, ws);
  const PartitionMetrics m = compute_metrics(g, p);
  EXPECT_LE(m.max_load, half);
  // The clean cut separates the cliques (ring has 2 bridges).
  EXPECT_LE(m.total_cut, 2);
}

TEST(BisectionFm, RequiresK2) {
  const Graph g = graph::ring_of_cliques(2, 3);
  Partition p(g.num_nodes(), 3);
  for (NodeId u = 0; u < g.num_nodes(); ++u) p.set(u, 0);
  support::Rng rng(12);
  Workspace ws;
  EXPECT_THROW(bisection_fm_refine(g, p, 10, 10, 4, rng, ws),
               std::invalid_argument);
}

TEST(BisectionFm, ReducesOverweightFirst) {
  graph::GraphBuilder b(4);
  b.set_node_weight(0, 40);
  b.set_node_weight(1, 40);
  b.set_node_weight(2, 10);
  b.set_node_weight(3, 10);
  b.add_edge(0, 1, 100);  // expensive to separate
  b.add_edge(2, 3, 1);
  b.add_edge(0, 2, 1);
  const Graph g = b.build();
  Partition p(4, 2);
  p.set(0, 0);
  p.set(1, 0);  // 80 > cap
  p.set(2, 1);
  p.set(3, 1);
  support::Rng rng(13);
  Workspace ws;
  bisection_fm_refine(g, p, 60, 60, 10, rng, ws);
  const PartitionMetrics m = compute_metrics(g, p);
  EXPECT_LE(m.max_load, 60) << "overweight must dominate the heavy edge";
}

// ---------------------------------------------------------- swap refine ---

TEST(SwapRefine, FixesTightResourceDeadlock) {
  // Equal-weight nodes, parts exactly full (Rmax = 30): any single move
  // overloads a part by 15, so only the swap neighbourhood can reach the
  // cut-2 optimum while staying feasible.
  graph::GraphBuilder b(4);
  for (NodeId u = 0; u < 4; ++u) b.set_node_weight(u, 15);
  b.add_edge(0, 2, 10);  // wants to merge 0 with 2
  b.add_edge(1, 3, 10);  // wants to merge 1 with 3
  b.add_edge(0, 1, 1);
  b.add_edge(2, 3, 1);
  const Graph g = b.build();
  Partition p(4, 2);
  p.set(0, 0);
  p.set(1, 0);  // 30 (full)
  p.set(2, 1);
  p.set(3, 1);  // 30 (full)
  Constraints c;
  c.rmax = 30;
  // Cut is 20; the swap 1<->2 gives cut 2 while keeping loads at 30.
  support::Rng rng(14);
  Workspace ws;
  EXPECT_TRUE(swap_refine(g, p, c, SwapRefineOptions{}, rng, ws));
  const Goodness after = compute_goodness(g, p, c);
  EXPECT_EQ(after.resource_excess, 0);
  EXPECT_EQ(after.cut, 2);
}

TEST(SwapRefine, SkipsLargeGraphs) {
  support::Rng rng(15);
  const Graph g = graph::erdos_renyi_gnm(300, 600, rng);
  Partition p = random_balanced_partition(g, 2, rng);
  SwapRefineOptions options;
  options.max_nodes = 100;
  Workspace ws;
  EXPECT_FALSE(swap_refine(g, p, Constraints{}, options, rng, ws));
}

TEST(SwapRefine, NeverWorsens) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    support::Rng rng(seed);
    const Graph g = graph::erdos_renyi_gnm(24, 80, rng, {1, 15}, {1, 9});
    Partition p = random_balanced_partition(g, 3, rng);
    Constraints c;
    c.rmax = g.total_node_weight() / 3 + 10;
    c.bmax = 30;
    const Goodness before = compute_goodness(g, p, c);
    Workspace ws;
    swap_refine(g, p, c, SwapRefineOptions{}, rng, ws);
    const Goodness after = compute_goodness(g, p, c);
    EXPECT_FALSE(before < after) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ppnpart::part
