#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.hpp"
#include "partition/coarsen.hpp"
#include "partition/coarsen_cache.hpp"

namespace ppnpart::part {
namespace {

TEST(Contract, PairMergesWeights) {
  // 0-1 matched (w3); 0-2 (w4), 1-2 (w5) fold into one coarse edge w9.
  graph::GraphBuilder b(3);
  b.set_node_weight(0, 10);
  b.set_node_weight(1, 20);
  b.set_node_weight(2, 30);
  b.add_edge(0, 1, 3);
  b.add_edge(0, 2, 4);
  b.add_edge(1, 2, 5);
  const Graph g = b.build();
  Workspace ws;
  const CoarseLevel level = contract(g, {1, 0, 2}, ws);
  EXPECT_EQ(level.graph.num_nodes(), 2u);
  EXPECT_EQ(level.graph.num_edges(), 1u);
  EXPECT_EQ(level.graph.node_weight(0), 30);  // 10 + 20
  EXPECT_EQ(level.graph.node_weight(1), 30);
  EXPECT_EQ(level.graph.edge_weight_between(0, 1), 9);
  EXPECT_EQ(level.fine_to_coarse[0], level.fine_to_coarse[1]);
  EXPECT_NE(level.fine_to_coarse[0], level.fine_to_coarse[2]);
}

TEST(Contract, IdentityMatchingKeepsGraph) {
  support::Rng rng(2);
  const Graph g = graph::erdos_renyi_gnm(20, 50, rng, {1, 5}, {1, 5});
  Matching identity(g.num_nodes());
  std::iota(identity.begin(), identity.end(), NodeId{0});
  Workspace ws;
  const CoarseLevel level = contract(g, identity, ws);
  EXPECT_EQ(level.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(level.graph.num_edges(), g.num_edges());
  EXPECT_EQ(level.graph.total_edge_weight(), g.total_edge_weight());
}

class ContractConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContractConservation, WeightsConserved) {
  support::Rng rng(GetParam());
  const Graph g = graph::erdos_renyi_gnm(80, 240, rng, {1, 9}, {1, 9});
  support::Rng mrng(GetParam() * 7);
  const Matching m = heavy_edge_matching(g, mrng);
  Workspace ws;
  const CoarseLevel level = contract(g, m, ws);
  // Node weight is always conserved.
  EXPECT_EQ(level.graph.total_node_weight(), g.total_node_weight());
  // Edge weight shrinks by exactly the matched (hidden) weight.
  EXPECT_EQ(level.graph.total_edge_weight() + matched_edge_weight(g, m),
            g.total_edge_weight());
  EXPECT_TRUE(level.graph.validate().empty());
  // fine_to_coarse is a surjection onto [0, coarse_n).
  std::vector<bool> hit(level.graph.num_nodes(), false);
  for (NodeId c : level.fine_to_coarse) {
    ASSERT_LT(c, level.graph.num_nodes());
    hit[c] = true;
  }
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool x) { return x; }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractConservation,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Coarsen, StopsAtTarget) {
  support::Rng rng(3);
  const Graph g = graph::erdos_renyi_gnm(500, 2000, rng, {1, 5}, {1, 5});
  CoarsenOptions options;
  options.coarsen_to = 60;
  support::Rng crng(11);
  const Hierarchy h = coarsen(g, options, crng);
  EXPECT_GT(h.num_levels(), 1u);
  EXPECT_LE(h.coarsest().num_nodes(), 120u);  // roughly halves per level
  // Monotone shrink.
  for (std::size_t i = 1; i < h.num_levels(); ++i) {
    EXPECT_LT(h.level_graph(i, g).num_nodes(),
              h.level_graph(i - 1, g).num_nodes());
  }
  EXPECT_EQ(h.levels.size(), h.num_levels() - 1);
}

TEST(Coarsen, SmallGraphIsSingleLevel) {
  support::Rng rng(4);
  const Graph g = graph::erdos_renyi_gnm(12, 30, rng);
  CoarsenOptions options;  // coarsen_to = 100
  support::Rng crng(5);
  const Hierarchy h = coarsen(g, options, crng);
  EXPECT_EQ(h.num_levels(), 1u);
}

TEST(Coarsen, EdgelessGraphStops) {
  graph::GraphBuilder b(200);
  const Graph g = b.build();
  CoarsenOptions options;
  options.coarsen_to = 50;
  support::Rng rng(6);
  const Hierarchy h = coarsen(g, options, rng);
  EXPECT_EQ(h.num_levels(), 1u);  // nothing contractible
}

TEST(Coarsen, ProjectionRoundTrip) {
  support::Rng rng(7);
  const Graph g = graph::erdos_renyi_gnm(300, 900, rng, {1, 5}, {1, 5});
  CoarsenOptions options;
  options.coarsen_to = 40;
  support::Rng crng(8);
  const Hierarchy h = coarsen(g, options, crng);
  // Assign each coarsest node a distinct label; projection must give every
  // fine node the label of its coarse ancestor.
  std::vector<PartId> coarse(h.coarsest().num_nodes());
  for (std::size_t i = 0; i < coarse.size(); ++i) {
    coarse[i] = static_cast<PartId>(i % 7);
  }
  const std::vector<PartId> fine = h.project_to_level(coarse, 0);
  ASSERT_EQ(fine.size(), g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    NodeId c = u;
    for (const CoarseLevel& level : h.levels) c = level.fine_to_coarse[c];
    EXPECT_EQ(fine[u], coarse[c]);
  }
}

TEST(Coarsen, HierarchyNeverHoldsItsInput) {
  // coarsen(), coarsen_restricted() and the coarsening cache all return the
  // one shape: the coarse levels only, with the caller's graph as level 0.
  const auto build_all = [](const Graph& g) {
    CoarsenOptions options;
    options.coarsen_to = 40;
    support::Rng rng(13);
    Workspace ws;
    const std::vector<PartId> parts(g.num_nodes(), 0);
    CoarseningCache cache;
    std::vector<Hierarchy> all;
    all.push_back(coarsen(g, options, rng));
    all.push_back(coarsen_restricted(g, parts, options, rng, ws).hierarchy);
    all.push_back(*cache.hierarchy(graph_digest(g), options, g));
    return all;
  };

  support::Rng rng(14);
  const Graph big = graph::erdos_renyi_gnm(300, 900, rng, {1, 5}, {1, 5});
  for (const Hierarchy& h : build_all(big)) {
    ASSERT_GT(h.num_levels(), 1u);
    EXPECT_EQ(h.levels.size(), h.num_levels() - 1);
    for (std::size_t i = 1; i < h.num_levels(); ++i)
      EXPECT_LT(h.level_graph(i, big).num_nodes(),
                h.level_graph(i - 1, big).num_nodes());
    EXPECT_EQ(&h.level_graph(0, big), &big);
    EXPECT_EQ(&h.coarsest(big), &h.coarsest());
  }

  const Graph small = graph::erdos_renyi_gnm(12, 30, rng);
  for (const Hierarchy& h : build_all(small)) {
    EXPECT_EQ(h.num_levels(), 1u);
    EXPECT_EQ(&h.coarsest(small), &small);
  }
}

TEST(Coarsen, ThrowsWithoutStrategies) {
  CoarsenOptions options;
  options.strategies.clear();
  support::Rng rng(9);
  EXPECT_THROW(coarsen(Graph(), options, rng), std::invalid_argument);

  // The restricted form refuses too, on a fresh workspace and on one that
  // coarsened before (whose race slots hold a stale matching).
  const Graph g = graph::erdos_renyi_gnm(300, 900, rng, {1, 5}, {1, 5});
  const std::vector<PartId> parts(g.num_nodes(), 0);
  Workspace fresh;
  EXPECT_THROW(coarsen_restricted(g, parts, options, rng, fresh),
               std::invalid_argument);
  Workspace used;
  (void)coarsen(g, CoarsenOptions{}, rng, used);
  EXPECT_THROW(coarsen_restricted(g, parts, options, rng, used),
               std::invalid_argument);
}

TEST(CoarsenRestricted, PreservesPartition) {
  support::Rng rng(10);
  const Graph g = graph::erdos_renyi_gnm(400, 1600, rng, {1, 5}, {1, 5});
  // Arbitrary 4-way labels.
  std::vector<PartId> parts(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) parts[u] = u % 4;
  CoarsenOptions options;
  options.coarsen_to = 50;
  support::Rng crng(11);
  Workspace ws;
  const RestrictedHierarchy rh =
      coarsen_restricted(g, parts, options, crng, ws);
  // Every coarse node has a consistent part, and projecting back yields the
  // original labels exactly.
  ASSERT_EQ(rh.coarse_parts.size(), rh.hierarchy.coarsest().num_nodes());
  const std::vector<PartId> back =
      rh.hierarchy.project_to_level(rh.coarse_parts, 0);
  EXPECT_EQ(back, parts);
}

TEST(CoarsenRestricted, SizeMismatchThrows) {
  support::Rng rng(12);
  const Graph g = graph::erdos_renyi_gnm(10, 20, rng);
  CoarsenOptions options;
  Workspace ws;
  EXPECT_THROW(coarsen_restricted(g, {0, 1}, options, rng, ws),
               std::invalid_argument);
}

TEST(MatchingKindNames, AllDistinct) {
  EXPECT_EQ(to_string(MatchingKind::kRandom), "random");
  EXPECT_EQ(to_string(MatchingKind::kHeavyEdge), "heavy-edge");
  EXPECT_EQ(to_string(MatchingKind::kKMeans), "k-means");
}

}  // namespace
}  // namespace ppnpart::part
