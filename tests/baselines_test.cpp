// Tests for tabu search, the related-work baseline from the paper's
// Section II survey that the default portfolio races. It must (a) produce
// complete partitions, (b) be deterministic given a seed, and (c) show its
// characteristic behaviour (it escapes FM-style lock-in).

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/tabu.hpp"
#include "ppn/paper_instances.hpp"

namespace ppnpart::part {
namespace {

using graph::Graph;

Graph test_graph(std::uint64_t seed, graph::NodeId n = 60,
                 std::uint64_t m = 180) {
  support::Rng rng(seed);
  return graph::erdos_renyi_gnm(n, m, rng, {1, 8}, {1, 12});
}

PartitionRequest basic_request(PartId k, std::uint64_t seed) {
  PartitionRequest r;
  r.k = k;
  r.seed = seed;
  return r;
}

// ---------------------------------------------------------------------------
// Tabu search
// ---------------------------------------------------------------------------

TEST(Tabu, ProducesCompletePartition) {
  const Graph g = test_graph(67);
  const PartitionResult r = TabuPartitioner().run(g, basic_request(4, 3));
  EXPECT_TRUE(r.partition.complete());
  EXPECT_EQ(r.algorithm, "Tabu");
}

TEST(Tabu, RefineImprovesBadPartition) {
  const Graph g = graph::ring_of_cliques(4, 6, 15, 1);
  Partition p(g.num_nodes(), 4);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
    p.set(u, static_cast<PartId>(u % 4));  // stripes across cliques
  Constraints c;  // unconstrained: pure cut descent
  const Weight before = compute_metrics(g, p).total_cut;
  support::Rng rng(71);
  TabuOptions options;
  const bool improved = tabu_refine(g, p, c, options, rng);
  const Weight after = compute_metrics(g, p).total_cut;
  EXPECT_TRUE(improved);
  EXPECT_LT(after, before);
}

TEST(Tabu, WalkReturnsBestVisitedNotLast) {
  // Even with a tenure that forces the walk uphill at the end, the result
  // must equal the best state seen. We proxy this by checking the returned
  // goodness is never worse than the initial one.
  const ppn::PaperInstance inst = ppn::paper_instance(1);
  Partition p(inst.graph.num_nodes(), inst.k);
  for (graph::NodeId u = 0; u < inst.graph.num_nodes(); ++u)
    p.set(u, static_cast<PartId>(u % inst.k));
  const Goodness initial =
      compute_goodness(inst.graph, p, inst.constraints);
  support::Rng rng(73);
  TabuOptions options;
  options.iterations_per_node = 64;
  tabu_refine(inst.graph, p, inst.constraints, options, rng);
  const Goodness final_good =
      compute_goodness(inst.graph, p, inst.constraints);
  EXPECT_FALSE(initial < final_good);
}

TEST(Tabu, MeetsConstraintsOnPaperInstances) {
  for (int i = 1; i <= 3; ++i) {
    const ppn::PaperInstance inst = ppn::paper_instance(i);
    PartitionRequest r;
    r.k = inst.k;
    r.seed = 79;
    r.constraints = inst.constraints;
    TabuOptions options;
    options.iterations_per_node = 128;
    const PartitionResult result =
        TabuPartitioner(options).run(inst.graph, r);
    EXPECT_TRUE(result.feasible) << "instance " << i;
  }
}

TEST(Tabu, DeterministicGivenSeed) {
  const Graph g = test_graph(83);
  const PartitionResult a = TabuPartitioner().run(g, basic_request(3, 89));
  const PartitionResult b = TabuPartitioner().run(g, basic_request(3, 89));
  EXPECT_EQ(a.partition.assignments(), b.partition.assignments());
}

// ---------------------------------------------------------------------------
// Seed sweep (property-style)
// ---------------------------------------------------------------------------

class BaselineSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineSeedSweep, AllBaselinesProduceValidPartitions) {
  const std::uint64_t seed = GetParam();
  const Graph g = test_graph(seed, 36, 100);
  PartitionRequest r = basic_request(4, seed * 3 + 1);

  TabuOptions tabu_opts;
  tabu_opts.iterations_per_node = 8;
  const PartitionResult result = TabuPartitioner(tabu_opts).run(g, r);
  EXPECT_TRUE(result.partition.complete());
  EXPECT_EQ(result.partition.size(), g.num_nodes());
  // Metrics must agree with a from-scratch recomputation.
  const PartitionMetrics reference = compute_metrics(g, result.partition);
  EXPECT_EQ(result.metrics.total_cut, reference.total_cut);
  EXPECT_EQ(result.metrics.max_load, reference.max_load);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineSeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ppnpart::part
