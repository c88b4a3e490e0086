// Unit tests for the shared-memory parallel multilevel kernels
// (partition/parallel.hpp): matching validity, chunk-count invariance of
// every kernel, the goodness-monotonicity of parallel LP refinement, and
// the allocation-free steady state of GP runs that use it.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/gp.hpp"
#include "partition/parallel.hpp"
#include "partition/workspace.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace ppnpart;
using part::Matching;
using part::ParallelOptions;
using part::Workspace;
using graph::Weight;

graph::Graph pn_graph(graph::NodeId n, std::uint64_t seed) {
  graph::ProcessNetworkParams params;
  params.num_nodes = n;
  params.layers = std::max<std::uint32_t>(8, n / 24);
  support::Rng rng(seed);
  return graph::random_process_network(params, rng);
}

ParallelOptions opts_for(std::uint32_t threads) {
  ParallelOptions o;
  o.threads = threads;
  return o;
}

TEST(ParallelMatching, DeterministicModeIsValidAndChunkCountInvariant) {
  const graph::Graph g = pn_graph(3000, 7);
  support::ThreadPool& pool = support::ThreadPool::global();
  Workspace ws;
  Matching reference;
  const Weight ref_w =
      parallel_heavy_edge_matching(g, opts_for(1), reference, ws, pool);
  EXPECT_EQ(part::validate_matching(g, reference), "");
  EXPECT_GT(part::matched_pair_count(reference), 0u);
  EXPECT_EQ(ref_w, part::matched_edge_weight(g, reference));
  for (std::uint32_t p : {2u, 3u, 8u}) {
    Matching m;
    const Weight w = parallel_heavy_edge_matching(g, opts_for(p), m, ws, pool);
    EXPECT_EQ(m, reference) << "threads=" << p;
    EXPECT_EQ(w, ref_w) << "threads=" << p;
  }
}

TEST(ParallelLpRefine, ImprovesGoodnessMonotonicallyAndDeterministically) {
  const graph::Graph g = pn_graph(3000, 23);
  support::ThreadPool& pool = support::ThreadPool::global();
  const part::PartId k = 6;
  part::Constraints c;
  c.rmax = static_cast<Weight>(1.10 * static_cast<double>(
                                          g.total_node_weight()) /
                               static_cast<double>(k));

  // A deliberately bad but legal start: strided assignment.
  const auto start = [&] {
    part::Partition p(g.num_nodes(), k);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
      p.set(u, static_cast<part::PartId>(u % k));
    return p;
  };

  Workspace ws;
  part::Partition ref = start();
  const part::Goodness before = part::compute_goodness(g, ref, c);
  part::LpRefineOptions lp;
  const bool improved =
      parallel_lp_refine(g, ref, c, lp, opts_for(1), ws, pool);
  const part::Goodness after = part::compute_goodness(g, ref, c);
  EXPECT_TRUE(improved);
  EXPECT_TRUE(after < before);

  for (std::uint32_t p : {2u, 8u}) {
    part::Partition q = start();
    parallel_lp_refine(g, q, c, lp, opts_for(p), ws, pool);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
      ASSERT_EQ(q[u], ref[u]) << "threads=" << p << " node=" << u;
  }
}

TEST(ParallelLpRefine, RespectsResourceBudgetAsLeadingObjective) {
  const graph::Graph g = pn_graph(2048, 29);
  support::ThreadPool& pool = support::ThreadPool::global();
  const part::PartId k = 4;
  part::Constraints c;
  c.rmax = static_cast<Weight>(1.05 * static_cast<double>(
                                          g.total_node_weight()) /
                               static_cast<double>(k));
  Workspace ws;
  part::Partition p(g.num_nodes(), k);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
    p.set(u, static_cast<part::PartId>(u % k));
  const part::Goodness before = part::compute_goodness(g, p, c);
  part::LpRefineOptions lp;
  parallel_lp_refine(g, p, c, lp, opts_for(4), ws, pool);
  const part::Goodness after = part::compute_goodness(g, p, c);
  // LP commits strictly improving moves only, so the leading component
  // (resource excess) can never regress.
  EXPECT_LE(after.resource_excess, before.resource_excess);
  EXPECT_FALSE(before < after);
}

TEST(ParallelGp, WarmRunThroughReusedWorkspaceDoesNotGrowIt) {
  // GP refines every level of at least min_parallel_nodes with chunked LP;
  // a second identical run through the same workspace must find every
  // buffer (LP arenas included) already sized.
  const graph::Graph g = pn_graph(5000, 31);
  ASSERT_GE(g.num_nodes(), ParallelOptions{}.min_parallel_nodes);
  Workspace ws;
  part::GpOptions options;
  options.max_cycles = 2;
  part::GpPartitioner gp(options);
  part::PartitionRequest request;
  request.k = 4;
  request.seed = 5;
  request.threads = 4;
  request.constraints.rmax = g.total_node_weight() / 3;
  request.workspace = &ws;
  const part::PartitionResult warm = gp.run(g, request);
  const std::uint64_t growths_before = ws.stats().growths;
  const part::PartitionResult again = gp.run(g, request);
  EXPECT_EQ(ws.stats().growths - growths_before, 0u);
  EXPECT_EQ(again.partition.assignments(), warm.partition.assignments());
}

}  // namespace
