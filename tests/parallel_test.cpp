// Unit tests for the shared-memory parallel multilevel kernels
// (partition/parallel.hpp): matching validity, bit-exact agreement of the
// chunked fine-to-coarse assignment with the serial scan, chunk-count
// invariance of every kernel, and the goodness-monotonicity of parallel LP
// refinement.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/coarsen.hpp"
#include "partition/coarsen_cache.hpp"
#include "partition/initial.hpp"
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

/// Serial reference of the coarse-id assignment (mirrors the ascending
/// first-touch scan in coarsen.cpp).
graph::NodeId serial_fine_to_coarse(const graph::Graph& g, const Matching& m,
                                    std::vector<graph::NodeId>& out) {
  out.assign(g.num_nodes(), graph::kInvalidNode);
  graph::NodeId next = 0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (out[u] != graph::kInvalidNode) continue;
    out[u] = next;
    if (m[u] != u) out[m[u]] = next;
    ++next;
  }
  return next;
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

TEST(ParallelFineToCoarse, MatchesSerialScanBitExactly) {
  const graph::Graph g = pn_graph(2500, 13);
  support::ThreadPool& pool = support::ThreadPool::global();
  Workspace ws;
  Matching m;
  parallel_heavy_edge_matching(g, opts_for(4), m, ws, pool);
  std::vector<graph::NodeId> serial;
  const graph::NodeId serial_n = serial_fine_to_coarse(g, m, serial);
  for (std::uint32_t p : {1u, 2u, 5u, 8u}) {
    std::vector<graph::NodeId> par;
    const graph::NodeId par_n =
        parallel_fine_to_coarse(g, m, opts_for(p), par, ws, pool);
    EXPECT_EQ(par_n, serial_n) << "threads=" << p;
    EXPECT_EQ(par, serial) << "threads=" << p;
  }
}

TEST(ParallelCoarsen, HierarchyIsChunkCountInvariant) {
  const graph::Graph g = pn_graph(4000, 17);
  support::ThreadPool& pool = support::ThreadPool::global();
  part::CoarsenOptions copts;
  Workspace ws;
  const part::Hierarchy ref = parallel_coarsen(g, copts, opts_for(1), ws, pool);
  ASSERT_GT(ref.num_levels(), 1u);
  EXPECT_LE(ref.coarsest().num_nodes(), 4000u);
  for (std::uint32_t p : {2u, 8u}) {
    const part::Hierarchy h = parallel_coarsen(g, copts, opts_for(p), ws, pool);
    ASSERT_EQ(h.num_levels(), ref.num_levels()) << "threads=" << p;
    for (std::size_t lvl = 0; lvl < h.num_levels(); ++lvl) {
      EXPECT_EQ(part::graph_digest(h.graphs[lvl]),
                part::graph_digest(ref.graphs[lvl]))
          << "threads=" << p << " level=" << lvl;
    }
    EXPECT_EQ(h.maps, ref.maps) << "threads=" << p;
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

}  // namespace
