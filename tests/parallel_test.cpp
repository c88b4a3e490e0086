// Unit tests for the shared-memory parallel multilevel kernels
// (partition/parallel.hpp): matching validity, chunk-count invariance of
// every kernel, the goodness-monotonicity of parallel LP refinement, and
// the allocation-free steady state of GP runs that use it. The chunked
// kernels are called from the test thread with explicit chunk counts, so
// their tasks really run concurrently on the pool (and under TSan in CI).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "graph/generators.hpp"
#include "partition/coarsen.hpp"
#include "partition/gp.hpp"
#include "partition/initial.hpp"
#include "partition/parallel.hpp"
#include "partition/refine.hpp"
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

void expect_same_graph(const graph::Graph& a, const graph::Graph& b) {
  EXPECT_EQ(a.xadj(), b.xadj());
  EXPECT_EQ(a.adj(), b.adj());
  EXPECT_EQ(a.raw_edge_weights(), b.raw_edge_weights());
  EXPECT_EQ(a.node_weights(), b.node_weights());
}

void expect_same_hierarchy(const part::Hierarchy& a,
                           const part::Hierarchy& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].fine_to_coarse, b.levels[i].fine_to_coarse);
    EXPECT_EQ(a.levels[i].used_matching, b.levels[i].used_matching);
    expect_same_graph(a.levels[i].graph, b.levels[i].graph);
  }
}

TEST(ChunkedCoarsen, SameHierarchyAtOneAndFourThreads) {
  // At 4 threads, levels of at least kRaceMinNodes nodes run their
  // matchings concurrently (all three strategies), and contraction gets up
  // to 4 row-range chunks. Hierarchies, maps and winners must be those of
  // one thread, plain and partition-restricted, and a warm second run
  // through the same workspace grows nothing.
  const graph::Graph g = pn_graph(16000, 41);
  ASSERT_GE(g.num_nodes(), part::kRaceMinNodes);
  ASSERT_GE(part::chunks_for(4, g.adj().size(), part::kContractGrain), 2u);
  part::CoarsenOptions options;
  options.strategies = {part::MatchingKind::kRandom,
                        part::MatchingKind::kHeavyEdge,
                        part::MatchingKind::kKMeans};
  Workspace serial_ws, chunked_ws;
  support::Rng rng(5);
  const part::Hierarchy one = part::coarsen(g, options, rng, serial_ws, 1);
  const part::Hierarchy four = part::coarsen(g, options, rng, chunked_ws, 4);
  ASSERT_GT(one.num_levels(), 2u);
  expect_same_hierarchy(one, four);

  std::vector<part::PartId> parts(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
    parts[u] = static_cast<part::PartId>((u / 97) % 4);
  const part::RestrictedHierarchy r_one =
      part::coarsen_restricted(g, parts, options, rng, serial_ws, 1);
  const part::RestrictedHierarchy r_four =
      part::coarsen_restricted(g, parts, options, rng, chunked_ws, 4);
  expect_same_hierarchy(r_one.hierarchy, r_four.hierarchy);
  EXPECT_EQ(r_one.coarse_parts, r_four.coarse_parts);

  const std::uint64_t growths = chunked_ws.stats().growths;
  expect_same_hierarchy(one, part::coarsen(g, options, rng, chunked_ws, 4));
  EXPECT_EQ(chunked_ws.stats().growths, growths);
}

TEST(ChunkedReset, MatchesSerialReset) {
  // A reset in node-range chunks must arm exactly the one-chunk state:
  // conn rows, loads, counts, the pairwise matrix (pair_ub_ is its largest
  // entry), cut, goodness, boundary order and every best_move; moves after
  // it must evaluate identically too. k = 70 exercises a pairwise matrix
  // wider than one cache line per row. A warm second round grows nothing,
  // the boundary enumerations into one reused buffer included.
  const graph::Graph g = pn_graph(3000, 43);
  Workspace ws;
  std::uint64_t first_round_growths = 0;
  std::vector<graph::NodeId> boundary;
  for (int round = 0; round < 2; ++round) {
    for (const part::PartId k : {2, 8, 70}) {
      support::Rng rng(47 + static_cast<std::uint64_t>(k));
      const part::Partition start = part::random_balanced_partition(g, k, rng);
      part::Constraints c;
      c.rmax = g.total_node_weight() / k + g.max_node_weight();
      c.bmax = g.total_edge_weight() / (4 * k);
      part::Partition serial_p = start;
      part::MoveContext serial(g, serial_p, c);
      std::vector<graph::NodeId> serial_boundary;
      serial.boundary_nodes(serial_boundary);
      for (const std::uint32_t chunks : {2u, 3u, 4u, 7u}) {
        part::Partition p = start;
        part::MoveContext& ctx = ws.move_ctx;
        ctx.reset(g, p, c, chunks);
        for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
          for (part::PartId r = 0; r < k; ++r)
            ASSERT_EQ(ctx.conn(u, r), serial.conn(u, r));
        for (part::PartId a = 0; a < k; ++a) {
          EXPECT_EQ(ctx.load(a), serial.load(a));
          EXPECT_EQ(ctx.part_size(a), serial.part_size(a));
          for (part::PartId b = 0; b < k; ++b)
            EXPECT_EQ(ctx.pairwise().at(a, b), serial.pairwise().at(a, b));
        }
        EXPECT_EQ(ctx.cut(), serial.cut());
        EXPECT_EQ(ctx.goodness(), serial.goodness());
        ctx.boundary_nodes(boundary);
        EXPECT_EQ(boundary, serial_boundary);
        for (graph::NodeId u = 0; u < g.num_nodes(); u += 7) {
          const auto a = ctx.best_move(u);
          const auto b = serial.best_move(u);
          ASSERT_EQ(a.has_value(), b.has_value());
          if (a) {
            EXPECT_EQ(a->target, b->target);
            EXPECT_EQ(a->after, b->after);
          }
        }
        // Move a few nodes on the chunked arm; the serial one follows and
        // is re-armed afterwards.
        for (graph::NodeId u = 0; u < g.num_nodes(); u += 301) {
          const part::PartId q = static_cast<part::PartId>((p[u] + 1) % k);
          ctx.apply(u, q);
          serial.apply(u, q);
          EXPECT_EQ(ctx.goodness(), serial.goodness());
        }
        serial_p = start;
        serial.reset(g, serial_p, c);
      }
    }
    if (round == 0) first_round_growths = ws.stats().growths;
  }
  EXPECT_EQ(ws.stats().growths, first_round_growths);
}

TEST(ChunkedFm, SeedChunksKeepPartitionAndTotals) {
  // FM evaluates each pass's seeds in chunks and pushes them in seed order,
  // so the partition and every FmTotals counter equal those of one chunk.
  // A 3000-node PN from a random 8-way split has a boundary of thousands of
  // seeds per pass. A warm second run grows no buffer.
  const graph::Graph g = pn_graph(3000, 53);
  const part::PartId k = 8;
  support::Rng rng(59);
  const part::Partition start = part::random_balanced_partition(g, k, rng);
  part::Constraints c;
  c.rmax = g.total_node_weight() * 13 / (10 * k);
  c.bmax = g.total_edge_weight() * 13 / (10 * k * (k - 1));
  const auto run = [&](std::uint32_t chunks, Workspace& ws) {
    part::Partition p = start;
    ws.move_ctx.reset(g, p, c);
    support::Rng frng(61);
    part::constrained_fm_refine(ws.move_ctx, part::FmOptions{}, frng, ws.fm,
                                chunks);
    return p.assignments();
  };
  Workspace serial_ws;
  const std::vector<part::PartId> serial = run(1, serial_ws);
  const part::FmTotals& t1 = serial_ws.fm.totals;
  ASSERT_GT(t1.seeds, 7 * t1.passes);
  for (const std::uint32_t chunks : {2u, 4u, 7u}) {
    Workspace ws;
    EXPECT_EQ(run(chunks, ws), serial) << "chunks " << chunks;
    const part::FmTotals& t = ws.fm.totals;
    EXPECT_EQ(t.passes, t1.passes);
    EXPECT_EQ(t.seeds, t1.seeds);
    EXPECT_EQ(t.pops, t1.pops);
    EXPECT_EQ(t.applied, t1.applied);
    EXPECT_EQ(t.kept, t1.kept);
    EXPECT_EQ(t.stalled, t1.stalled);
    const std::uint64_t growths = ws.stats().growths;
    EXPECT_EQ(run(chunks, ws), serial);
    EXPECT_EQ(ws.stats().growths, growths);
  }
}

TEST(ConcurrentBestMove, FourThreadsMatchSerialCalls) {
  // best_move writes nothing, so threads may evaluate moves on one context
  // at once (FM seeding does). Four pool tasks each evaluate every node
  // while the others do; each must get the serial answers. Bmax binds, so
  // the bandwidth terms run; at k = 70 their part list is larger than the
  // on-stack one, and the answers are also checked against the first best
  // goodness_after.
  support::ThreadPool pool(4);
  for (const part::PartId k : {8, 70}) {
    support::Rng rng(67 + static_cast<std::uint64_t>(k));
    const graph::Graph g =
        graph::erdos_renyi_gnm(600, 6000, rng, {1, 9}, {1, 9});
    part::Partition p = part::random_balanced_partition(g, k, rng);
    part::Constraints c;
    c.rmax = g.total_node_weight() / k + 5;
    c.bmax = 1;
    const part::MoveContext ctx(g, p, c);
    using Answer = std::optional<part::MoveContext::Candidate>;
    std::vector<Answer> serial(g.num_nodes());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
      serial[u] = ctx.best_move(u);
    std::vector<std::vector<Answer>> concurrent(4);
    support::parallel_for(pool, 0, 4, [&](std::size_t t) {
      concurrent[t].resize(g.num_nodes());
      for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
        concurrent[t][u] = ctx.best_move(u);
    });
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const std::vector<Answer>& answers : concurrent) {
        ASSERT_EQ(answers[u].has_value(), serial[u].has_value());
        if (!serial[u]) continue;
        EXPECT_EQ(answers[u]->target, serial[u]->target);
        EXPECT_EQ(answers[u]->after, serial[u]->after);
      }
      if (!serial[u]) continue;
      part::PartId best = part::kUnassigned;
      part::Goodness best_after;
      for (part::PartId q = 0; q < k; ++q) {
        if (q == p[u]) continue;
        const part::Goodness after = ctx.goodness_after(u, q);
        if (best == part::kUnassigned || after < best_after) {
          best = q;
          best_after = after;
        }
      }
      EXPECT_EQ(serial[u]->target, best);
      EXPECT_EQ(serial[u]->after, best_after);
    }
  }
}

}  // namespace
