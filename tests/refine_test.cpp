#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "graph/generators.hpp"
#include "partition/coarsen.hpp"
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

/// Runs constrained FM on an n-node PN from a random 8-way split under
/// slack-1.3 constraints (generator Rng(21), FM Rng(22)), checks that the
/// goodness did not get worse and returns the FM totals.
FmTotals fm_totals_from_random_split(NodeId n, std::uint32_t layers) {
  graph::ProcessNetworkParams params;
  params.num_nodes = n;
  params.layers = layers;
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
  EXPECT_FALSE(before < compute_goodness(g, p, c));
  const FmTotals& t = ws.fm.totals;
  std::printf("%u nodes: passes %llu stalled %llu applied %llu kept %llu\n",
              n, static_cast<unsigned long long>(t.passes),
              static_cast<unsigned long long>(t.stalled),
              static_cast<unsigned long long>(t.applied),
              static_cast<unsigned long long>(t.kept));
  return t;
}

TEST(ConstrainedFm, StallRuleBoundsRolledBackMoves) {
  // 3000 nodes: passes run far past their best prefix, so the stall rule
  // ends them, and no pass rolls back more than kFmStallMoves moves.
  const FmTotals t = fm_totals_from_random_split(3000, 3000 / 16);
  EXPECT_GE(t.stalled, 1u);
  EXPECT_LE(t.applied - t.kept, t.passes * kFmStallMoves);
}

TEST(ConstrainedFm, StallRuleScalesWithLevelSize) {
  // The limit is n / 4 between a floor of 64 and the cap kFmStallMoves.
  EXPECT_EQ(fm_stall_moves(12), 64u);
  EXPECT_EQ(fm_stall_moves(256), 64u);
  EXPECT_EQ(fm_stall_moves(677), 169u);
  EXPECT_EQ(fm_stall_moves(1400), kFmStallMoves);
  EXPECT_EQ(fm_stall_moves(100000), kFmStallMoves);
  // 200 nodes, below the cap's reach: every pass runs far past its best
  // prefix, so the rule ends each one after at most 64 moves that do not
  // pay (a flat 350 let all of them run to exhaustion).
  const FmTotals t = fm_totals_from_random_split(200, 12);
  EXPECT_GT(t.passes, 0u);
  EXPECT_EQ(t.stalled, t.passes);
  EXPECT_LE(t.applied - t.kept, t.passes * 64);
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
  greedy_cut_refine(g, p, cap, grng, ws);
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
  greedy_cut_refine(g, p, 10, rng, ws);
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
  Workspace ws;
  bisection_fm_refine(g, p, half, half, 10, ws);
  const PartitionMetrics m = compute_metrics(g, p);
  EXPECT_LE(m.max_load, half);
  // The clean cut separates the cliques (ring has 2 bridges).
  EXPECT_LE(m.total_cut, 2);
}

TEST(BisectionFm, RequiresK2) {
  const Graph g = graph::ring_of_cliques(2, 3);
  Partition p(g.num_nodes(), 3);
  for (NodeId u = 0; u < g.num_nodes(); ++u) p.set(u, 0);
  Workspace ws;
  EXPECT_THROW(bisection_fm_refine(g, p, 10, 10, 4, ws),
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
  Workspace ws;
  bisection_fm_refine(g, p, 60, 60, 10, ws);
  const PartitionMetrics m = compute_metrics(g, p);
  EXPECT_LE(m.max_load, 60) << "overweight must dominate the heavy edge";
}

TEST(BisectionFm, BookkeepingAndRollbackHoldOnRandomGraphs) {
  // Random G(n, m) graphs with random weights and random 2-way starts,
  // under caps from binding (below half the weight, so some overweight is
  // unavoidable) to loose. After the call the scratch's conn-to-own and
  // conn-to-other rows must describe the final partition (each pass rolls
  // back past its best prefix through the same update), (overweight, cut)
  // by compute_metrics must be no worse than at the start, the return value
  // must say whether it is strictly better, and a side that started
  // non-empty must still be non-empty. Given passes enough to converge,
  // the last pass found no improving prefix, so no single move that leaves
  // its side non-empty may improve (overweight, cut) either: a pass that
  // misjudged its states would stop early.
  const double cap_factors[][2] = {
      {0.6, 0.6}, {0.9, 1.1}, {1.0, 1.0}, {1.05, 1.05}, {1.5, 0.8}, {3, 3}};
  int improved_runs = 0, runs = 0;
  for (const NodeId n : {2u, 12u, 60u}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      support::Rng rng(seed * 1000 + n);
      const std::uint64_t m = n * (1 + seed % 4);
      const Graph g = graph::erdos_renyi_gnm(n, m, rng, {1, 20}, {1, 9});
      const double half = static_cast<double>(g.total_node_weight()) / 2;
      for (const auto& f : cap_factors) {
        const auto cap0 = static_cast<Weight>(std::ceil(f[0] * half));
        const auto cap1 = static_cast<Weight>(std::ceil(f[1] * half));
        auto over_and_cut = [&](const Partition& q) {
          const PartitionMetrics pm = compute_metrics(g, q);
          return std::pair<Weight, Weight>{
              std::max<Weight>(0, pm.loads[0] - cap0) +
                  std::max<Weight>(0, pm.loads[1] - cap1),
              pm.total_cut};
        };
        Partition p(n, 2);
        for (NodeId u = 0; u < n; ++u)
          p.set(u, static_cast<PartId>(rng.uniform_index(2)));
        const PartitionMetrics start = compute_metrics(g, p);
        const auto before = over_and_cut(p);

        Workspace ws;
        const bool improved =
            bisection_fm_refine(g, p, cap0, cap1, /*max_passes=*/1000, ws);
        ++runs;
        improved_runs += improved;
        const auto after = over_and_cut(p);
        const std::string where = "n=" + std::to_string(n) +
                                  " seed=" + std::to_string(seed) +
                                  " caps=" + std::to_string(cap0) + "/" +
                                  std::to_string(cap1);
        EXPECT_FALSE(before < after) << where;
        EXPECT_EQ(improved, after < before) << where;

        const PartitionMetrics end = compute_metrics(g, p);
        for (PartId side = 0; side < 2; ++side) {
          if (start.loads[side] > 0) EXPECT_GT(end.loads[side], 0) << where;
        }
        Weight external_sum = 0;
        for (NodeId u = 0; u < n; ++u) {
          Weight own = 0, other = 0;
          auto nbrs = g.neighbors(u);
          auto wgts = g.edge_weights(u);
          for (std::size_t i = 0; i < nbrs.size(); ++i)
            (p[nbrs[i]] == p[u] ? own : other) += wgts[i];
          EXPECT_EQ(ws.bisect.internal[u], own) << where << " u=" << u;
          EXPECT_EQ(ws.bisect.external[u], other) << where << " u=" << u;
          external_sum += ws.bisect.external[u];
        }
        EXPECT_EQ(external_sum, 2 * end.total_cut) << where;

        std::uint32_t count[2] = {0, 0};
        for (NodeId u = 0; u < n; ++u) ++count[p[u]];
        for (NodeId u = 0; u < n; ++u) {
          const PartId side = p[u];
          if (count[side] <= 1) continue;
          p.set(u, 1 - side);
          EXPECT_FALSE(over_and_cut(p) < after) << where << " move u=" << u;
          p.set(u, side);
        }
      }
    }
  }
  // The sweep is only a check of rollback if passes do find improvements.
  EXPECT_GT(improved_runs, runs / 4);
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

// The exhaustive scan the bounded one replaced, kept as the reference: every
// cross-part pair, u ascending then v ascending, the first best wins.
bool exhaustive_swap_refine(MoveContext& ctx, const SwapRefineOptions& options,
                            std::uint64_t& evaluations) {
  const NodeId n = ctx.graph().num_nodes();
  if (n > options.max_nodes || n < 2) return false;
  const Goodness initial = ctx.goodness();
  for (std::uint32_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved_this_pass = false;
    for (std::uint64_t step = 0; step < n; ++step) {
      NodeId best_u = graph::kInvalidNode, best_v = graph::kInvalidNode;
      Goodness best_after = ctx.goodness();
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) {
          if (ctx.part_of(u) == ctx.part_of(v)) continue;
          ++evaluations;
          const Goodness after = ctx.goodness_after_swap(u, v);
          if (after < best_after) {
            best_after = after;
            best_u = u;
            best_v = v;
          }
        }
      }
      if (best_u == graph::kInvalidNode) break;
      const PartId pu = ctx.part_of(best_u);
      const PartId pv = ctx.part_of(best_v);
      ctx.apply(best_u, pv);
      ctx.apply(best_v, pu);
      improved_this_pass = true;
    }
    if (!improved_this_pass) break;
  }
  return ctx.goodness() < initial;
}

bool feasible(const Goodness& g) {
  return g.resource_excess == 0 && g.bandwidth_excess == 0;
}

/// Tallies of the equivalence runs, so the test can show what it covered.
struct SwapTally {
  int feasible_starts = 0;
  int infeasible_starts = 0;
  int fewer = 0;  // feasible starts the bound evaluated fewer pairs on
};

/// Runs GP's schedule from `start` (swap_refine, then FM, up to three
/// times) with the bounded scan and the reference side by side, and checks
/// that every call returns the same verdict, partition, goodness and
/// apply_count(). On a feasible start the bound must not evaluate more
/// pairs than the reference, and fewer once the graph has 12 nodes.
void expect_bounded_matches_exhaustive(const Graph& g, const Partition& start,
                                       const Constraints& c,
                                       const std::string& label,
                                       SwapTally& tally) {
  SCOPED_TRACE(label);
  Partition bounded_p = start;
  Partition exhaustive_p = start;
  Workspace bounded_ws, exhaustive_ws;
  MoveContext& bounded = bounded_ws.move_ctx;
  MoveContext& exhaustive = exhaustive_ws.move_ctx;
  bounded.reset(g, bounded_p, c);
  exhaustive.reset(g, exhaustive_p, c);
  const bool feasible_start = feasible(bounded.goodness());
  ++(feasible_start ? tally.feasible_starts : tally.infeasible_starts);
  std::uint64_t bounded_evals = 0, exhaustive_evals = 0;
  const SwapRefineOptions options;
  for (int call = 0; call < 3; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    const bool bounded_improved =
        swap_refine(bounded, options, bounded_ws.swap, bounded_evals);
    const bool exhaustive_improved =
        exhaustive_swap_refine(exhaustive, options, exhaustive_evals);
    ASSERT_EQ(bounded_improved, exhaustive_improved);
    ASSERT_EQ(bounded_p.assignments(), exhaustive_p.assignments());
    ASSERT_EQ(bounded.goodness(), exhaustive.goodness());
    ASSERT_EQ(bounded.apply_count(), exhaustive.apply_count());
    if (!bounded_improved) break;
    support::Rng bounded_rng(call + 1), exhaustive_rng(call + 1);
    constrained_fm_refine(bounded, FmOptions{}, bounded_rng, bounded_ws.fm);
    constrained_fm_refine(exhaustive, FmOptions{}, exhaustive_rng,
                          exhaustive_ws.fm);
    ASSERT_EQ(bounded_p.assignments(), exhaustive_p.assignments());
  }
  if (feasible_start) {
    EXPECT_LE(bounded_evals, exhaustive_evals);
    if (g.num_nodes() >= 12) {
      EXPECT_LT(bounded_evals, exhaustive_evals);
    }
    tally.fewer += bounded_evals < exhaustive_evals ? 1 : 0;
  }
}

/// A feasible-looking start, as GP hands swap_refine one: a random balanced
/// partition refined by FM. Under binding constraints it may stay
/// infeasible.
Partition fm_refined_start(const Graph& g, PartId k, const Constraints& c,
                           support::Rng& rng) {
  Partition p = random_balanced_partition(g, k, rng);
  constrained_fm_refine(g, p, c, FmOptions{}, rng);
  return p;
}

/// A random start, infeasible under most of the constraints below: every
/// node in a uniformly drawn part.
Partition random_start(const Graph& g, PartId k, support::Rng& rng) {
  Partition p(g.num_nodes(), k);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    p.set(u, static_cast<PartId>(
                 rng.uniform_index(static_cast<std::size_t>(k))));
  return p;
}

/// GP's kick on a refined start: a few nodes moved to random parts, which
/// usually overloads one.
Partition kicked_start(Partition p, support::Rng& rng) {
  const NodeId n = static_cast<NodeId>(p.size());
  for (NodeId i = 0; i < std::max<NodeId>(2, n / 32); ++i)
    p.set(static_cast<NodeId>(rng.uniform_index(n)),
          static_cast<PartId>(
              rng.uniform_index(static_cast<std::size_t>(p.k()))));
  return p;
}

/// Rmax at `slack` times the even share (plus the heaviest node), uniform
/// or alternating 0.7x / 1.3x of that per part; Bmax at `bmax_slack` times
/// the even share of edge weight per part pair, or unlimited at 0.
Constraints slack_constraints(const Graph& g, PartId k, bool heterogeneous,
                              double bmax_slack) {
  Constraints c;
  const double share = static_cast<double>(g.total_node_weight()) / k;
  c.rmax = static_cast<Weight>(1.1 * share) + g.max_node_weight();
  if (heterogeneous) {
    for (PartId p = 0; p < k; ++p)
      c.rmax_per_part.push_back(
          static_cast<Weight>((p % 2 == 0 ? 0.7 : 1.3) * 1.1 * share) +
          g.max_node_weight());
  }
  if (bmax_slack > 0) {
    const double pairs = k * (k - 1) / 2.0;
    c.bmax = std::max<Weight>(
        1, static_cast<Weight>(bmax_slack *
                               static_cast<double>(g.total_edge_weight()) /
                               pairs));
  }
  return c;
}

/// One G(n, m) case: the graph (a third of all pairs are edges, at least
/// one), its constraints, an FM-refined start and, for n <= 60, a random
/// start; larger graphs get a kicked FM start instead, whose repair takes a
/// few steps where a random start's takes ~n / 2 of ~n^2 / 2 evaluations.
void run_gnm_case(NodeId n, PartId k, double bmax_slack, bool heterogeneous,
                  std::uint64_t seed, SwapTally& tally,
                  graph::WeightRange node_w = {1, 20},
                  graph::WeightRange edge_w = {1, 9}) {
  support::Rng rng(seed);
  const Graph g = graph::erdos_renyi_gnm(
      n, std::max<std::uint64_t>(1, std::uint64_t{n} * (n - 1) / 6), rng,
      node_w, edge_w);
  const Constraints c = slack_constraints(g, k, heterogeneous, bmax_slack);
  const std::string label = "n=" + std::to_string(n) +
                            " k=" + std::to_string(k) +
                            " bmax_slack=" + std::to_string(bmax_slack) +
                            (heterogeneous ? " heterogeneous" : " uniform") +
                            (edge_w.hi == 1 ? " unit weights" : "");
  const Partition fm = fm_refined_start(g, k, c, rng);
  expect_bounded_matches_exhaustive(g, fm, c, label + " fm", tally);
  if (n <= 60) {
    expect_bounded_matches_exhaustive(g, random_start(g, k, rng), c,
                                      label + " random", tally);
  } else {
    expect_bounded_matches_exhaustive(g, kicked_start(fm, rng), c,
                                      label + " kicked", tally);
  }
}

TEST(SwapRefine, BoundedScanMatchesExhaustiveScan) {
  SwapTally tally;
  // Dense G(n, m) graphs like GP's coarsest levels, with k > n leaving
  // parts empty; Bmax unlimited (0), slack (1.3) and binding (0.5; at
  // k = 70 even 1.3 binds). Up to 60 nodes every combination runs.
  std::uint64_t seed = 0;
  for (const NodeId n : {2u, 12u, 60u}) {
    for (const PartId k : {2, 8, 70}) {
      for (const double bmax_slack : {0.0, 1.3, 0.5}) {
        for (const bool heterogeneous : {false, true})
          run_gnm_case(n, k, bmax_slack, heterogeneous, ++seed, tally);
      }
    }
  }
  // Unit weights make equal-goodness swaps common, and ties are where the
  // scan order decides the answer.
  for (const PartId k : {2, 8, 70}) {
    for (const double bmax_slack : {0.0, 1.3})
      run_gnm_case(60, k, bmax_slack, false, ++seed, tally, {1, 1}, {1, 1});
  }
  // At 170 and 200 nodes the reference pays ~n^2 / 2 evaluations a step
  // (times k with binding bandwidth), so a covering set runs: each k, each
  // Bmax regime and each Rmax regime appears at both sizes or at one.
  run_gnm_case(170, 2, 1.3, false, ++seed, tally);
  run_gnm_case(170, 8, 0.5, true, ++seed, tally);
  run_gnm_case(200, 2, 0.5, true, ++seed, tally);
  run_gnm_case(200, 8, 1.3, false, ++seed, tally);
  run_gnm_case(200, 8, 0.0, true, ++seed, tally);
  run_gnm_case(200, 70, 0.0, false, ++seed, tally);
  // The levels of at most 200 nodes of a 4k service-class PN (K=8, Rmax and
  // Bmax at 1.3 and 1.05 times the even share), which GP swap-refines.
  graph::ProcessNetworkParams params;
  params.num_nodes = 4000;
  params.layers = 4000 / 16;
  support::Rng pn_rng(4);
  const Graph pn = graph::random_process_network(params, pn_rng);
  Workspace coarsen_ws;
  const Hierarchy h = coarsen(pn, CoarsenOptions{}, pn_rng, coarsen_ws);
  int coarse_levels = 0;
  for (std::size_t level = 0; level < h.num_levels(); ++level) {
    const Graph& g = h.level_graph(level, pn);
    if (g.num_nodes() > SwapRefineOptions{}.max_nodes) continue;
    ++coarse_levels;
    for (const double slack : {1.3, 1.05}) {
      Constraints c;
      c.rmax = std::max<Weight>(
          static_cast<Weight>(slack * static_cast<double>(
                                          pn.total_node_weight()) / 8),
          pn.max_node_weight());
      c.bmax = static_cast<Weight>(
          slack * static_cast<double>(pn.total_edge_weight()) / 28 / 2);
      support::Rng rng(level * 10 + (slack > 1.2 ? 1 : 2));
      const std::string label = "pn4k level " + std::to_string(level) +
                                " slack " + std::to_string(slack);
      expect_bounded_matches_exhaustive(g, fm_refined_start(g, 8, c, rng), c,
                                        label + " fm", tally);
      expect_bounded_matches_exhaustive(g, random_start(g, 8, rng), c,
                                        label + " random", tally);
    }
  }
  EXPECT_GT(coarse_levels, 0);
  std::printf("swap equivalence: %d feasible starts (%d with fewer "
              "evaluations), %d infeasible\n",
              tally.feasible_starts, tally.fewer, tally.infeasible_starts);
  EXPECT_GE(tally.feasible_starts, 40);
  EXPECT_GE(tally.infeasible_starts, 40);
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
