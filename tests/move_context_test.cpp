#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <vector>

#include "graph/generators.hpp"
#include "partition/initial.hpp"
#include "partition/move_context.hpp"

namespace ppnpart::part {
namespace {

// Bmax regimes for the property test. Binding keeps every pairwise cut over
// budget (bandwidth terms always evaluated); borderline starts just above
// the largest pairwise cut, so light nodes take the bandwidth-slack fast
// path until moves raise the bound; slack (the total edge weight) and
// unlimited take it for every node.
enum class BmaxRegime { kBinding, kBorderline, kSlack, kUnlimited };

struct PropertyCase {
  std::uint64_t seed;
  BmaxRegime regime;
  bool heterogeneous;
};

void PrintTo(const PropertyCase& pc, std::ostream* os) {
  *os << "seed" << pc.seed << "_regime" << static_cast<int>(pc.regime)
      << (pc.heterogeneous ? "_het" : "");
}

// Brute-force best_move: the first target (ascending) with the least
// recomputed goodness.
std::optional<MoveContext::Candidate> reference_best_move(
    const Graph& g, const Partition& p, const Constraints& c, NodeId u) {
  const PartId from = p[u];
  NodeId from_size = 0;
  for (NodeId x = 0; x < g.num_nodes(); ++x) from_size += p[x] == from;
  if (from_size <= 1) return std::nullopt;
  std::optional<MoveContext::Candidate> best;
  Partition moved = p;
  for (PartId q = 0; q < p.k(); ++q) {
    if (q == from) continue;
    moved.set(u, q);
    const Goodness after = compute_goodness(g, moved, c);
    if (!best || after < best->after) best = MoveContext::Candidate{q, after};
  }
  return best;
}

// The core property: the incremental state, every prediction (single moves,
// best_move, swaps) and the fast paths equal full recomputation after any
// sequence of moves, in every Bmax regime.
class MoveContextProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(MoveContextProperty, IncrementalMatchesRecompute) {
  const PropertyCase pc = GetParam();
  support::Rng rng(pc.seed);
  const Graph g = graph::erdos_renyi_gnm(50, 200, rng, {1, 20}, {1, 15});
  const PartId k = 5;
  Partition p = random_balanced_partition(g, k, rng);
  Constraints c;
  c.rmax = g.total_node_weight() / k + 20;
  if (pc.heterogeneous) {
    for (PartId r = 0; r < k; ++r)
      c.rmax_per_part.push_back(c.rmax - 30 + 15 * static_cast<Weight>(r));
  }
  switch (pc.regime) {
    case BmaxRegime::kBinding: c.bmax = 40; break;
    case BmaxRegime::kBorderline:
      c.bmax = compute_metrics(g, p).max_pairwise_cut + 16;
      break;
    case BmaxRegime::kSlack: c.bmax = g.total_edge_weight(); break;
    case BmaxRegime::kUnlimited: c.bmax = Constraints::kUnlimited; break;
  }
  MoveContext ctx(g, p, c);
  for (int step = 0; step < 200; ++step) {
    const NodeId u = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
    const PartId q = static_cast<PartId>(rng.uniform_index(k));

    const auto cand = ctx.best_move(u);
    const auto expected_cand = reference_best_move(g, p, c, u);
    ASSERT_EQ(cand.has_value(), expected_cand.has_value()) << "step " << step;
    if (cand) {
      EXPECT_EQ(cand->target, expected_cand->target) << "step " << step;
      EXPECT_EQ(cand->after, expected_cand->after) << "step " << step;
    }

    const NodeId v = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
    Partition swapped = p;
    swapped.set(u, p[v]);
    swapped.set(v, p[u]);
    const Goodness before = ctx.goodness();
    const std::uint64_t before_applies = ctx.apply_count();
    const PartitionMetrics before_m = compute_metrics(g, p);
    const std::vector<PartId> before_p = p.assignments();
    EXPECT_EQ(ctx.goodness_after_swap(u, v), compute_goodness(g, swapped, c))
        << "step " << step;
    // The evaluation is pure: it moves no node, even temporarily.
    EXPECT_EQ(ctx.apply_count(), before_applies) << "step " << step;
    EXPECT_EQ(ctx.goodness(), before);
    EXPECT_EQ(p.assignments(), before_p);
    for (PartId a = 0; a < k; ++a) {
      EXPECT_EQ(ctx.load(a), before_m.loads[static_cast<std::size_t>(a)]);
      for (PartId b2 = 0; b2 < k; ++b2)
        EXPECT_EQ(ctx.pairwise().at(a, b2), before_m.pairwise.at(a, b2));
    }

    // Check the prediction before applying.
    const Goodness predicted = ctx.goodness_after(u, q);
    ctx.apply(u, q);
    const Goodness actual = ctx.goodness();
    EXPECT_EQ(predicted.resource_excess, actual.resource_excess);
    EXPECT_EQ(predicted.bandwidth_excess, actual.bandwidth_excess);
    EXPECT_EQ(predicted.cut, actual.cut);
    if (step % 20 == 0) {
      // Full recompute cross-check.
      const PartitionMetrics m = compute_metrics(g, p);
      const Violation viol = compute_violation(m, c);
      EXPECT_EQ(ctx.cut(), m.total_cut);
      EXPECT_EQ(ctx.goodness().resource_excess, viol.resource_excess);
      EXPECT_EQ(ctx.goodness().bandwidth_excess, viol.bandwidth_excess);
      for (PartId a = 0; a < k; ++a) {
        EXPECT_EQ(ctx.load(a), m.loads[static_cast<std::size_t>(a)]);
        for (PartId b2 = 0; b2 < k; ++b2) {
          EXPECT_EQ(ctx.pairwise().at(a, b2), m.pairwise.at(a, b2));
        }
      }
    }
  }
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  for (BmaxRegime regime : {BmaxRegime::kBinding, BmaxRegime::kBorderline,
                            BmaxRegime::kSlack, BmaxRegime::kUnlimited}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
      cases.push_back({seed, regime, false});
    cases.push_back({9, regime, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Regimes, MoveContextProperty,
                         ::testing::ValuesIn(property_cases()));

/// Reference boundary enumeration: full scan against compute_metrics-style
/// adjacency inspection, ascending by id.
std::vector<NodeId> reference_boundary(const Graph& g, const Partition& p) {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (p[v] != p[u]) {
        out.push_back(u);
        break;
      }
    }
  }
  return out;
}

// The incremental boundary set must equal the full rescan after any move
// sequence, stay ascending, and agree with is_boundary().
class BoundaryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundaryProperty, IncrementalBoundaryMatchesRescan) {
  support::Rng rng(GetParam());
  const Graph g = graph::erdos_renyi_gnm(60, 180, rng, {1, 10}, {1, 9});
  const PartId k = 4;
  Partition p = random_balanced_partition(g, k, rng);
  Constraints c;
  c.rmax = g.total_node_weight() / k + 25;
  MoveContext ctx(g, p, c);
  std::vector<NodeId> enumerated;
  for (int step = 0; step < 300; ++step) {
    const NodeId u = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
    const PartId q = static_cast<PartId>(rng.uniform_index(k));
    ctx.apply(u, q);
    // Enumerate at varying cadence so both the compact-and-sort path and
    // the dense-rescan path get exercised with stale entries present.
    if (step % 7 == 0) {
      ctx.boundary_nodes(enumerated);
      EXPECT_EQ(enumerated, reference_boundary(g, p)) << "step " << step;
      EXPECT_TRUE(std::is_sorted(enumerated.begin(), enumerated.end()));
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const bool listed = std::binary_search(enumerated.begin(),
                                               enumerated.end(), v);
        EXPECT_EQ(listed, ctx.is_boundary(v));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundaryProperty,
                         ::testing::Values(11, 12, 13, 14));

TEST(MoveContext, ResetReusesAcrossGraphs) {
  // One context armed on graphs of different sizes and k must behave like a
  // freshly constructed one each time (the workspace reuse pattern).
  support::Rng rng(21);
  MoveContext ctx;
  for (int round = 0; round < 4; ++round) {
    const NodeId n = round % 2 == 0 ? 80 : 30;
    const PartId k = round % 2 == 0 ? 6 : 3;
    support::Rng ground = rng.derive(round);
    const Graph g = graph::erdos_renyi_gnm(n, n * 3, ground, {1, 8}, {1, 6});
    Partition p = random_balanced_partition(g, k, ground);
    Partition p_copy = p;
    Constraints c;
    c.rmax = g.total_node_weight() / k + 10;
    c.bmax = 30;
    ctx.reset(g, p, c);
    MoveContext fresh(g, p_copy, c);
    EXPECT_EQ(ctx.goodness(), fresh.goodness());
    std::vector<NodeId> boundary, fresh_boundary;
    ctx.boundary_nodes(boundary);
    fresh.boundary_nodes(fresh_boundary);
    EXPECT_EQ(boundary, fresh_boundary);
    for (int step = 0; step < 50; ++step) {
      const NodeId u = static_cast<NodeId>(ground.uniform_index(n));
      const PartId q = static_cast<PartId>(ground.uniform_index(k));
      ctx.apply(u, q);
      fresh.apply(u, q);
      EXPECT_EQ(ctx.goodness(), fresh.goodness());
    }
    ctx.boundary_nodes(boundary);
    fresh.boundary_nodes(fresh_boundary);
    EXPECT_EQ(boundary, fresh_boundary);
  }
}

TEST(MoveContext, ConnMatchesAdjacency) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 3);
  b.add_edge(0, 2, 5);
  b.add_edge(0, 3, 7);
  const Graph g = b.build();
  Partition p(4, 2);
  p.set(0, 0);
  p.set(1, 0);
  p.set(2, 1);
  p.set(3, 1);
  MoveContext ctx(g, p, Constraints{});
  EXPECT_EQ(ctx.conn(0, 0), 3);
  EXPECT_EQ(ctx.conn(0, 1), 12);
  EXPECT_EQ(ctx.conn(1, 0), 3);
  EXPECT_EQ(ctx.conn(1, 1), 0);
  EXPECT_EQ(ctx.cut(), 12);
}

TEST(MoveContext, SwapOfAdjacentNodesCountsTheirEdgeTwice) {
  // 0-1 (weight 5) crosses the parts; 0-2 (3) and 1-3 (4) stay inside.
  // Swapping 0 and 1 keeps 0-1 cut and cuts both inner edges: 5 + 3 + 4.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 5);
  b.add_edge(0, 2, 3);
  b.add_edge(1, 3, 4);
  const Graph g = b.build();
  Partition p(4, 2);
  p.set(0, 0);
  p.set(2, 0);
  p.set(1, 1);
  p.set(3, 1);
  Partition swapped = p;
  swapped.set(0, 1);
  swapped.set(1, 0);
  // Unlimited Bmax skips the bandwidth terms. Bmax 6 is below
  // pair_ub + incident(0) + incident(1) = 5 + 8 + 9, so the evaluation
  // takes them: the swapped pair cut 12 exceeds it by 6. Neither regime
  // moves a node to evaluate the swap.
  for (Weight bmax : {Constraints::kUnlimited, Weight{6}}) {
    Constraints c;
    c.bmax = bmax;
    MoveContext ctx(g, p, c);
    const Goodness after = ctx.goodness_after_swap(0, 1);
    EXPECT_EQ(after.cut, 12);
    EXPECT_EQ(after.bandwidth_excess, bmax == 6 ? 6 : 0);
    EXPECT_EQ(after, compute_goodness(g, swapped, c));
    EXPECT_EQ(ctx.apply_count(), 0u);
    EXPECT_EQ(ctx.goodness(), compute_goodness(g, p, c));
    EXPECT_EQ(ctx.goodness_after_swap(2, 0), ctx.goodness());  // same part
  }
}

TEST(MoveContext, MoveToSamePartIsNoop) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  Partition p(2, 2);
  p.set(0, 0);
  p.set(1, 1);
  MoveContext ctx(g, p, Constraints{});
  const Goodness before = ctx.goodness();
  ctx.apply(0, 0);
  EXPECT_TRUE(before == ctx.goodness());
  EXPECT_TRUE(before == ctx.goodness_after(0, 0));
}

TEST(MoveContext, BoundaryDetection) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(2, 3, 1);
  const Graph g = b.build();
  Partition p(4, 2);
  p.set(0, 0);
  p.set(1, 0);
  p.set(2, 1);
  p.set(3, 1);
  MoveContext ctx(g, p, Constraints{});
  EXPECT_FALSE(ctx.is_boundary(0));
  std::vector<NodeId> boundary;
  ctx.boundary_nodes(boundary);
  EXPECT_TRUE(boundary.empty());
  ctx.apply(1, 1);
  EXPECT_TRUE(ctx.is_boundary(0));
  EXPECT_TRUE(ctx.is_boundary(1));
}

TEST(MoveContext, BestMoveRespectsEmptying) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 1);
  const Graph g = b.build();
  Partition p(3, 2);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 1);
  MoveContext ctx(g, p, Constraints{});
  // Node 0 alone in part 0: no move allowed unless emptying permitted.
  EXPECT_FALSE(ctx.best_move(0).has_value());
  EXPECT_TRUE(ctx.best_move(0, /*allow_emptying=*/true).has_value());
  // Node 1 should prefer joining node 0 (cut 6 -> 1).
  const auto cand = ctx.best_move(1);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->target, 0);
  EXPECT_EQ(cand->after.cut, 1);
}

TEST(MoveContext, PartSizeTracking) {
  support::Rng rng(9);
  const Graph g = graph::erdos_renyi_gnm(30, 60, rng);
  Partition p = random_balanced_partition(g, 3, rng);
  MoveContext ctx(g, p, Constraints{});
  std::uint32_t total = 0;
  for (PartId q = 0; q < 3; ++q) total += ctx.part_size(q);
  EXPECT_EQ(total, 30u);
  const NodeId u = 0;
  const PartId from = ctx.part_of(u);
  const PartId to = (from + 1) % 3;
  const auto before_from = ctx.part_size(from);
  const auto before_to = ctx.part_size(to);
  ctx.apply(u, to);
  EXPECT_EQ(ctx.part_size(from), before_from - 1);
  EXPECT_EQ(ctx.part_size(to), before_to + 1);
}

TEST(MoveContext, RejectsIncompletePartition) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  Partition p(2, 2);
  p.set(0, 0);  // node 1 unassigned
  EXPECT_THROW(MoveContext(g, p, Constraints{}), std::invalid_argument);
}

}  // namespace
}  // namespace ppnpart::part
