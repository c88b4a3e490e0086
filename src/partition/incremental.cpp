#include "partition/incremental.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/diff.hpp"
#include "partition/refine.hpp"
#include "partition/workspace.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

namespace ppnpart::part {

namespace {

using graph::kInvalidNode;

/// Seed-stream tag of the incremental refinement randomness; fixed so a
/// given (prev, delta, request.seed) reproduces bit-identical results.
constexpr std::uint64_t kIncrementalSeedTag = 0x696e63725f726570ull;  // "incr_rep"

}  // namespace

IncrementalPartitioner::IncrementalPartitioner(IncrementalOptions options)
    : options_(std::move(options)) {}

std::optional<PartitionResult> IncrementalPartitioner::try_repartition(
    const Graph& g, const Partition& prev,
    std::span<const graph::NodeId> node_map,
    std::span<const graph::NodeId> touched, const PartitionRequest& request,
    IncrementalStats* stats) {
  support::Timer timer;
  if (stats != nullptr) *stats = IncrementalStats{};
  const NodeId n = g.num_nodes();
  const PartId k = request.k;
  if (k <= 0)
    throw std::invalid_argument("IncrementalPartitioner: k must be positive");
  if (node_map.size() < prev.size())
    throw std::invalid_argument(
        "IncrementalPartitioner: node_map shorter than the previous "
        "partition");

  const auto decline = [&](const char* reason) -> std::optional<PartitionResult> {
    if (stats != nullptr) {
      stats->fell_back = true;
      stats->fallback_reason = reason;
    }
    return std::nullopt;
  };

  // A changed part count invalidates the projection outright: previous part
  // ids name different budgets/neighbourhoods now.
  if (k != prev.k()) return decline("k changed");
  if (static_cast<double>(touched.size()) >
      options_.max_touched_fraction * static_cast<double>(n))
    return decline("delta touches too many nodes");

  PartitionResult result;
  result.algorithm = "Incremental";
  result.partition.reset(n, k);
  Partition& p = result.partition;

  if (n == 0) {  // the delta removed every node: trivially complete
    result.finalize(g, request.constraints);
    result.seconds = timer.seconds();
    return result;
  }

  // ---- 1. Project surviving nodes through the old->new map. --------------
  NodeId projected = 0;
  for (NodeId u = 0; u < prev.size(); ++u) {
    const NodeId m = node_map[u];
    if (m == kInvalidNode) continue;
    if (m >= n)
      throw std::invalid_argument(
          "IncrementalPartitioner: node_map entry out of range");
    const PartId q = prev[u];
    if (q < 0 || q >= k)
      throw std::invalid_argument(
          "IncrementalPartitioner: previous partition is incomplete");
    p.set(m, q);
    ++projected;
  }

  // ---- 2. Seed new nodes greedily by connectivity. -----------------------
  // The engine always injects a pool-leased workspace here; local_ws is the
  // standalone-caller fallback and costs a cold allocation per call.
  Workspace local_ws;
  Workspace& ws = request.workspace != nullptr ? *request.workspace : local_ws;
  WorkspaceLease lease(ws);
  const Constraints& c = request.constraints;
  std::vector<Weight>& loads = ws.incremental.loads;
  std::vector<Weight>& part_conn = ws.incremental.part_conn;
  support::assign_tracked(loads, static_cast<std::size_t>(k), 0,
                          ws.incremental.stats);
  support::assign_tracked(part_conn, static_cast<std::size_t>(k), 0,
                          ws.incremental.stats);
  for (NodeId x = 0; x < n; ++x) {
    if (p[x] != kUnassigned) loads[static_cast<std::size_t>(p[x])] += g.node_weight(x);
  }
  NodeId fresh = 0;
  for (NodeId x = 0; x < n; ++x) {
    if (p[x] != kUnassigned) continue;
    std::fill(part_conn.begin(), part_conn.end(), Weight{0});
    const auto nbrs = g.neighbors(x);
    const auto wgts = g.edge_weights(x);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const PartId q = p[nbrs[i]];
      if (q != kUnassigned) part_conn[static_cast<std::size_t>(q)] += wgts[i];
    }
    const Weight wx = g.node_weight(x);
    // Capacity-respecting parts first; if every part is full, fall through
    // to an unconstrained round so the node is always placed (refinement
    // repairs what it can). Ties: connectivity, then load, then part id.
    PartId best = kUnassigned;
    for (int round = 0; round < 2 && best == kUnassigned; ++round) {
      for (PartId q = 0; q < k; ++q) {
        if (round == 0 &&
            loads[static_cast<std::size_t>(q)] + wx > c.rmax_of(q))
          continue;
        if (best == kUnassigned ||
            part_conn[static_cast<std::size_t>(q)] >
                part_conn[static_cast<std::size_t>(best)] ||
            (part_conn[static_cast<std::size_t>(q)] ==
                 part_conn[static_cast<std::size_t>(best)] &&
             loads[static_cast<std::size_t>(q)] <
                 loads[static_cast<std::size_t>(best)]))
          best = q;
      }
    }
    p.set(x, best);
    loads[static_cast<std::size_t>(best)] += wx;
    ++fresh;
  }
  // Projection covered survivors, the greedy loop covered everything else:
  // from here on the partition must be total, or FM below walks kUnassigned.
  PPN_DCHECK(p.complete());

  // ---- Warm-start quality gate. ------------------------------------------
  // MoveContext doubles as the O(n k) metrics pass here: its reset yields
  // the projected goodness and loads without allocating once warm.
  ws.move_ctx.reset(g, p, c);
  const Goodness projected_goodness = ws.move_ctx.goodness();
  // The imbalance gate only applies under resource budgets: there a skewed
  // warm start can sit in a violation local FM cannot climb out of. Without
  // budgets, imbalance is not part of the objective at all — the paper's
  // unconstrained baselines legitimately produce skewed low-cut partitions,
  // and declining on them would just forfeit the warm start for an equally
  // skewed scratch run.
  const bool resource_constrained =
      c.rmax != Constraints::kUnlimited || c.heterogeneous();
  if (resource_constrained) {
    Weight max_load = 0;
    for (PartId q = 0; q < k; ++q)
      max_load = std::max(max_load, ws.move_ctx.load(q));
    const double avg_load =
        static_cast<double>(g.total_node_weight()) / static_cast<double>(k);
    if (avg_load > 0 &&
        static_cast<double>(max_load) >
            options_.max_projected_imbalance * avg_load)
      return decline("projected partition too imbalanced");
  }

  if (stats != nullptr) {
    stats->projected = projected;
    stats->fresh = fresh;
    stats->projected_goodness = projected_goodness;
  }

  // ---- 3. Boundary-driven FM around the edit sites. ----------------------
  FmOptions fm;
  fm.max_passes = options_.refine_passes;
  support::Rng rng = support::Rng(request.seed).derive(kIncrementalSeedTag);
  constrained_fm_refine(g, p, c, fm, rng, ws);

  result.finalize(g, request.constraints);
  result.seconds = timer.seconds();
  return result;
}

std::optional<PartitionResult> IncrementalPartitioner::try_repartition(
    const graph::GraphDelta::Applied& applied, const Partition& prev,
    const PartitionRequest& request, IncrementalStats* stats) {
  return try_repartition(applied.graph, prev, applied.node_map,
                         applied.touched, request, stats);
}

std::optional<PartitionResult> IncrementalPartitioner::try_repartition_diffed(
    const Graph& base, const Graph& arriving, const Partition& prev,
    const PartitionRequest& request, IncrementalStats* stats) {
  const auto decline = [&](const char* reason) -> std::optional<PartitionResult> {
    if (stats != nullptr) {
      *stats = IncrementalStats{};
      stats->fell_back = true;
      stats->fallback_reason = reason;
    }
    return std::nullopt;
  };
  // A mismatched warm start declines instead of throwing: the admission
  // pipeline treats any decline as "run the full path", and a service loop
  // must survive a stale index entry.
  if (prev.size() != base.num_nodes())
    return decline("previous partition does not match the base graph");
  if (!prev.complete()) return decline("previous partition incomplete");

  const graph::GraphDelta delta = graph::diff(base, arriving);
  const std::size_t diff_ops = delta.num_ops();
  if (static_cast<double>(diff_ops) >
      options_.max_diff_ops_fraction *
          static_cast<double>(arriving.num_nodes()))
    return decline("diff too large");

  graph::GraphDelta::Applied applied = delta.apply(base);
  // Zero-invalid-reuse rail: the reconstruction must BE the arriving graph,
  // bit for bit. diff's invariant guarantees it; this exact comparison
  // makes a violation decline (full run) instead of corrupting an answer.
  if (!graph::bit_identical(applied.graph, arriving))
    return decline("diff reconstruction mismatch");

  // The reconstruction and `arriving` are interchangeable now; run on
  // `arriving` so the result indexes the caller's object.
  auto result = try_repartition(arriving, prev, applied.node_map,
                                applied.touched, request, stats);
  if (stats != nullptr) stats->diff_ops = diff_ops;
  return result;
}

}  // namespace ppnpart::part
