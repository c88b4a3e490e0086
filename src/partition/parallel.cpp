#include "partition/parallel.hpp"

#include <algorithm>

#include "partition/move_context.hpp"
#include "support/alloc_stats.hpp"

namespace ppnpart::part {

namespace {

using graph::kInvalidNode;

/// Contiguous node range handled by one task/arena. Chunk boundaries are a
/// scheduling choice only: every kernel below produces output that is
/// invariant under re-chunking (per-node work is a pure function of
/// phase-start state; merges happen in node order).
struct Chunk {
  std::size_t index;
  NodeId begin;
  NodeId end;
};

std::vector<Chunk> make_chunks(NodeId n, std::uint32_t parts) {
  const std::size_t count =
      std::max<std::size_t>(1, std::min<std::size_t>(parts, n == 0 ? 1 : n));
  std::vector<Chunk> chunks;
  chunks.reserve(count);
  const NodeId per = static_cast<NodeId>((n + count - 1) / count);
  NodeId begin = 0;
  for (std::size_t i = 0; i < count && begin < n; ++i) {
    const NodeId end = std::min<NodeId>(n, begin + per);
    chunks.push_back(Chunk{i, begin, end});
    begin = end;
  }
  if (chunks.empty()) chunks.push_back(Chunk{0, 0, 0});
  return chunks;
}

/// Globally consistent total order on edges: heavier first, then the
/// lexicographically smaller (min endpoint, max endpoint) pair. Both
/// endpoints of an edge rank it identically, which is what guarantees the
/// mutual-proposal rounds always pair the globally best free edge (the
/// "local max" argument) and therefore make progress every round.
bool edge_better(Weight w_a, NodeId a1, NodeId a2, Weight w_b, NodeId b1,
                 NodeId b2) {
  if (w_a != w_b) return w_a > w_b;
  const NodeId amin = std::min(a1, a2), amax = std::max(a1, a2);
  const NodeId bmin = std::min(b1, b2), bmax = std::max(b1, b2);
  if (amin != bmin) return amin < bmin;
  return amax < bmax;
}

/// Per-part resource budget (uniform or heterogeneous).
Weight budget_of(const Constraints& c, PartId p) { return c.rmax_of(p); }

}  // namespace

ParallelOptions resolve_parallel(std::uint32_t requested,
                                 support::ThreadPool& pool) {
  ParallelOptions out;
  out.threads = requested == 0 ? std::max(1u, pool.size()) : requested;
  return out;
}

/// Synchronous rounds of (A) every free node proposes its best free
/// neighbour under edge_better, (B) mutual proposals pair up, proposal-less
/// nodes finalize single. Each phase is a
/// pure function of the previous barrier's state and every slot has exactly
/// one writer, so the result is a pure function of the graph — identical at
/// any chunk count, no RNG consumed. Terminates because every round with a
/// free-free edge matches at least the globally best one, and free nodes
/// without free neighbours finalize immediately.
Weight parallel_heavy_edge_matching(const Graph& g,
                                    const ParallelOptions& options,
                                    Matching& match, Workspace& ws,
                                    support::ThreadPool& pool) {
  const NodeId n = g.num_nodes();
  support::AllocStats* stats = ws.parallel.stats;
  support::assign_tracked(match, n, kInvalidNode, stats);
  support::assign_tracked(ws.parallel.proposal, n, kInvalidNode, stats);
  support::assign_tracked(ws.parallel.proposal_weight, n, Weight{0}, stats);

  const std::vector<Chunk> chunks = make_chunks(n, options.threads);
  std::vector<Weight> chunk_weight(chunks.size(), 0);
  std::vector<NodeId> chunk_free(chunks.size(), 0);

  const Graph* gp = &g;
  NodeId* m = match.data();
  NodeId* prop = ws.parallel.proposal.data();
  Weight* prop_w = ws.parallel.proposal_weight.data();

  Weight total = 0;
  NodeId free_nodes = n;
  while (free_nodes > 0) {
    // Phase A: propose. Reads `m` (frozen since the last barrier), writes
    // only prop/prop_w slots the chunk owns.
    support::parallel_for(pool, 0, chunks.size(),
                          [&chunks, gp, m, prop, prop_w](std::size_t i) {
      const Chunk& ch = chunks[i];
      for (NodeId u = ch.begin; u < ch.end; ++u) {
        if (m[u] != kInvalidNode) continue;
        auto nbrs = gp->neighbors(u);
        auto wgts = gp->edge_weights(u);
        NodeId best = u;
        Weight best_w = 0;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const NodeId v = nbrs[i];
          if (v == u || m[v] != kInvalidNode) continue;
          if (best == u ||
              edge_better(wgts[i], u, v, best_w, u, best)) {
            best = v;
            best_w = wgts[i];
          }
        }
        prop[u] = best;
        prop_w[u] = best_w;
      }
    });
    // Phase B: pair mutual proposals; finalize proposal-less singles. Each
    // node writes only its own match slot (both endpoints of a mutual pair
    // observe the same frozen proposals and write their own halves).
    Weight* cw = chunk_weight.data();
    NodeId* cf = chunk_free.data();
    support::parallel_for(pool, 0, chunks.size(),
                          [&chunks, m, prop, prop_w, cw, cf](std::size_t i) {
      const Chunk& ch = chunks[i];
      Weight w = 0;
      NodeId still_free = 0;
      for (NodeId u = ch.begin; u < ch.end; ++u) {
        if (m[u] != kInvalidNode) continue;
        const NodeId v = prop[u];
        if (v == u) {
          m[u] = u;  // no free neighbour left; final
          continue;
        }
        if (prop[v] == u) {
          m[u] = v;
          if (u < v) w += prop_w[u];
          continue;
        }
        ++still_free;
      }
      cw[ch.index] = w;
      cf[ch.index] = still_free;
    });
    // Reduce in chunk-index order (== node order); integer sums would be
    // order-independent anyway, but the discipline is uniform.
    free_nodes = 0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      total += chunk_weight[i];
      free_nodes += chunk_free[i];
    }
  }
  return total;
}

bool parallel_lp_refine(const Graph& g, Partition& p, const Constraints& c,
                        const LpRefineOptions& options,
                        const ParallelOptions& popts, Workspace& ws,
                        support::ThreadPool& pool) {
  ws.move_ctx.reset(g, p, c);
  return parallel_lp_refine(ws.move_ctx, options, popts, ws.parallel, pool);
}

bool parallel_lp_refine(MoveContext& mc, const LpRefineOptions& options,
                        const ParallelOptions& popts, ParallelScratch& ps,
                        support::ThreadPool& pool) {
  const NodeId n = mc.graph().num_nodes();
  const PartId k = mc.k();
  if (n == 0 || k <= 1) return false;

  const std::vector<Chunk> chunks = make_chunks(n, popts.threads);
  std::vector<ThreadArena*> arena_ptrs(chunks.size(), nullptr);
  for (std::size_t i = 0; i < chunks.size(); ++i)
    arena_ptrs[i] = &ps.arena(i);

  std::vector<LpCandidate>& merged = ps.merged;
  bool any_committed = false;
  for (std::uint32_t round = 0; round < options.max_rounds; ++round) {
    merged.clear();
    // Scan phase: read-only against the round-start MoveContext state (the
    // commit below is the only mutator and is strictly phase-separated).
    // Each boundary node proposes its best-connected other part, ties to
    // the smaller part id; an overloaded home part also proposes so the
    // exact commit check can trade cut for feasibility.
    const MoveContext* mcp = &mc;
    const Constraints* cp = &mc.constraints();
    ThreadArena* const* arenas = arena_ptrs.data();
    support::parallel_for(pool, 0, chunks.size(),
                          [&chunks, mcp, cp, k, arenas](std::size_t i) {
      const Chunk& ch = chunks[i];
      ThreadArena& arena = *arenas[ch.index];
      arena.moves.clear();
      for (NodeId u = ch.begin; u < ch.end; ++u) {
        if (!mcp->is_boundary(u)) continue;
        const PartId from = mcp->part_of(u);
        const Weight conn_from = mcp->conn(u, from);
        PartId best = from;
        Weight best_conn = -1;
        for (PartId q = 0; q < k; ++q) {
          if (q == from) continue;
          const Weight cq = mcp->conn(u, q);
          if (cq > best_conn) {
            best = q;
            best_conn = cq;
          }
        }
        if (best == from) continue;
        const bool overloaded = mcp->load(from) > budget_of(*cp, from);
        if (best_conn > conn_from || overloaded)
          arena.moves.push_back(LpCandidate{u, best});
      }
    });
    // Chunks are contiguous ascending ranges, so chunk-index order is
    // node-id order — the reduction is independent of the chunk count.
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      ThreadArena& arena = *arena_ptrs[i];
      merged.insert(merged.end(), arena.moves.begin(), arena.moves.end());
    }
    // Commit phase (serial): re-validate every candidate against the exact
    // lexicographic goodness on the *current* state and apply strictly
    // improving moves only. Overload is the leading goodness component, so
    // per-part weight budgets are enforced exactly; stale proposals whose
    // gain evaporated under earlier commits are rejected for free.
    std::size_t committed = 0;
    for (const LpCandidate& cand : merged) {
      if (mc.part_of(cand.node) == cand.to) continue;
      if (mc.goodness_after(cand.node, cand.to) < mc.goodness()) {
        mc.apply(cand.node, cand.to);
        ++committed;
      }
    }
    if (committed == 0) break;
    any_committed = true;
  }
  return any_committed;
}

}  // namespace ppnpart::part
