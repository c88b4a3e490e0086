#include "partition/refine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/thread_pool.hpp"

namespace ppnpart::part {

namespace {

/// Lexicographic comparison of a move's gain delta (goodness after minus
/// goodness now, componentwise; negative components are improvements).
inline bool delta_less(const FmHeapEntry& a, const FmHeapEntry& b) {
  if (a.d_resource != b.d_resource) return a.d_resource < b.d_resource;
  if (a.d_bandwidth != b.d_bandwidth) return a.d_bandwidth < b.d_bandwidth;
  return a.d_cut < b.d_cut;
}

/// Heap comparator: min-heap on delta (best gain at the top), over pool
/// indices. Used with std::push_heap/pop_heap over the workspace-owned
/// index vector, which is operation-for-operation what std::priority_queue
/// over whole entries did before the scratch was hoisted — the comparator
/// sees identical values, so the pop order is identical.
struct WorseDelta {
  const FmHeapEntry* pool;
  bool operator()(std::uint32_t a, std::uint32_t b) const {
    return delta_less(pool[b], pool[a]);
  }
};

/// One FM pass over the constrained goodness. Returns the pass's best
/// goodness (state of `p` on return corresponds to it). All scratch comes
/// from `ws`; a warm workspace makes the pass allocation-free.
Goodness constrained_fm_pass(MoveContext& ctx, const FmOptions& options,
                             support::Rng& rng, FmScratch& fs,
                             std::uint32_t seed_chunks) {
  const Graph& g = ctx.graph();
  const NodeId n = g.num_nodes();

  // Lazy max-improvement heap keyed by the move's *gain delta* — goodness
  // after minus goodness now, componentwise. Keying on the absolute
  // goodness-after would invalidate every entry whenever any move changes
  // the global cut; deltas only drift for nodes whose neighbourhood or
  // parts were touched, so the lazy revalidation below stays local (this
  // is what keeps a pass near-linear on large graphs).
  auto entry_of = [&](NodeId u, PartId target, const Goodness& after,
                      std::uint32_t stamp) {
    const Goodness now = ctx.goodness();
    return FmHeapEntry{after.resource_excess - now.resource_excess,
                       after.bandwidth_excess - now.bandwidth_excess,
                       after.cut - now.cut, u, target, stamp,
                       static_cast<std::uint32_t>(ctx.apply_count())};
  };
  std::vector<FmHeapEntry>& pool = fs.pool;
  std::vector<std::uint32_t>& heap = fs.heap;
  pool.clear();
  heap.clear();
  // Stamps need only intra-pass equality (the heap is emptied between
  // passes), so the buffer is grown but never re-zeroed or shrunk: values
  // persist monotonically, which skips an O(n) memset per pass and the
  // re-zeroing that shrink-then-grow across levels would cause.
  if (fs.stamp.size() < n) {
    support::reserve_tracked(fs.stamp, n, fs.stats);
    fs.stamp.resize(n);
  }
  support::assign_tracked(fs.locked, n, 0, fs.stats);

  auto heap_push = [&](const FmHeapEntry& e) {
    pool.push_back(e);
    heap.push_back(static_cast<std::uint32_t>(pool.size() - 1));
    std::push_heap(heap.begin(), heap.end(), WorseDelta{pool.data()});
  };
  auto push_candidate = [&](NodeId u) {
    if (fs.locked[u]) return;
    auto cand = ctx.best_move(u);
    if (!cand) return;
    heap_push(entry_of(u, cand->target, cand->after, fs.stamp[u]));
  };

  // Seed: boundary nodes plus every node of an over-capacity part (those
  // repair resource violations but need not touch the boundary), in random
  // order so equal-goodness candidates break ties stochastically.
  std::vector<NodeId>& seeds = fs.seeds;
  ctx.boundary_nodes(seeds);
  if (ctx.goodness().resource_excess > 0) {
    support::assign_tracked(fs.seeded, n, 0, fs.stats);
    for (NodeId u : seeds) fs.seeded[u] = 1;
    const Constraints& c = ctx.constraints();
    for (NodeId u = 0; u < n; ++u) {
      const PartId pu = ctx.part_of(u);
      if (!fs.seeded[u] && ctx.load(pu) > c.rmax_of(pu)) seeds.push_back(u);
    }
  }
  rng.shuffle(seeds);
  support::reserve_tracked(heap, seeds.size(), fs.stats);
  support::reserve_tracked(pool, seeds.size(), fs.stats);
  // Evaluate every seed's best move against the pass-start state into its
  // pool slot, in chunks of the seed order (no move happens until all are
  // done, and no seed is locked yet); target kUnassigned marks a seed
  // without a legal move. Pushing the rest in seed order gives the heap
  // the push sequence of evaluating them one by one, and the heap only
  // compares entry values, so its pops are the same too.
  const std::size_t num_seeds = seeds.size();
  const std::size_t nchunks = std::clamp<std::size_t>(
      seed_chunks, 1, std::max<std::size_t>(num_seeds, 1));
  pool.resize(num_seeds);
  support::parallel_for(0, nchunks, [&](std::size_t chunk) {
    for (std::size_t i = num_seeds * chunk / nchunks;
         i < num_seeds * (chunk + 1) / nchunks; ++i) {
      const NodeId u = seeds[i];
      const auto cand = ctx.best_move(u);
      pool[i] = cand ? entry_of(u, cand->target, cand->after, fs.stamp[u])
                     : FmHeapEntry{0, 0, 0, u, kUnassigned, 0, 0};
    }
  });
  for (std::size_t i = 0; i < num_seeds; ++i) {
    if (pool[i].target == kUnassigned) continue;
    heap.push_back(static_cast<std::uint32_t>(i));
    std::push_heap(heap.begin(), heap.end(), WorseDelta{pool.data()});
  }

  std::vector<FmMoveRecord>& log = fs.log;
  support::reserve_tracked(log, n, fs.stats);
  log.clear();
  Goodness best = ctx.goodness();
  std::size_t best_prefix = 0;
  const std::uint64_t limit =
      options.move_limit == 0 ? n : options.move_limit;
  const std::uint64_t stall_limit = fm_stall_moves(n);

  // Safety valve: lazy revalidation is amortized-cheap, but adversarial
  // weight patterns could ping-pong reinsertions; cap total pops.
  std::uint64_t pops = 0;
  const std::uint64_t pop_limit = 16ull * std::max<std::uint64_t>(n, 64);
  // push_back growth past the tracked reserves is real allocator traffic;
  // account for it at pass end via the capacity delta.
  const std::size_t pool_cap = pool.capacity();
  const std::size_t heap_cap = heap.capacity();

  while (!heap.empty() && log.size() < limit &&
         log.size() - best_prefix < stall_limit && pops++ < pop_limit) {
    const FmHeapEntry e = pool[heap.front()];
    std::pop_heap(heap.begin(), heap.end(), WorseDelta{pool.data()});
    heap.pop_back();
    if (fs.locked[e.node] || e.stamp != fs.stamp[e.node]) continue;
    PartId target = e.target;
    if (e.version != static_cast<std::uint32_t>(ctx.apply_count())) {
      // Revalidate lazily: the stored delta may have drifted because a
      // neighbouring move changed loads or pairwise cuts. Recompute; if the
      // move is now *worse* than advertised, reinsert with the fresh key
      // (someone else may beat it); if it is as good or better, take it —
      // it still dominates everything below it in the heap. (When no move
      // at all happened since the push, the stored delta is exact and this
      // recomputation is skipped.)
      auto cand = ctx.best_move(e.node);
      if (!cand) continue;
      FmHeapEntry actual =
          entry_of(e.node, cand->target, cand->after, fs.stamp[e.node]);
      if (delta_less(e, actual)) {
        actual.stamp = ++fs.stamp[e.node];
        heap_push(actual);
        continue;
      }
      target = cand->target;
    }
    const PartId from = ctx.part_of(e.node);
    ctx.apply(e.node, target);
    fs.locked[e.node] = 1;
    log.push_back({e.node, from});
    const Goodness now = ctx.goodness();
    if (now < best) {
      best = now;
      best_prefix = log.size();
    }
    for (NodeId v : g.neighbors(e.node)) {
      if (!fs.locked[v]) {
        ++fs.stamp[v];
        push_candidate(v);
      }
    }
  }

  FmTotals& t = fs.totals;
  ++t.passes;
  t.seeds += seeds.size();
  t.pops += std::min(pops, pop_limit);
  t.applied += log.size();
  t.kept += best_prefix;
  if (log.size() - best_prefix >= stall_limit) ++t.stalled;

  if (fs.stats != nullptr) {
    if (pool.capacity() > pool_cap) {
      fs.stats->note((pool.capacity() - pool_cap) * sizeof(FmHeapEntry));
    }
    if (heap.capacity() > heap_cap) {
      fs.stats->note((heap.capacity() - heap_cap) * sizeof(std::uint32_t));
    }
  }

  // Roll back to the best prefix.
  for (std::size_t i = log.size(); i-- > best_prefix;) {
    ctx.apply(log[i].node, log[i].from);
  }
  return best;
}

}  // namespace

bool constrained_fm_refine(MoveContext& ctx, const FmOptions& options,
                           support::Rng& rng, FmScratch& fs,
                           std::uint32_t seed_chunks) {
  const Goodness initial = ctx.goodness();
  Goodness current = initial;
  for (std::uint32_t pass = 0; pass < options.max_passes; ++pass) {
    support::Rng pass_rng = rng.derive(0x9d5ull * (pass + 1));
    const Goodness after =
        constrained_fm_pass(ctx, options, pass_rng, fs, seed_chunks);
    if (!(after < current)) break;
    current = after;
  }
  return current < initial;
}

bool constrained_fm_refine(const Graph& g, Partition& p, const Constraints& c,
                           const FmOptions& options, support::Rng& rng,
                           Workspace& ws) {
  ws.move_ctx.reset(g, p, c);
  return constrained_fm_refine(ws.move_ctx, options, rng, ws.fm);
}

bool constrained_fm_refine(const Graph& g, Partition& p, const Constraints& c,
                           const FmOptions& options, support::Rng& rng) {
  Workspace ws;
  return constrained_fm_refine(g, p, c, options, rng, ws);
}

bool swap_refine(MoveContext& ctx, const SwapRefineOptions& options,
                 SwapScratch& ss, std::uint64_t& evaluations) {
  const NodeId n = ctx.graph().num_nodes();
  if (n > options.max_nodes || n < 2) return false;
  const PartId k = ctx.k();
  const std::size_t kk = static_cast<std::size_t>(k);
  std::vector<Weight>& best_gain = ss.best_gain;
  std::vector<std::uint8_t>& pays = ss.pays;
  support::assign_tracked(best_gain, kk * kk, 0, ss.stats);
  support::assign_tracked(pays, kk, 0, ss.stats);
  const Goodness initial = ctx.goodness();
  std::uint64_t evaluated = 0;

  for (std::uint32_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved_this_pass = false;
    // Steepest descent: repeatedly take the best improving swap.
    for (std::uint64_t step = 0; step < n; ++step) {
      const Goodness current = ctx.goodness();
      // Row b of best_gain holds the largest gain_v(a) = conn(v, a) -
      // conn(v, b) over the nodes v of part b; pays[b] marks a filled row.
      std::fill(pays.begin(), pays.end(), std::uint8_t{0});
      for (NodeId v = 0; v < n; ++v) {
        const PartId b = ctx.part_of(v);
        Weight* const row = &best_gain[static_cast<std::size_t>(b) * kk];
        const Weight own = ctx.conn(v, b);
        for (PartId a = 0; a < k; ++a) {
          const Weight gain = ctx.conn(v, a) - own;
          row[a] = pays[b] ? std::max(row[a], gain) : gain;
        }
        pays[b] = 1;
      }
      NodeId best_u = graph::kInvalidNode, best_v = graph::kInvalidNode;
      Goodness best_after = current;
      // While the incumbent is feasible, swapping u (part a) with v (part
      // b) beats it only if gain_u(b) + gain_v(a) > need: the swap's cut is
      // cut - gain_u(b) - gain_v(a) + 2 w(u,v), and it must be feasible
      // with a cut below the incumbent's.
      bool bounded = false;
      Weight need = 0;
      const auto track_incumbent = [&] {
        bounded = best_after.resource_excess == 0 &&
                  best_after.bandwidth_excess == 0;
        need = current.cut - best_after.cut;
      };
      track_incumbent();
      for (NodeId u = 0; u < n; ++u) {
        const PartId a = ctx.part_of(u);
        const Weight own = ctx.conn(u, a);
        // pays[b]: some v of part b may still win against the incumbent.
        bool any = false;
        for (PartId b = 0; b < k; ++b) {
          const std::size_t ba =
              static_cast<std::size_t>(b) * kk + static_cast<std::size_t>(a);
          pays[b] = b != a && ctx.part_size(b) > 0 &&
                    (!bounded || ctx.conn(u, b) - own + best_gain[ba] > need);
          any = any || pays[b];
        }
        if (!any) continue;
        for (NodeId v = u + 1; v < n; ++v) {
          const PartId b = ctx.part_of(v);
          if (!pays[b]) continue;
          const Weight gain = ctx.conn(u, b) - own + ctx.conn(v, a) -
                              ctx.conn(v, b);
          if (bounded && gain <= need) continue;
          ++evaluated;
          const Goodness after = ctx.goodness_after_swap(u, v);
          if (after < best_after) {
            best_after = after;
            best_u = u;
            best_v = v;
            track_incumbent();
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
  evaluations += evaluated;
  return ctx.goodness() < initial;
}

bool swap_refine(const Graph& g, Partition& p, const Constraints& c,
                 const SwapRefineOptions& options, support::Rng& /*rng*/,
                 Workspace& ws) {
  ws.move_ctx.reset(g, p, c);
  return swap_refine(ws.move_ctx, options, ws.swap, ws.swap_evaluations);
}

bool greedy_cut_refine(const Graph& g, Partition& p, Weight max_load,
                       support::Rng& rng, Workspace& ws) {
  constexpr std::uint32_t kMaxPasses = 8;
  // Balance modelled as a hard cap; cut via the goodness cut component.
  Constraints cap;
  cap.rmax = max_load;
  MoveContext& ctx = ws.move_ctx;
  ctx.reset(g, p, cap);
  const Weight initial_cut = ctx.cut();
  // The visit order lives in the workspace; every executed pass follows a
  // pass that moved something (or is the first), so each collection is
  // warranted — and it is the incremental boundary enumeration, not a
  // graph rescan.
  std::vector<NodeId>& order = ws.boundary;
  for (std::uint32_t pass = 0; pass < kMaxPasses; ++pass) {
    bool moved = false;
    ctx.boundary_nodes(order);
    rng.shuffle(order);
    for (NodeId u : order) {
      const PartId from = ctx.part_of(u);
      if (ctx.part_size(from) <= 1) continue;
      const Weight w = g.node_weight(u);
      PartId best_target = kUnassigned;
      Weight best_gain = 0;
      Weight best_target_load = std::numeric_limits<Weight>::max();
      for (PartId q = 0; q < ctx.k(); ++q) {
        if (q == from) continue;
        if (ctx.conn(u, q) == 0) continue;        // only toward neighbours
        if (ctx.load(q) + w > max_load) continue;  // hard balance cap
        const Weight gain = ctx.conn(u, q) - ctx.conn(u, from);
        const bool acceptable =
            gain > 0 || (gain == 0 && ctx.load(q) + w < ctx.load(from));
        if (!acceptable) continue;
        if (best_target == kUnassigned || gain > best_gain ||
            (gain == best_gain && ctx.load(q) < best_target_load)) {
          best_gain = gain;
          best_target = q;
          best_target_load = ctx.load(q);
        }
      }
      if (best_target != kUnassigned) {
        ctx.apply(u, best_target);
        moved = true;
      }
    }
    if (!moved) break;
  }
  return ctx.cut() < initial_cut;
}

bool bisection_fm_refine(const Graph& g, Partition& p, Weight cap0,
                         Weight cap1, std::uint32_t max_passes,
                         Workspace& ws) {
  if (p.k() != 2)
    throw std::invalid_argument("bisection_fm_refine: k must be 2");
  const NodeId n = g.num_nodes();
  BisectionScratch& bs = ws.bisect;

  auto overweight = [&](Weight l0, Weight l1) {
    return std::max<Weight>(0, l0 - cap0) + std::max<Weight>(0, l1 - cap1);
  };

  // Local 2-way state: conn-to-own / conn-to-other per node.
  support::assign_tracked(bs.internal, n, 0, bs.stats);
  support::assign_tracked(bs.external, n, 0, bs.stats);
  std::vector<Weight>& internal = bs.internal;
  std::vector<Weight>& external = bs.external;
  Weight load[2] = {0, 0};
  std::uint32_t count[2] = {0, 0};
  Weight cut = 0;
  for (NodeId u = 0; u < n; ++u) {
    load[p[u]] += g.node_weight(u);
    ++count[p[u]];
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (p[nbrs[i]] == p[u]) {
        internal[u] += wgts[i];
      } else {
        external[u] += wgts[i];
        if (u < nbrs[i]) cut += wgts[i];
      }
    }
  }

  struct State {
    Weight over, cut;
  };
  auto better = [](const State& a, const State& b) {
    return a.over != b.over ? a.over < b.over : a.cut < b.cut;
  };

  const State initial{overweight(load[0], load[1]), cut};
  State current = initial;

  // Moves u to the other side and keeps loads, counts, cut and the
  // neighbours' internal/external weights current. A pass flips each node
  // it picks, then flips the moves past its best prefix back, newest first.
  auto flip = [&](NodeId u) {
    const PartId from = p[u];
    const PartId to = 1 - from;
    const Weight w = g.node_weight(u);
    load[from] -= w;
    load[to] += w;
    --count[from];
    ++count[to];
    cut += internal[u] - external[u];
    std::swap(internal[u], external[u]);
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (p[v] == to) {
        internal[v] += wgts[i];
        external[v] -= wgts[i];
      } else {
        internal[v] -= wgts[i];
        external[v] += wgts[i];
      }
    }
    p.set(u, to);
  };

  for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
    support::assign_tracked(bs.locked, n, 0, bs.stats);
    std::vector<NodeId>& log = bs.log;
    support::reserve_tracked(log, n, bs.stats);
    log.clear();
    State best = current;
    std::size_t best_prefix = 0;

    // Simple selection: scan for the best unlocked move each step. The
    // bisection runs on coarsest-level graphs (hundreds of nodes), so the
    // O(n) scan per move is irrelevant next to correctness.
    for (std::uint64_t step = 0; step < n; ++step) {
      NodeId pick = graph::kInvalidNode;
      State pick_state{std::numeric_limits<Weight>::max(),
                       std::numeric_limits<Weight>::max()};
      for (NodeId u = 0; u < n; ++u) {
        if (bs.locked[u]) continue;
        const PartId from = p[u];
        if (count[from] <= 1) continue;
        const Weight w = g.node_weight(u);
        const Weight l_from = load[from] - w;
        const Weight l_to = load[1 - from] + w;
        const State s{from == 0 ? overweight(l_from, l_to)
                                : overweight(l_to, l_from),
                      cut + internal[u] - external[u]};
        if (pick == graph::kInvalidNode || better(s, pick_state)) {
          pick = u;
          pick_state = s;
        }
      }
      if (pick == graph::kInvalidNode) break;
      flip(pick);
      bs.locked[pick] = 1;
      log.push_back(pick);
      const State now{overweight(load[0], load[1]), cut};
      if (better(now, best)) {
        best = now;
        best_prefix = log.size();
      }
    }

    for (std::size_t i = log.size(); i-- > best_prefix;) flip(log[i]);
    if (!better(best, current)) break;
    current = best;
  }
  return better(current, initial);
}

}  // namespace ppnpart::part
