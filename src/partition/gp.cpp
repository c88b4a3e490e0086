#include "partition/gp.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "partition/coarsen_cache.hpp"
#include "partition/parallel.hpp"
#include "partition/phase_profile.hpp"
#include "partition/workspace.hpp"
#include "support/contracts.hpp"
#include "support/log.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace ppnpart::part {

namespace {

constexpr const char* kTraceCat = "gp";

/// Refines an assignment down the hierarchy above `finest`, recording the
/// trace. `assign` indexes the coarsest graph on entry and `finest` on
/// return.
std::vector<PartId> refine_down(const Hierarchy& h, const Graph& finest,
                                std::vector<PartId> assign, PartId k,
                                const Constraints& c,
                                const ParallelOptions& par,
                                support::Rng& rng, std::uint32_t cycle,
                                std::vector<GpLevelTrace>* trace,
                                Workspace& ws) {
  const FmOptions fm;
  support::ThreadPool& pool = support::ThreadPool::global();
  for (std::size_t level = h.num_levels(); level-- > 0;) {
    const Graph& g = h.level_graph(level, finest);
    PhaseScope phase(ws.phases, PhaseProfile::kRefine, ws.phase_cat,
                     static_cast<std::int64_t>(level),
                     static_cast<std::int64_t>(g.num_nodes()));
    const std::uint64_t swap_evals = ws.swap_evaluations;
    const FmTotals fm_before = ws.fm.totals;
    if (level + 1 < h.num_levels()) {
      // Project from the coarser level.
      std::vector<PartId> finer(g.num_nodes());
      const std::vector<NodeId>& map = h.levels[level].fine_to_coarse;
      for (NodeId u = 0; u < g.num_nodes(); ++u) finer[u] = assign[map[u]];
      assign = std::move(finer);
    }
    Partition& p = ws.level_partition;
    p.reset(g.num_nodes(), k);
    for (NodeId u = 0; u < g.num_nodes(); ++u) p.set(u, assign[u]);
    // One arm per level: every refiner below moves nodes through this
    // context, which stays exact under their moves, so none re-arms it.
    // The arm and each FM pass's seed evaluation run in chunks; the seed
    // count of a pass is at most the level's node count.
    const std::uint32_t seed_chunks =
        chunks_for(par.threads, g.num_nodes(), kSeedGrain);
    MoveContext& ctx = ws.move_ctx;
    ctx.reset(g, p, c, chunks_for(par.threads, g.num_nodes(), kResetGrain));
    support::Rng level_rng = rng.derive(0xFEEDull * (level + 1) + cycle);
    if (g.num_nodes() >= par.min_parallel_nodes) {
      // Large level, at every thread count: goodness-monotone label
      // propagation, then one FM pass. LP does the bulk move work; the FM
      // pass repairs what LP cannot see (tight constraint corners,
      // negative-gain escapes), and the stall rule ends it once its moves
      // stop paying.
      parallel_lp_refine(ctx, LpRefineOptions{}, par, ws.parallel, pool);
      FmOptions polish = fm;
      polish.max_passes = 1;
      constrained_fm_refine(ctx, polish, level_rng, ws.fm, seed_chunks);
    } else {
      constrained_fm_refine(ctx, fm, level_rng, ws.fm, seed_chunks);
      // Alternate FM with the swap neighbourhood on small graphs (coarsest
      // levels and small instances); swaps are what tight-Rmax repairs need.
      SwapRefineOptions swap_opts;
      for (std::uint32_t round = 0; round < 3; ++round) {
        if (!swap_refine(ctx, swap_opts, ws.swap, ws.swap_evaluations))
          break;
        constrained_fm_refine(ctx, fm, level_rng, ws.fm, seed_chunks);
      }
    }
    // Where this level's refinement work went, for a production trace.
    phase.arg("swap_evals",
              static_cast<std::int64_t>(ws.swap_evaluations - swap_evals));
    const FmTotals& fm_after = ws.fm.totals;
    phase.arg("fm_moves",
              static_cast<std::int64_t>(fm_after.applied - fm_before.applied));
    phase.arg("fm_kept",
              static_cast<std::int64_t>(fm_after.kept - fm_before.kept));
    phase.arg("fm_stalled",
              static_cast<std::int64_t>(fm_after.stalled - fm_before.stalled));
    for (NodeId u = 0; u < g.num_nodes(); ++u) assign[u] = p[u];
    if (trace != nullptr) {
      GpLevelTrace t;
      t.cycle = cycle;
      t.level = level;
      t.nodes = g.num_nodes();
      t.edges = g.num_edges();
      t.phase = GpLevelTrace::Phase::kUncoarsen;
      // ctx is still armed on (g, p, c) and in sync with p, so its
      // goodness is exact without a recompute.
      t.goodness = ctx.goodness();
      PPN_DCHECK(t.goodness == compute_goodness(g, p, c));
      trace->push_back(t);
    }
  }
  return assign;
}

void record_coarsen_trace(const Hierarchy& h, const Graph& finest,
                          std::uint32_t cycle,
                          std::vector<GpLevelTrace>* trace) {
  if (trace == nullptr) return;
  for (std::size_t level = 0; level < h.num_levels(); ++level) {
    const Graph& g = h.level_graph(level, finest);
    GpLevelTrace t;
    t.cycle = cycle;
    t.level = level;
    t.nodes = g.num_nodes();
    t.edges = g.num_edges();
    t.phase = level + 1 == h.num_levels() ? GpLevelTrace::Phase::kInitial
                                          : GpLevelTrace::Phase::kCoarsen;
    if (level > 0) t.matching = h.levels[level - 1].used_matching;
    trace->push_back(t);
  }
}

}  // namespace

GpPartitioner::GpPartitioner(GpOptions options) : options_(std::move(options)) {
  if (options_.matchings.empty())
    throw std::invalid_argument("GpPartitioner: no matching strategies");
}

PartitionResult GpPartitioner::run(const Graph& g,
                                   const PartitionRequest& request) {
  return run_detailed(g, request);
}

GpResult GpPartitioner::run_detailed(const Graph& g,
                                     const PartitionRequest& request) {
  if (request.k <= 0) throw std::invalid_argument("GP: k must be positive");
  support::Timer timer;
  GpResult result;
  result.algorithm = name();

  const PartId k = request.k;
  const Constraints& c = request.constraints;
  support::Rng rng(request.seed);

  CoarsenOptions coarsen_opts;
  coarsen_opts.coarsen_to = std::max<NodeId>(
      options_.coarsen_to, static_cast<NodeId>(k));  // never below k nodes
  coarsen_opts.strategies = options_.matchings;

  // `threads` is GP's one parallelism knob: par.threads caps every
  // kernel's chunk count, and threads=1 never touches the pool.
  const ParallelOptions par =
      resolve_parallel(request.threads, support::ThreadPool::global());

  GreedyGrowOptions grow_opts;
  grow_opts.restarts = options_.restarts;
  grow_opts.parallel = par.threads > 1;

  const FmOptions fm;

  Workspace local_ws;
  Workspace& ws = request.workspace != nullptr ? *request.workspace : local_ws;
  WorkspaceLease lease(ws);
  PhaseContextScope<Workspace> phase_ctx(ws, request.phases, kTraceCat);

  std::optional<std::vector<PartId>> best_assign;
  Goodness best_goodness;
  std::uint32_t feasible_cycles = 0;
  // With a coarsening cache every fresh V-cycle descends the one canonical
  // hierarchy (fetched at most once per run); search diversity then comes
  // from initial-partitioning restarts, refinement randomness and kicks.
  std::shared_ptr<const Hierarchy> shared_h;

  const std::uint32_t cycles = std::max(1u, options_.max_cycles);
  for (std::uint32_t cycle = 0; cycle < cycles; ++cycle) {
    // Cooperative stop at V-cycle granularity; cycle 0 always completes so
    // a budget-expired run still returns a complete partition.
    if (cycle > 0 && request.stop_requested()) break;
    support::Rng cycle_rng = rng.derive(0xC1C1Eull + cycle);
    const bool fresh =
        !best_assign ||
        (options_.fresh_restart_period > 0 &&
         cycle % std::max(1u, options_.fresh_restart_period) == 0);

    std::vector<PartId> assign;
    if (fresh) {
      // Fresh V-cycle: coarsen (or fetch the shared canonical hierarchy),
      // seed with greedy growth, refine down.
      Hierarchy local;
      if (request.coarsen_cache != nullptr) {
        if (!shared_h) {
          // The fetch covers a cache hit or an inline build (the cache's
          // canonical builder uses its own workspace, so per-level charges
          // do not double-count); either way it is coarsening time.
          PhaseScope phase(request.phases, PhaseProfile::kCoarsen, kTraceCat,
                           -1, static_cast<std::int64_t>(g.num_nodes()));
          const std::uint64_t gkey =
              request.graph_key != 0 ? request.graph_key : graph_digest(g);
          shared_h = request.coarsen_cache->hierarchy(gkey, coarsen_opts, g);
        }
      } else {
        local = coarsen(g, coarsen_opts, cycle_rng, ws, par.threads);
      }
      const Hierarchy& h = shared_h ? *shared_h : local;
      record_coarsen_trace(h, g, cycle, &result.trace);
      const Graph& coarsest = h.coarsest(g);
      std::vector<PartId> coarse_assign;
      {
        PhaseScope phase(request.phases, PhaseProfile::kInitial, kTraceCat,
                         static_cast<std::int64_t>(h.num_levels() - 1),
                         static_cast<std::int64_t>(coarsest.num_nodes()));
        support::Rng grow_rng = cycle_rng.derive(0x6120);
        Partition seed_part =
            greedy_grow_initial(coarsest, k, c, grow_opts, grow_rng);
        support::Rng seed_fm_rng = cycle_rng.derive(0x6121);
        constrained_fm_refine(coarsest, seed_part, c, fm, seed_fm_rng, ws);
        coarse_assign.resize(coarsest.num_nodes());
        for (NodeId u = 0; u < coarsest.num_nodes(); ++u)
          coarse_assign[u] = seed_part[u];
      }
      assign = refine_down(h, g, std::move(coarse_assign), k, c, par,
                           cycle_rng, cycle, &result.trace, ws);
    } else {
      // Cyclic re-coarsening around the incumbent (paper: "coarsened back to
      // the lowest level if needed … repeated a number of parametrized
      // times"), with a random kick so FM escapes the incumbent's basin
      // (iterated local search).
      RestrictedHierarchy rh = coarsen_restricted(
          g, *best_assign, coarsen_opts, cycle_rng, ws, par.threads);
      record_coarsen_trace(rh.hierarchy, g, cycle, &result.trace);
      std::vector<PartId>& coarse = rh.coarse_parts;
      const NodeId cn = rh.hierarchy.coarsest(g).num_nodes();
      support::Rng kick_rng = cycle_rng.derive(0x6B1C6);
      // One random move per 64 coarsest nodes, and at least 3.
      const std::uint32_t kicks =
          std::max<std::uint32_t>(3, static_cast<std::uint32_t>(cn / 64));
      for (std::uint32_t i = 0; i < kicks && cn > 1; ++i) {
        // Alternate single-node reassignments with pairwise swaps; swaps
        // keep loads level, which matters when Rmax is tight.
        const NodeId u = static_cast<NodeId>(kick_rng.uniform_index(cn));
        if (i % 2 == 0) {
          coarse[u] = static_cast<PartId>(
              kick_rng.uniform_index(static_cast<std::size_t>(k)));
        } else {
          const NodeId v = static_cast<NodeId>(kick_rng.uniform_index(cn));
          if (u != v) std::swap(coarse[u], coarse[v]);
        }
      }
      assign = refine_down(rh.hierarchy, g, std::move(coarse), k, c, par,
                           cycle_rng, cycle, &result.trace, ws);
    }

    Partition p(g.num_nodes(), k);
    for (NodeId u = 0; u < g.num_nodes(); ++u) p.set(u, assign[u]);
    const Goodness goodness = compute_goodness(g, p, c);
    if (!best_assign || goodness < best_goodness) {
      best_goodness = goodness;
      best_assign = std::move(assign);
    }
    result.cycles_used = cycle + 1;
    if (best_goodness.resource_excess == 0 &&
        best_goodness.bandwidth_excess == 0) {
      // Feasible: allow a few polish cycles to chase cut, then stop.
      if (feasible_cycles++ >= options_.extra_cycles_after_feasible) break;
    }
  }

  result.partition = Partition(g.num_nodes(), k);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    result.partition.set(u, (*best_assign)[u]);
  result.finalize(g, c);
  result.seconds = timer.seconds();
  if (!result.feasible) {
    PPNPART_INFO << "GP: no feasible partition within " << result.cycles_used
                 << " cycles — constraints may be infeasible or need more "
                    "iterations (paper Section IV-C)";
  }
  return result;
}

}  // namespace ppnpart::part
