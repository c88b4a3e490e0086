// Per-layer metrics: the reporting list, the values of one GP run, the
// exact-checked family, and the layer probes — public kernel entry points
// called one at a time on fixed inputs, each inside a benchmark span.
// Probe times are the spans' self times, so the probe and the trace file
// cannot disagree.

#include <algorithm>
#include <utility>

#include "graph/diff.hpp"
#include "partition/coarsen.hpp"
#include "partition/exact.hpp"
#include "partition/incremental.hpp"
#include "partition/initial.hpp"
#include "partition/parallel.hpp"
#include "partition/refine.hpp"
#include "partition/workspace.hpp"
#include "support/graph_sketch.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace part = ppnpart::part;

void emit_layer_metrics(const LayerValues& values, Result& out) {
  // Must match BENCHMARK.json's per_layer list (the benchmark's test checks
  // the printed names and units against it).
  static const std::pair<const char*, const char*> kMetrics[] = {
      {"partition.phase.coarsen_s", "s"},
      {"partition.phase.initial_s", "s"},
      {"partition.phase.refine_s", "s"},
      {"partition.cycles", "count"},
      {"partition.levels", "count"},
      {"partition.coarsest_nodes", "count"},
      {"partition.ws_growths", "count"},
      {"partition.matching_s", "s"},
      {"partition.matched_weight_share", "share"},
      {"graph.contract_s", "s"},
      {"partition.initial_s", "s"},
      {"partition.fm_s", "s"},
      {"partition.fm_calls", "count"},
      {"partition.fm_improved_share", "share"},
      {"partition.swap_s", "s"},
      {"partition.lp_s", "s"},
      {"partition.lp_improved_share", "share"},
      {"engine.submit_ms_p50", "ms"},
      {"engine.submit_ms_max", "ms"},
      {"engine.latency_ms_p50.exact_hit", "ms"},
      {"engine.latency_ms_p50.similarity", "ms"},
      {"engine.latency_ms_p95.full", "ms"},
      {"engine.path_share.exact_hit", "share"},
      {"engine.path_share.similarity", "share"},
      {"engine.path_share.full", "share"},
      {"engine.path_share.coalesced", "share"},
      {"engine.cache.hit_rate", "share"},
      {"engine.coarsen_cache.hit_rate", "share"},
      {"engine.similarity.near_hit_rate", "share"},
      {"engine.member_s_per_full_job", "s"},
      {"engine.queue_wait_ms_p95", "ms"},
      {"engine.pool_busy_share", "share"},
      {"engine.member.gp.win_share", "share"},
      {"engine.member.gp.busy_share", "share"},
      {"engine.member.metislike.win_share", "share"},
      {"engine.member.metislike.busy_share", "share"},
      {"engine.member.annealing.win_share", "share"},
      {"engine.member.annealing.busy_share", "share"},
      {"engine.member.tabu.win_share", "share"},
      {"engine.member.tabu.busy_share", "share"},
      {"engine.gen_lag_ms_max", "ms"},
      {"support.sketch_s", "s"},
      {"graph.diff_s", "s"},
      {"partition.warm_s", "s"},
      {"trace_overhead_share", "share"},
      {"failed_share", "share"},
  };
  for (const auto& [name, unit] : kMetrics) {
    const auto it = values.find(name);
    out.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

LayerValues median_of(const std::vector<LayerValues>& runs) {
  std::map<std::string, std::vector<double>> samples;
  for (const LayerValues& run : runs)
    for (const auto& [name, value] : run) samples[name].push_back(value);
  LayerValues out;
  for (const auto& [name, values] : samples) out[name] = median(values);
  return out;
}

LayerValues gp_run_layers(const part::GpResult& r,
                          const part::PhaseProfile& phases,
                          std::uint64_t ws_growths) {
  LayerValues v;
  const auto phase_s = [&](part::PhaseProfile::Phase p) {
    return static_cast<double>(phases.entries[p].time_us) / 1e6;
  };
  v["partition.phase.coarsen_s"] = phase_s(part::PhaseProfile::kCoarsen);
  v["partition.phase.initial_s"] = phase_s(part::PhaseProfile::kInitial);
  v["partition.phase.refine_s"] = phase_s(part::PhaseProfile::kRefine);
  v["partition.cycles"] = r.cycles_used;
  for (const part::GpLevelTrace& t : r.trace)
    if (t.cycle == 0 && t.phase == part::GpLevelTrace::Phase::kInitial) {
      v["partition.levels"] = static_cast<double>(t.level + 1);
      v["partition.coarsest_nodes"] = t.nodes;
    }
  v["partition.ws_growths"] = static_cast<double>(ws_growths);
  return v;
}

std::vector<ExactRef> exact_family(int count) {
  // Generator seeds from 5000 up whose constraints admit a feasible
  // assignment, so feasibility measures the partitioner, not the input.
  std::vector<ExactRef> refs;
  for (std::uint64_t seed = 5000;
       static_cast<int>(refs.size()) < count && seed < 5000 + 100ull * count;
       ++seed) {
    Instance inst = family_instance(12, 4, seed, 1.5);
    const part::ExactResult exact = part::exact_min_cut(
        inst.graph, inst.request.k, inst.request.constraints);
    if (exact.found && exact.optimal)
      refs.push_back({std::move(inst), exact.cut});
  }
  return refs;
}

void probe_kernels(const Graph& g, const part::PartitionRequest& req,
                   std::uint32_t threads, SpanRecorder& rec,
                   LayerValues& out) {
  part::Workspace ws;
  ppnpart::support::ThreadPool& pool = ppnpart::support::ThreadPool::global();
  const part::ParallelOptions par = part::resolve_parallel(threads, true, pool);
  const part::CoarsenOptions copt = [&] {
    part::CoarsenOptions o;
    o.coarsen_to = std::max<NodeId>(100, static_cast<NodeId>(req.k));
    return o;
  }();
  ppnpart::support::Rng rng(req.seed);
  const std::int64_t root = rec.open("probe.kernels");

  // Coarsen: the three serial matchings compete per level (best matched
  // weight, then pair count, then order), or the parallel heavy-edge
  // matching alone on the parallel path; the winner is contracted.
  std::vector<part::CoarseLevel> levels;
  double matched = 0, total = 0;
  while (true) {
    const Graph& cur = levels.empty() ? g : levels.back().graph;
    if (cur.num_nodes() <= copt.coarsen_to || levels.size() >= copt.max_levels)
      break;
    part::Matching best;
    Weight best_w = -1;
    std::uint32_t best_pairs = 0;
    if (threads > 1) {
      SpanScope s(rec, "partition.matching", root);
      best_w = part::parallel_heavy_edge_matching(cur, par, best, ws, pool);
      best_pairs = part::matched_pair_count(best);
    } else {
      for (const part::MatchingKind kind : copt.strategies) {
        part::Matching m;
        Weight w = 0;
        {
          SpanScope s(rec, "partition.matching", root);
          w = part::run_matching_into(cur, kind, rng, m, ws);
        }
        const std::uint32_t pairs = part::matched_pair_count(m);
        if (w > best_w || (w == best_w && pairs > best_pairs)) {
          best_w = w;
          best_pairs = pairs;
          best = std::move(m);
        }
      }
    }
    if (best_pairs == 0) break;
    part::CoarseLevel level;
    {
      SpanScope s(rec, "graph.contract", root);
      level = part::contract(cur, best, ws);
    }
    matched += static_cast<double>(best_w);
    total += static_cast<double>(cur.total_edge_weight());
    if (static_cast<double>(level.graph.num_nodes()) >
        copt.min_shrink_factor * static_cast<double>(cur.num_nodes()))
      break;
    levels.push_back(std::move(level));
  }

  // Initial partitioning on the coarsest level, then refine down.
  const Graph& coarsest = levels.empty() ? g : levels.back().graph;
  part::Partition p;
  {
    SpanScope s(rec, "partition.initial", root);
    ppnpart::support::Rng grow_rng = rng.derive(0x6120);
    p = part::greedy_grow_initial(coarsest, req.k, req.constraints,
                                  part::GreedyGrowOptions{}, grow_rng);
  }
  std::vector<part::PartId> assign = p.assignments();
  double fm_calls = 0, fm_improved = 0, lp_calls = 0, lp_improved = 0;
  for (std::size_t level = levels.size() + 1; level-- > 0;) {
    const Graph& lg = level == 0 ? g : levels[level - 1].graph;
    if (level < levels.size()) {  // project from the coarser level
      const std::vector<NodeId>& map = levels[level].fine_to_coarse;
      std::vector<part::PartId> finer(lg.num_nodes());
      for (NodeId u = 0; u < lg.num_nodes(); ++u) finer[u] = assign[map[u]];
      assign = std::move(finer);
    }
    p = part::Partition(lg.num_nodes(), req.k);
    for (NodeId u = 0; u < lg.num_nodes(); ++u) p.set(u, assign[u]);
    ppnpart::support::Rng level_rng = rng.derive(0xFEEDull * (level + 1));
    part::FmOptions fm;
    const bool large = lg.num_nodes() >= par.min_parallel_nodes;
    if (large) {
      // LP on the projected partition at every large level. The parallel
      // path keeps its result and polishes with one capped FM pass; the
      // serial path refines the projection itself, so LP runs on a copy.
      part::Partition lp_part = p;
      bool improved = false;
      {
        SpanScope s(rec, "partition.lp", root);
        improved = part::parallel_lp_refine(lg, lp_part, req.constraints,
                                            part::LpRefineOptions{}, par, ws,
                                            pool);
      }
      lp_calls += 1;
      lp_improved += improved ? 1 : 0;
      if (threads > 1) {
        p = std::move(lp_part);
        fm.max_passes = 1;
        fm.move_limit = std::max<std::uint64_t>(4096, lg.num_nodes() / 8);
      }
    }
    bool improved = false;
    {
      SpanScope s(rec, "partition.fm", root);
      improved = part::constrained_fm_refine(lg, p, req.constraints, fm,
                                             level_rng, ws);
    }
    fm_calls += 1;
    fm_improved += improved ? 1 : 0;
    if (!(threads > 1 && large)) {
      const part::SwapRefineOptions swap_opts;
      for (int round = 0; round < 3 && lg.num_nodes() <= swap_opts.max_nodes;
           ++round) {
        bool swapped = false;
        {
          SpanScope s(rec, "partition.swap", root);
          swapped = part::swap_refine(lg, p, req.constraints, swap_opts,
                                      level_rng, ws);
        }
        if (!swapped) break;
        SpanScope s(rec, "partition.fm", root);
        improved = part::constrained_fm_refine(lg, p, req.constraints, fm,
                                               level_rng, ws);
        fm_calls += 1;
        fm_improved += improved ? 1 : 0;
      }
    }
    assign = p.assignments();
  }
  rec.close(root);

  out["partition.matching_s"] = rec.total_self_seconds("partition.matching");
  out["partition.matched_weight_share"] = total > 0 ? matched / total : 0;
  out["graph.contract_s"] = rec.total_self_seconds("graph.contract");
  out["partition.initial_s"] = rec.total_self_seconds("partition.initial");
  out["partition.fm_s"] = rec.total_self_seconds("partition.fm");
  out["partition.fm_calls"] = fm_calls;
  out["partition.fm_improved_share"] =
      fm_calls > 0 ? fm_improved / fm_calls : 0;
  out["partition.swap_s"] = rec.total_self_seconds("partition.swap");
  out["partition.lp_s"] = rec.total_self_seconds("partition.lp");
  out["partition.lp_improved_share"] =
      lp_calls > 0 ? lp_improved / lp_calls : 0;
}

void probe_warm_start(const std::vector<TwinPair>& pairs, SpanRecorder& rec,
                      LayerValues& out) {
  part::Workspace ws;
  part::IncrementalPartitioner warm;
  const std::int64_t root = rec.open("probe.warm_start");
  for (const TwinPair& pair : pairs) {
    {
      SpanScope s(rec, "support.sketch", root);
      (void)ppnpart::support::sketch_of(*pair.arriving);
    }
    {
      SpanScope s(rec, "graph.diff", root);
      (void)ppnpart::graph::diff(*pair.base, *pair.arriving);
    }
    part::PartitionRequest request = pair.request;
    request.workspace = &ws;
    SpanScope s(rec, "partition.warm", root);
    (void)warm.try_repartition_diffed(*pair.base, *pair.arriving, *pair.prev,
                                      request);
  }
  rec.close(root);
  out["support.sketch_s"] = median(rec.self_seconds("support.sketch"));
  out["graph.diff_s"] = median(rec.self_seconds("graph.diff"));
  out["partition.warm_s"] = median(rec.self_seconds("partition.warm"));
}

}  // namespace perfbench
