// google-benchmark microbenchmarks for the library's hot kernels: the three
// matching heuristics, contraction, FM passes, swap refinement, metrics, and
// the exact solver at the paper's instance size. Performance guardrails
// rather than paper reproduction.

#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "partition/coarsen.hpp"
#include "partition/exact.hpp"
#include "partition/initial.hpp"
#include "partition/refine.hpp"
#include "partition/workspace.hpp"
#include "ppn/paper_instances.hpp"

namespace {

using namespace ppnpart;

graph::Graph make_pn(graph::NodeId n, std::uint64_t seed) {
  graph::ProcessNetworkParams params;
  params.num_nodes = n;
  params.layers = std::max<std::uint32_t>(8, n / 32);
  support::Rng rng(seed);
  return graph::random_process_network(params, rng);
}

void BM_RandomMatching(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 1);
  support::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(part::random_maximal_matching(g, rng));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_RandomMatching)->Arg(1000)->Arg(10000);

void BM_HeavyEdgeMatching(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 3);
  support::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(part::heavy_edge_matching(g, rng));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_HeavyEdgeMatching)->Arg(1000)->Arg(10000);

void BM_KMeansMatching(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 5);
  support::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(part::kmeans_matching(g, rng));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_KMeansMatching)->Arg(1000)->Arg(4000)->Arg(100000);

void BM_ContractViaBuilder(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 7);
  support::Rng rng(8);
  const part::Matching m = part::heavy_edge_matching(g, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(part::contract_via_builder(g, m));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ContractViaBuilder)->Arg(1000)->Arg(10000)->Arg(100000);

// Second argument: contraction chunks (coarse-row ranges on the pool); wall
// time, since the chunks run on pool threads.
void BM_ContractDirect(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 7);
  support::Rng rng(8);
  const part::Matching m = part::heavy_edge_matching(g, rng);
  const auto chunks = static_cast<std::uint32_t>(state.range(1));
  part::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part::contract(g, m, ws, chunks));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["ws_growths"] =
      static_cast<double>(ws.stats().growths);
}
BENCHMARK(BM_ContractDirect)
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->UseRealTime();

// Second argument: reset chunks (node ranges on the pool); wall time.
void BM_MoveContextReset(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 15);
  support::Rng rng(16);
  part::Partition p = part::random_balanced_partition(g, 8, rng);
  part::Constraints c;
  c.rmax = g.total_node_weight() / 8 + g.max_node_weight();
  c.bmax = g.total_edge_weight() / 8;
  const auto chunks = static_cast<std::uint32_t>(state.range(1));
  part::Workspace ws;
  for (auto _ : state) {
    ws.move_ctx.reset(g, p, c, chunks);
    benchmark::DoNotOptimize(ws.move_ctx.cut());
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
  state.counters["ws_growths"] = static_cast<double>(ws.stats().growths);
}
BENCHMARK(BM_MoveContextReset)
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->UseRealTime();

void BM_BoundaryEnumeration(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 17);
  support::Rng rng(18);
  part::Partition p = part::random_balanced_partition(g, 8, rng);
  part::Workspace ws;
  ws.move_ctx.reset(g, p, part::Constraints{});
  std::vector<graph::NodeId> out;
  for (auto _ : state) {
    // One move dirties the set; enumeration then refreshes it.
    const graph::NodeId u =
        static_cast<graph::NodeId>(rng.uniform_index(g.num_nodes()));
    ws.move_ctx.apply(u, static_cast<part::PartId>(rng.uniform_index(8)));
    ws.move_ctx.boundary_nodes(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * out.size());
}
BENCHMARK(BM_BoundaryEnumeration)->Arg(10000)->Arg(100000);

void BM_ComputeMetrics(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 9);
  support::Rng rng(10);
  const part::Partition p = part::random_balanced_partition(g, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(part::compute_metrics(g, p));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ComputeMetrics)->Arg(1000)->Arg(10000);

void BM_ConstrainedFmPass(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 11);
  support::Rng rng(12);
  part::Constraints c;
  c.rmax = g.total_node_weight() / 4 + g.max_node_weight();
  c.bmax = g.total_edge_weight() / 4;
  part::FmOptions options;
  options.max_passes = 1;
  for (auto _ : state) {
    state.PauseTiming();
    part::Partition p = part::random_balanced_partition(g, 4, rng);
    state.ResumeTiming();
    part::constrained_fm_refine(g, p, c, options, rng);
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_ConstrainedFmPass)->Arg(1000)->Arg(5000);

// One FM pass from a random 4-way partition through a reused workspace.
// 200 nodes is the size of GP's small levels, where the stall limit is
// scaled down to its floor; `applied` is FM moves applied per iteration.
void BM_ConstrainedFmPassWorkspace(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 11);
  support::Rng rng(12);
  part::Constraints c;
  c.rmax = g.total_node_weight() / 4 + g.max_node_weight();
  c.bmax = g.total_edge_weight() / 4;
  part::FmOptions options;
  options.max_passes = 1;
  part::Workspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    part::Partition p = part::random_balanced_partition(g, 4, rng);
    state.ResumeTiming();
    part::constrained_fm_refine(g, p, c, options, rng, ws);
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
  state.counters["ws_growths"] = static_cast<double>(ws.stats().growths);
  state.counters["applied"] = static_cast<double>(ws.fm.totals.applied) /
                              static_cast<double>(state.iterations());
}
BENCHMARK(BM_ConstrainedFmPassWorkspace)
    ->Arg(200)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

// Dense small graph like GP's coarsest levels, the only place swap_refine
// runs. The second argument picks the start and Bmax: 0 starts from a random
// 8-way partition with Bmax slack, as on the tracked workloads; 1 sets Bmax
// below the pairwise cuts of that start, so every swap evaluation takes the
// bandwidth terms; 2 starts from the random partition refined by FM (untimed)
// under slack Bmax, a feasible start as GP hands one to swap_refine, where
// the bounded scan evaluates few pairs. `evals` is goodness_after_swap calls
// per iteration, `feasible` the share of feasible starts.
void BM_SwapRefine(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const bool binding_bmax = state.range(1) == 1;
  const bool fm_start = state.range(1) == 2;
  support::Rng rng(21);
  const graph::Graph g =
      graph::erdos_renyi_gnm(n, std::uint64_t{n} * 30, rng, {1, 20}, {1, 15});
  part::Constraints c;
  c.rmax = g.total_node_weight() / 8 + g.max_node_weight();
  c.bmax = g.total_edge_weight() / (binding_bmax ? 64 : 8);
  part::SwapRefineOptions options;
  options.max_passes = 1;
  part::Workspace ws;
  double feasible = 0;
  for (auto _ : state) {
    state.PauseTiming();
    part::Partition p = part::random_balanced_partition(g, 8, rng);
    if (fm_start)
      part::constrained_fm_refine(g, p, c, part::FmOptions{}, rng, ws);
    const part::Goodness start = part::compute_goodness(g, p, c);
    feasible += start.resource_excess == 0 && start.bandwidth_excess == 0;
    state.ResumeTiming();
    benchmark::DoNotOptimize(part::swap_refine(g, p, c, options, rng, ws));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["evals"] = static_cast<double>(ws.swap_evaluations) /
                            static_cast<double>(state.iterations());
  state.counters["feasible"] =
      feasible / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SwapRefine)->Args({170, 0})->Args({170, 1})->Args({170, 2});

void BM_CoarsenWorkspace(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 19);
  part::CoarsenOptions options;
  part::Workspace ws;
  std::uint64_t round = 0;
  for (auto _ : state) {
    support::Rng rng(20 + round++);
    benchmark::DoNotOptimize(part::coarsen(g, options, rng, ws));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["ws_growths"] = static_cast<double>(ws.stats().growths);
}
BENCHMARK(BM_CoarsenWorkspace)->Arg(10000)->Arg(100000);

void BM_GreedyGrowInitial(benchmark::State& state) {
  const graph::Graph g = make_pn(static_cast<graph::NodeId>(state.range(0)), 13);
  support::Rng rng(14);
  part::Constraints c;
  c.rmax = g.total_node_weight() / 4 + g.max_node_weight();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        part::greedy_grow_initial(g, 4, c, part::GreedyGrowOptions{}, rng));
  }
}
BENCHMARK(BM_GreedyGrowInitial)->Arg(100)->Arg(1000);

void BM_ExactPaperScale(benchmark::State& state) {
  const ppn::PaperInstance inst = ppn::paper_instance(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        part::exact_min_cut(inst.graph, inst.k, inst.constraints));
  }
}
BENCHMARK(BM_ExactPaperScale);

}  // namespace

BENCHMARK_MAIN();
