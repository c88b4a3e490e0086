#include <gtest/gtest.h>

#include <iterator>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "partition/gp.hpp"
#include "partition/phase_profile.hpp"
#include "partition/workspace.hpp"
#include "ppn/paper_instances.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace ppnpart::part {
namespace {

PartitionRequest request_for(const ppn::PaperInstance& inst,
                             std::uint64_t seed) {
  PartitionRequest r;
  r.k = inst.k;
  r.constraints = inst.constraints;
  r.seed = seed;
  return r;
}

TEST(Gp, FeasibleOnAllPaperInstances) {
  GpPartitioner gp;
  for (int i = 1; i <= 3; ++i) {
    const ppn::PaperInstance inst = ppn::paper_instance(i);
    const PartitionResult result = gp.run(inst.graph, request_for(inst, 7));
    EXPECT_TRUE(result.feasible) << "instance " << i;
    EXPECT_LE(result.metrics.max_load, inst.constraints.rmax);
    EXPECT_LE(result.metrics.max_pairwise_cut, inst.constraints.bmax);
  }
}

TEST(Gp, DeterministicGivenSeed) {
  const ppn::PaperInstance inst = ppn::paper_instance(1);
  GpPartitioner gp;
  const PartitionResult a = gp.run(inst.graph, request_for(inst, 11));
  const PartitionResult b = gp.run(inst.graph, request_for(inst, 11));
  EXPECT_EQ(a.partition.assignments(), b.partition.assignments());
}

TEST(Gp, TrackedWorkloadRepeatsGrowsNothingWarmAndAccountsPhasesOnce) {
  // The bench harnesses' tracked workload at 800 nodes, two cycles, one
  // thread, one reused workspace. Repeat runs agree; a third run grows no
  // workspace buffer. A profiled fourth run keeps the answer, charges every
  // phase, and its shares sum to 1. Phases are charged at one layer only,
  // so their sum stays within the run's wall clock (slack for clock reads).
  const Graph g = bench::multilevel_workload_graph(800);
  GpOptions options;
  options.max_cycles = 2;
  GpPartitioner gp(options);
  Workspace ws;
  PartitionRequest request = bench::multilevel_workload_request(g);
  request.workspace = &ws;
  ASSERT_EQ(request.threads, 1u);
  const PartitionResult a = gp.run(g, request);
  const PartitionResult b = gp.run(g, request);
  EXPECT_EQ(a.partition.assignments(), b.partition.assignments());
  const std::uint64_t growths = ws.stats().growths;
  gp.run(g, request);
  EXPECT_EQ(ws.stats().growths, growths);

  PhaseProfile profile;
  request.phases = &profile;
  support::Timer timer;
  const PartitionResult profiled = gp.run(g, request);
  const double wall_us = timer.seconds() * 1e6;
  EXPECT_EQ(profiled.partition.assignments(), a.partition.assignments());
  double share_sum = 0;
  for (std::size_t i = 0; i < PhaseProfile::kNumPhases; ++i) {
    const auto phase = static_cast<PhaseProfile::Phase>(i);
    EXPECT_GT(profile.entries[i].calls, 0u) << PhaseProfile::phase_name(phase);
    share_sum += profile.share(phase);
  }
  EXPECT_GT(profile.total_us(), 0u);
  EXPECT_NEAR(share_sum, 1.0, 0.001);
  EXPECT_LE(static_cast<double>(profile.total_us()), wall_us * 1.02 + 1000.0);
}

TEST(Gp, RefineSpansCountSwapEvaluationsAndFmMoves) {
  // Each per-level refine span carries that level's swap_refine evaluations
  // and its FM moves applied, moves kept and passes ended by the stall rule.
  // On the 800-node tracked workload the swap_evals args add up to the
  // run's Workspace::swap_evaluations delta, each FM sum is bounded by the
  // run's FmTotals delta, and tracing leaves the partition as the untraced
  // run had it.
  support::Tracer& tracer = support::Tracer::global();
  const Graph g = bench::multilevel_workload_graph(800);
  GpOptions options;
  options.max_cycles = 2;
  GpPartitioner gp(options);
  Workspace ws;
  PartitionRequest request = bench::multilevel_workload_request(g);
  request.workspace = &ws;
  const PartitionResult untraced = gp.run(g, request);

  tracer.clear();
  const std::uint64_t swaps_before = ws.swap_evaluations;
  const FmTotals fm_before = ws.fm.totals;
  tracer.set_enabled(true);
  const PartitionResult traced = gp.run(g, request);
  tracer.set_enabled(false);
  const std::vector<support::TraceEvent> events = tracer.snapshot();
  tracer.clear();

  constexpr std::string_view kCounts[] = {"swap_evals", "fm_moves", "fm_kept",
                                          "fm_stalled"};
  std::int64_t spans = 0, sums[std::size(kCounts)] = {};
  auto& [swap_evals, fm_moves, fm_kept, fm_stalled] = sums;
  for (const support::TraceEvent& e : events) {
    if (std::string_view(e.name) != "refine" ||
        std::string_view(e.cat) != "gp")
      continue;
    ++spans;
    std::size_t found = 0;
    for (const support::TraceEvent::Arg& a : e.args) {
      if (a.key == nullptr) continue;
      for (std::size_t i = 0; i < std::size(kCounts); ++i) {
        if (std::string_view(a.key) != kCounts[i]) continue;
        sums[i] += a.value;
        ++found;
      }
    }
    EXPECT_EQ(found, std::size(kCounts)) << "level span without all counts";
  }
  const FmTotals& fm_after = ws.fm.totals;
  EXPECT_GT(spans, 0);
  EXPECT_GT(swap_evals, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(swap_evals),
            ws.swap_evaluations - swaps_before);
  // The coarsest level's seeding FM runs in the initial phase, not a
  // refine span.
  EXPECT_GT(fm_moves, 0);
  EXPECT_LE(static_cast<std::uint64_t>(fm_moves),
            fm_after.applied - fm_before.applied);
  EXPECT_GT(fm_kept, 0);
  EXPECT_LE(fm_kept, fm_moves);
  EXPECT_LE(static_cast<std::uint64_t>(fm_kept),
            fm_after.kept - fm_before.kept);
  EXPECT_LE(static_cast<std::uint64_t>(fm_stalled),
            fm_after.stalled - fm_before.stalled);
  EXPECT_EQ(traced.partition.assignments(), untraced.partition.assignments());
}

TEST(Gp, UnconstrainedRunMinimizesCut) {
  // Ring of cliques: the natural k-way split cuts only the ring bridges.
  const Graph g = graph::ring_of_cliques(4, 6, 10, 1);
  GpPartitioner gp;
  PartitionRequest r;
  r.k = 4;
  r.seed = 3;
  const PartitionResult result = gp.run(g, r);
  EXPECT_TRUE(result.feasible);  // no constraints => trivially feasible
  EXPECT_LE(result.metrics.total_cut, 4);  // the 4 ring bridges
}

TEST(Gp, MultilevelPathOnLargerGraph) {
  graph::ProcessNetworkParams params;
  params.num_nodes = 600;  // > coarsen_to => real hierarchy
  support::Rng rng(5);
  const Graph g = graph::random_process_network(params, rng);
  GpPartitioner gp;
  PartitionRequest r;
  r.k = 4;
  r.constraints.rmax = g.total_node_weight() / 4 +
                       4 * g.max_node_weight();
  r.constraints.bmax = g.total_edge_weight();  // loose
  r.seed = 9;
  const GpResult result = gp.run_detailed(g, r);
  EXPECT_TRUE(result.partition.complete());
  EXPECT_TRUE(result.feasible);
  // The trace must show actual coarsening levels.
  bool saw_coarse_level = false;
  for (const GpLevelTrace& t : result.trace) {
    if (t.nodes < 600) saw_coarse_level = true;
  }
  EXPECT_TRUE(saw_coarse_level);
}

TEST(Gp, ReportsInfeasibleWhenImpossible) {
  // Total weight 40 across k=2 parts with Rmax 15: impossible.
  graph::GraphBuilder b(4);
  for (graph::NodeId u = 0; u < 4; ++u) b.set_node_weight(u, 10);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 1);
  const Graph g = b.build();
  GpOptions options;
  options.max_cycles = 3;
  GpPartitioner gp(options);
  PartitionRequest r;
  r.k = 2;
  r.constraints.rmax = 15;
  r.seed = 1;
  const PartitionResult result = gp.run(g, r);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.partition.complete());  // still returns best effort
  EXPECT_GT(result.violation.resource_excess, 0);
}

TEST(Gp, StopsEarlyWhenFeasible) {
  const ppn::PaperInstance inst = ppn::paper_instance(2);
  GpOptions options;
  options.max_cycles = 16;
  options.extra_cycles_after_feasible = 0;
  GpPartitioner gp(options);
  const GpResult result =
      gp.run_detailed(inst.graph, request_for(inst, 7));
  EXPECT_TRUE(result.feasible);
  EXPECT_LT(result.cycles_used, 16u);
}

TEST(Gp, ExtraCyclesImproveOrKeepCut) {
  const ppn::PaperInstance inst = ppn::paper_instance(2);
  GpOptions eager;
  eager.extra_cycles_after_feasible = 0;
  GpOptions patient;
  patient.extra_cycles_after_feasible = 4;
  const PartitionResult quick =
      GpPartitioner(eager).run(inst.graph, request_for(inst, 21));
  const PartitionResult polished =
      GpPartitioner(patient).run(inst.graph, request_for(inst, 21));
  ASSERT_TRUE(quick.feasible);
  ASSERT_TRUE(polished.feasible);
  EXPECT_LE(polished.metrics.total_cut, quick.metrics.total_cut);
}

TEST(Gp, SingleMatchingStrategiesWork) {
  const ppn::PaperInstance inst = ppn::paper_instance(1);
  for (MatchingKind kind : {MatchingKind::kRandom, MatchingKind::kHeavyEdge,
                            MatchingKind::kKMeans}) {
    GpOptions options;
    options.matchings = {kind};
    GpPartitioner gp(options);
    const PartitionResult result =
        gp.run(inst.graph, request_for(inst, 13));
    EXPECT_TRUE(result.partition.complete()) << to_string(kind);
  }
}

TEST(Gp, RejectsBadOptions) {
  GpOptions options;
  options.matchings.clear();
  EXPECT_THROW(GpPartitioner{options}, std::invalid_argument);
  GpPartitioner gp;
  PartitionRequest r;
  r.k = 0;
  EXPECT_THROW(gp.run(Graph(), r), std::invalid_argument);
}

TEST(Gp, KEqualsOneIsTrivial) {
  support::Rng rng(6);
  const Graph g = graph::erdos_renyi_gnm(20, 50, rng);
  GpPartitioner gp;
  PartitionRequest r;
  r.k = 1;
  const PartitionResult result = gp.run(g, r);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.metrics.total_cut, 0);
}

TEST(Gp, NameIsGp) { EXPECT_EQ(GpPartitioner().name(), "GP"); }

TEST(Gp, ArmsMoveContextOncePerLevel) {
  // 4000 nodes: the finest level runs LP + FM, levels of at most 200 nodes
  // run FM + swap rounds. GP arms the workspace's MoveContext once per
  // refined level and once per fresh cycle for the coarsest-level seeding
  // FM; LP, FM and swap run on the level's arm and never re-arm it.
  graph::ProcessNetworkParams params;
  params.num_nodes = 4000;
  params.layers = 4000 / 24;
  support::Rng rng(7);
  const Graph g = graph::random_process_network(params, rng);
  GpOptions options;
  options.max_cycles = 4;
  options.fresh_restart_period = 2;  // cycles 0 and 2 are fresh
  options.extra_cycles_after_feasible = 4;
  PartitionRequest r;
  r.k = 4;
  r.seed = 42;
  r.constraints.rmax = g.total_node_weight() / 3;
  r.constraints.bmax = g.total_edge_weight() / 6;
  Workspace ws;
  r.workspace = &ws;
  const std::uint64_t resets_before = ws.move_ctx.reset_count();
  const GpResult result = GpPartitioner(options).run_detailed(g, r);
  ASSERT_EQ(result.cycles_used, 4u);
  std::uint64_t refined_levels = 0;
  bool saw_large = false, saw_swap_sized = false;
  for (const GpLevelTrace& t : result.trace) {
    if (t.phase != GpLevelTrace::Phase::kUncoarsen) continue;
    ++refined_levels;
    saw_large |= t.nodes >= 2048;
    saw_swap_sized |= t.nodes <= SwapRefineOptions{}.max_nodes;
  }
  EXPECT_TRUE(saw_large);
  EXPECT_TRUE(saw_swap_sized);
  EXPECT_GT(ws.swap_evaluations, 0u);
  const std::uint64_t fresh_cycles = 2;
  EXPECT_EQ(ws.move_ctx.reset_count() - resets_before,
            refined_levels + fresh_cycles);
}

}  // namespace
}  // namespace ppnpart::part
