// Fixed-seed golden tests: the multilevel partitioners' outputs are part of
// the determinism contract (PR 1). The fingerprints below were captured from
// the pre-workspace implementation (GraphBuilder-based contraction, per-pass
// scratch allocation); the allocation-free hot path must reproduce them
// bit-for-bit. If a deliberate algorithmic change invalidates them, update
// the constants in the same PR and say so — a silent mismatch is a
// determinism regression.

#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <span>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "partition/coarsen_cache.hpp"
#include "partition/exact.hpp"
#include "partition/gp.hpp"
#include "partition/incremental.hpp"
#include "partition/metislike.hpp"
#include "partition/phase_profile.hpp"
#include "partition/workspace.hpp"
#include "support/hash.hpp"
#include "support/trace.hpp"

namespace {

using namespace ppnpart;

graph::Graph pn_graph(graph::NodeId n, std::uint64_t seed) {
  graph::ProcessNetworkParams params;
  params.num_nodes = n;
  params.layers = std::max<std::uint32_t>(8, n / 24);
  support::Rng rng(seed);
  return graph::random_process_network(params, rng);
}

std::uint64_t fingerprint(const part::Partition& p) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  h = support::hash_combine(h, static_cast<std::uint64_t>(p.k()));
  for (graph::NodeId u = 0; u < p.size(); ++u) {
    h = support::hash_combine(h, static_cast<std::uint64_t>(p[u]));
  }
  return h;
}

/// perfbench's family_instance formula: a generated PN of `n` nodes with
/// Rmax and Bmax at `slack` times the even share of node and edge weight.
struct Instance {
  graph::Graph graph;
  part::PartitionRequest request;
};

Instance family_instance(graph::NodeId n, part::PartId k, std::uint64_t seed,
                         double slack) {
  graph::ProcessNetworkParams params;
  params.num_nodes = n;
  params.layers = std::max<std::uint32_t>(4, n / 16);
  support::Rng rng(seed);
  Instance inst;
  inst.graph = graph::random_process_network(params, rng);
  inst.request.k = k;
  inst.request.seed = seed * 7 + 1;
  const auto total_w = static_cast<double>(inst.graph.total_node_weight());
  const auto total_e = static_cast<double>(inst.graph.total_edge_weight());
  const double pairs = k * (k - 1) / 2.0;
  inst.request.constraints.rmax = std::max<graph::Weight>(
      static_cast<graph::Weight>(slack * total_w / k),
      inst.graph.max_node_weight());
  inst.request.constraints.bmax = std::max<graph::Weight>(
      1, static_cast<graph::Weight>(slack * total_e / pairs / 2.0));
  return inst;
}

part::PartitionRequest request_for(const graph::Graph& g) {
  part::PartitionRequest request;
  request.k = 4;
  request.seed = 42;
  request.constraints.rmax = g.total_node_weight() / 3;
  request.constraints.bmax = g.total_edge_weight() / 6;
  return request;
}

TEST(GoldenDeterminism, GpFixedSeed) {
  const graph::Graph g = pn_graph(300, 7);
  part::GpOptions options;
  options.max_cycles = 4;
  part::GpPartitioner gp(options);
  const part::PartitionResult r = gp.run(g, request_for(g));
  const std::uint64_t fp = fingerprint(r.partition);
  std::printf("GP fingerprint: 0x%llxull\n", static_cast<unsigned long long>(fp));
  EXPECT_EQ(fp, 0xb76d70c9c12ab48aull);
}

TEST(GoldenDeterminism, GpCachedFixedSeed) {
  const graph::Graph g = pn_graph(300, 7);
  part::CoarseningCache cache;
  part::GpOptions options;
  options.max_cycles = 4;
  part::GpPartitioner gp(options);
  part::PartitionRequest request = request_for(g);
  request.coarsen_cache = &cache;
  const part::PartitionResult r = gp.run(g, request);
  const std::uint64_t fp = fingerprint(r.partition);
  std::printf("GP cached: cut %lld, fingerprint 0x%llxull\n",
              static_cast<long long>(r.metrics.total_cut),
              static_cast<unsigned long long>(fp));
  EXPECT_EQ(fp, 0x9706abbc624f7817ull);
}

TEST(GoldenDeterminism, MetisLikeFixedSeed) {
  const graph::Graph g = pn_graph(300, 7);
  part::MetisLikePartitioner metis;
  const part::PartitionResult r = metis.run(g, request_for(g));
  const std::uint64_t fp = fingerprint(r.partition);
  std::printf("MetisLike fingerprint: 0x%llxull\n",
              static_cast<unsigned long long>(fp));
  EXPECT_EQ(fp, 0x2e62f1eb0d0e681cull);
}

// ---- Thread-count invariance. ---------------------------------------------
// GP and MetisLike each run one multilevel pipeline; `threads` only sets the
// chunk counts of GP's kernels (MetisLike ignores it). The 4000-node graph
// crosses min_parallel_nodes and kRaceMinNodes, so LP and the concurrent
// matching race really run, and every thread count — auto, one chunk and
// several — must reproduce one pinned answer.

constexpr std::uint32_t kThreadCounts[] = {0, 1, 2, 4, 8};

TEST(ParallelDeterminism, GpBitIdenticalAcrossThreadCounts) {
  const graph::Graph g = pn_graph(4000, 7);
  part::GpOptions options;
  options.max_cycles = 2;
  part::GpPartitioner gp(options);
  part::PartitionRequest request = request_for(g);
  for (const std::uint32_t p : kThreadCounts) {
    request.threads = p;
    const part::PartitionResult r = gp.run(g, request);
    const std::uint64_t fp = fingerprint(r.partition);
    std::printf("GP 4000-node threads=%u: cut %lld, fingerprint 0x%llxull\n",
                p, static_cast<long long>(r.metrics.total_cut),
                static_cast<unsigned long long>(fp));
    EXPECT_EQ(fp, 0xc77bcb28956c19bcull) << "threads=" << p;
  }
}

TEST(ParallelDeterminism, MetisLikeBitIdenticalAcrossThreadCounts) {
  const graph::Graph g = pn_graph(4000, 7);
  part::MetisLikePartitioner metis;
  part::PartitionRequest request = request_for(g);
  for (const std::uint32_t p : kThreadCounts) {
    request.threads = p;
    const part::PartitionResult r = metis.run(g, request);
    const std::uint64_t fp = fingerprint(r.partition);
    std::printf(
        "MetisLike 4000-node threads=%u: cut %lld, fingerprint 0x%llxull\n", p,
        static_cast<long long>(r.metrics.total_cut),
        static_cast<unsigned long long>(fp));
    EXPECT_EQ(fp, 0x2dcb895b0b0e8682ull) << "threads=" << p;
  }
}

TEST(QualityGate, GpTrackedWorkloadKeepsSerialCutAtEveryThreadCount) {
  // The tracked 10k workload of bench/bench_common.hpp. The bound is 1.03x
  // the cut of the full-FM refiner that LP + bounded FM replaced on large
  // levels (9,722).
  const graph::Graph g = bench::multilevel_workload_graph(10000);
  part::PartitionRequest request = bench::multilevel_workload_request(g);
  part::GpOptions options;
  options.max_cycles = 4;
  part::GpPartitioner gp(options);

  request.threads = 1;
  const part::PartitionResult one = gp.run(g, request);
  std::printf("GP tracked 10k cut: %lld\n",
              static_cast<long long>(one.metrics.total_cut));
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    request.threads = threads;
    const part::PartitionResult chunked = gp.run(g, request);
    EXPECT_EQ(chunked.partition.assignments(), one.partition.assignments())
        << "threads " << threads;
  }
  EXPECT_TRUE(one.feasible);
  EXPECT_LE(one.metrics.total_cut, 10013);
}

struct ClassResult {
  graph::Weight total_cut = 0;
  int feasible = 0;
};

/// Summed cut and feasible count of GP at registry defaults, without a
/// coarsening cache, over family_instance(n, 8, seed, slack) for each n in
/// `sizes`, slack 1.3 and 1.05 and seeds 1..`seeds`. A non-empty `bmax`
/// replaces each instance's Bmax, in that order.
ClassResult solve_class(std::initializer_list<graph::NodeId> sizes,
                        std::uint64_t seeds,
                        std::span<const graph::Weight> bmax = {}) {
  ClassResult out;
  std::size_t i = 0;
  for (const graph::NodeId n : sizes) {
    for (const double slack : {1.3, 1.05}) {
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        Instance inst = family_instance(n, 8, seed, slack);
        if (!bmax.empty()) inst.request.constraints.bmax = bmax[i++];
        const part::PartitionResult r =
            part::GpPartitioner{}.run(inst.graph, inst.request);
        out.total_cut += r.metrics.total_cut;
        out.feasible += r.feasible ? 1 : 0;
      }
    }
  }
  return out;
}

TEST(QualityGate, ServiceClassGpTotalCut) {
  // The fresh-request classes of the service benchmark: 1k/4k-node PNs, K=8,
  // slack 1.3 and 1.05, built with perfbench's family_instance formula and
  // solved by GP at registry defaults without a coarsening cache. The bound
  // is the summed cut when the gate was introduced; a refiner or matching
  // change that loses quality on these classes shows up here.
  const ClassResult r = solve_class({1000, 4000}, 4);
  std::printf("GP service-class total cut: %lld, feasible %d/16\n",
              static_cast<long long>(r.total_cut), r.feasible);
  EXPECT_EQ(r.feasible, 16);
  EXPECT_LE(r.total_cut, 39622);
}

TEST(QualityGate, BindingBmaxServiceClass) {
  // The instances of ServiceClassGpTotalCut with the paper's bandwidth bound
  // made to bind. M is an instance's largest pairwise cut from GP at
  // registry defaults with Bmax unlimited, frozen here so that a GP change
  // cannot move the yardstick. Bmax = max(1, floor(f M)): at f = 1.0 GP's
  // own Bmax-free answer is feasible, at f = 0.65 no instance keeps it. The
  // ceilings are the summed cuts when the gate was introduced.
  constexpr graph::Weight kM[16] = {202, 196, 161, 169, 200, 191, 182, 176,
                                    524, 679, 336, 385, 708, 553, 332, 394};
  struct Level {
    graph::Weight percent;
    graph::Weight max_total_cut;
  };
  for (const Level level : {Level{100, 41948}, Level{65, 43894}}) {
    graph::Weight bmax[16];
    for (std::size_t i = 0; i < 16; ++i)
      bmax[i] = std::max<graph::Weight>(1, kM[i] * level.percent / 100);
    const ClassResult r = solve_class({1000, 4000}, 4, bmax);
    std::printf("GP binding-Bmax class at f = %.2f: total cut %lld, "
                "feasible %d/16\n",
                static_cast<double>(level.percent) / 100,
                static_cast<long long>(r.total_cut), r.feasible);
    EXPECT_EQ(r.feasible, 16) << "f = " << level.percent << "%";
    EXPECT_LE(r.total_cut, level.max_total_cut)
        << "f = " << level.percent << "%";
  }
}

TEST(QualityGate, SmallClassGpTotalCut) {
  // 300-node PNs (K=8, slack 1.3 and 1.05, seeds 1-8), the size of
  // service_mix's warm-up instance, solved by GP at registry defaults
  // without a coarsening cache: a class whose every level, the finest
  // included, has at most 300 nodes. The bound is the summed cut when the
  // gate was introduced.
  const ClassResult r = solve_class({300}, 8);
  std::printf("GP 300-node class total cut: %lld, feasible %d/16\n",
              static_cast<long long>(r.total_cut), r.feasible);
  EXPECT_EQ(r.feasible, 16);
  EXPECT_LE(r.total_cut, 12434);
}

/// Cut-to-optimum ratios over an instance family: the worst as an exact
/// fraction, the mean, and how many answers were feasible.
struct GapTally {
  int instances = 0;
  int feasible = 0;
  double gap_sum = 0;
  graph::Weight worst_cut = 0, worst_opt = 1;

  void add(const part::PartitionResult& r, graph::Weight optimum) {
    ++instances;
    feasible += r.feasible ? 1 : 0;
    const graph::Weight cut = r.metrics.total_cut;
    gap_sum += static_cast<double>(cut) / static_cast<double>(optimum);
    if (cut * worst_opt > worst_cut * optimum) {
      worst_cut = cut;
      worst_opt = optimum;
    }
  }
  double mean_gap() const { return gap_sum / instances; }
  void print(const char* who) const {
    std::printf("%s exact gap on %d instances: worst %lld/%lld, mean %.9f, "
                "feasible %d\n",
                who, instances, static_cast<long long>(worst_cut),
                static_cast<long long>(worst_opt), mean_gap(), feasible);
  }
};

TEST(QualityGate, GpExactGapOn12NodeFamily) {
  // perfbench's exact_family(64): 12-node PNs, K=4, slack 1.5, generator
  // seeds from 5000 up, kept where branch and bound finds a proven optimum.
  // GP runs in the pn100k workloads' configuration (max_cycles = 4). The
  // worst ratio of GP's cut to the optimum is perfbench's exact_gap_worst;
  // the ceilings are the worst and mean gaps when the gate was introduced.
  //
  // Each instance is also answered by an Engine with default options, as
  // service_mix answers it, so the gate covers the default portfolio and
  // not GP alone. Its mean can be below 1: on generator seeds 5001 and
  // 5060 the winning answer (GP's) is feasible with one part empty, and
  // its cut is below the optimum because exact_min_cut requires every part
  // to be non-empty.
  part::GpOptions options;
  options.max_cycles = 4;
  part::GpPartitioner gp(options);
  engine::Engine portfolio;
  GapTally gp_gap, portfolio_gap;
  for (std::uint64_t seed = 5000;
       gp_gap.instances < 64 && seed < 5000 + 6400; ++seed) {
    const Instance inst = family_instance(12, 4, seed, 1.5);
    const part::ExactResult exact = part::exact_min_cut(
        inst.graph, inst.request.k, inst.request.constraints);
    if (!exact.found || !exact.optimal) continue;
    ASSERT_GT(exact.cut, 0);
    gp_gap.add(gp.run(inst.graph, inst.request), exact.cut);
    const engine::PortfolioOutcome out =
        portfolio.run_one(inst.graph, inst.request);
    ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
    portfolio_gap.add(out.best, exact.cut);
  }
  gp_gap.print("GP");
  portfolio_gap.print("Default portfolio");
  EXPECT_EQ(gp_gap.instances, 64);
  // worst gap <= 57/52
  EXPECT_LE(gp_gap.worst_cut * 52, 57 * gp_gap.worst_opt);
  // 1.002379819 when introduced; one instance losing one cut unit moves
  // the mean by more than the 2e-7 of headroom.
  EXPECT_LE(gp_gap.mean_gap(), 1.00238);

  EXPECT_EQ(portfolio_gap.feasible, 64);
  // worst gap <= 14/13
  EXPECT_LE(portfolio_gap.worst_cut * 13, 14 * portfolio_gap.worst_opt);
  // 0.996160207 when introduced; the 1e-7 of headroom is below what one
  // cut unit on one instance moves the mean.
  EXPECT_LE(portfolio_gap.mean_gap(), 0.9961603);
}

TEST(QualityGate, BindingBmaxExactGap) {
  // The instances of GpExactGapOn12NodeFamily with the paper's bandwidth
  // bound made to bind. M is the largest pairwise cut of the proven optimum
  // with Bmax unlimited (Rmax as given), and Bmax = max(1, floor(0.8 M)).
  // An instance counts when branch and bound proves an optimum under that
  // Bmax. GP (max_cycles = 4) misses an instance when its answer is
  // infeasible; the gaps are taken over its feasible answers. The ceilings
  // are the values when the gate was introduced.
  part::GpOptions options;
  options.max_cycles = 4;
  part::GpPartitioner gp(options);
  int family = 0, provable = 0, misses = 0;
  GapTally gap;
  for (std::uint64_t seed = 5000; family < 64 && seed < 5000 + 6400; ++seed) {
    Instance inst = family_instance(12, 4, seed, 1.5);
    const part::ExactResult exact = part::exact_min_cut(
        inst.graph, inst.request.k, inst.request.constraints);
    if (!exact.found || !exact.optimal) continue;
    ++family;
    part::Constraints loose = inst.request.constraints;
    loose.bmax = part::Constraints::kUnlimited;
    const part::ExactResult free_bmax =
        part::exact_min_cut(inst.graph, inst.request.k, loose);
    ASSERT_TRUE(free_bmax.found && free_bmax.optimal) << "seed " << seed;
    const graph::Weight m =
        part::compute_metrics(inst.graph, free_bmax.partition)
            .max_pairwise_cut;
    inst.request.constraints.bmax = std::max<graph::Weight>(1, 80 * m / 100);
    const part::ExactResult bound = part::exact_min_cut(
        inst.graph, inst.request.k, inst.request.constraints);
    if (!bound.found || !bound.optimal) continue;
    ++provable;
    ASSERT_GT(bound.cut, 0);
    const part::PartitionResult r = gp.run(inst.graph, inst.request);
    if (r.feasible) {
      gap.add(r, bound.cut);
    } else {
      ++misses;
    }
  }
  gap.print("GP at Bmax = 0.8 M");
  std::printf("GP at Bmax = 0.8 M: %d provable instances, %d missed\n",
              provable, misses);
  EXPECT_EQ(family, 64);
  EXPECT_EQ(provable, 48);
  EXPECT_LE(misses, 2);
  // 1.032990664 when introduced.
  EXPECT_LE(gap.mean_gap(), 1.0329907);
  // worst gap <= 68/33
  EXPECT_LE(gap.worst_cut * 33, 68 * gap.worst_opt);
}

// ---- Incremental repartitioning goldens (PR 4). ---------------------------
// The incremental path is pinned the same way the PR-3 refactor was: a
// fixed (graph, previous partition, delta sequence, seed) must reproduce
// bit-identical partitions across runs and machines. The constants were
// captured from the first implementation; update them only with a
// deliberate, called-out algorithmic change.

/// The fixed three-step delta sequence of the incremental goldens: a
/// reweight, a node addition wired into the network, and a removal.
graph::GraphDelta golden_delta(const graph::Graph& g, int step) {
  graph::GraphDelta delta(g);
  switch (step) {
    case 0: {
      delta.set_edge_weight(0, g.neighbors(0)[0], 23);
      delta.set_node_weight(7, g.node_weight(7) + 11);
      break;
    }
    case 1: {
      const graph::NodeId fresh = delta.add_node(35);
      delta.add_edge(fresh, 3, 6);
      delta.add_edge(fresh, 40, 2);
      delta.add_edge(10, 11, 4);
      break;
    }
    default: {
      delta.remove_node(17);
      delta.remove_edge(2, g.neighbors(2)[0]);
      break;
    }
  }
  return delta;
}

std::uint64_t run_incremental_chain(part::Workspace* ws) {
  const graph::Graph base = pn_graph(300, 7);
  part::GpOptions options;
  options.max_cycles = 2;
  part::GpPartitioner gp(options);
  part::PartitionRequest request = request_for(base);
  const part::PartitionResult seed_result = gp.run(base, request);

  part::IncrementalPartitioner inc;
  graph::Graph g = base;
  part::Partition prev = seed_result.partition;
  std::uint64_t h = 0;
  for (int step = 0; step < 3; ++step) {
    const graph::GraphDelta::Applied applied = golden_delta(g, step).apply(g);
    part::PartitionRequest req = request_for(applied.graph);
    req.workspace = ws;
    part::IncrementalStats stats;
    const auto result = inc.try_repartition(applied, prev, req, &stats);
    EXPECT_TRUE(result.has_value()) << "declined: " << stats.fallback_reason;
    if (!result.has_value()) return 0;
    EXPECT_TRUE(result->partition.complete());
    h = support::hash_combine(h, fingerprint(result->partition));
    g = applied.graph;
    prev = result->partition;
  }
  return h;
}

TEST(GoldenDeterminism, IncrementalFixedSeed) {
  const std::uint64_t fp = run_incremental_chain(nullptr);
  std::printf("Incremental chain fingerprint: 0x%llxull\n",
              static_cast<unsigned long long>(fp));
  EXPECT_EQ(fp, 0x8d5fc6faffef8dffull);
}

TEST(GoldenDeterminism, IncrementalRepeatRunsIdentical) {
  // Same chain, three times: no workspace, a fresh workspace, a reused
  // workspace — all must agree bit-for-bit (the workspace is transient
  // scratch with no effect on results).
  part::Workspace ws;
  const std::uint64_t a = run_incremental_chain(nullptr);
  const std::uint64_t b = run_incremental_chain(&ws);
  const std::uint64_t c = run_incremental_chain(&ws);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(GoldenDeterminism, TracedAndProfiledRunMatchesTheGolden) {
  // Observability is observe-only (PR 6): the GP golden run with tracing
  // enabled AND a PhaseProfile attached must reproduce the same fingerprint
  // as the bare run above, bit for bit. A drift here means instrumentation
  // leaked into the algorithm (e.g. a reordered RNG derivation).
  support::Tracer::global().set_enabled(true);
  const graph::Graph g = pn_graph(300, 7);
  part::GpOptions options;
  options.max_cycles = 4;
  part::GpPartitioner gp(options);
  part::PhaseProfile profile;
  part::PartitionRequest request = request_for(g);
  request.phases = &profile;
  const part::PartitionResult r = gp.run(g, request);
  support::Tracer::global().set_enabled(false);
  support::Tracer::global().clear();

  EXPECT_EQ(fingerprint(r.partition), 0xb76d70c9c12ab48aull);
  // And the ride-along profile genuinely accounted the run.
  EXPECT_GT(profile.entries[part::PhaseProfile::kCoarsen].calls, 0u);
  EXPECT_GT(profile.entries[part::PhaseProfile::kInitial].calls, 0u);
  EXPECT_GT(profile.entries[part::PhaseProfile::kRefine].calls, 0u);
}

TEST(GoldenDeterminism, RepeatRunsIdentical) {
  const graph::Graph g = pn_graph(300, 7);
  part::GpOptions options;
  options.max_cycles = 2;
  part::GpPartitioner gp(options);
  const part::PartitionResult a = gp.run(g, request_for(g));
  const part::PartitionResult b = gp.run(g, request_for(g));
  EXPECT_EQ(fingerprint(a.partition), fingerprint(b.partition));
}

}  // namespace
