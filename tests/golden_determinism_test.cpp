// Fixed-seed golden tests: the multilevel partitioners' outputs are part of
// the determinism contract (PR 1). The fingerprints below were captured from
// the pre-workspace implementation (GraphBuilder-based contraction, per-pass
// scratch allocation); the allocation-free hot path must reproduce them
// bit-for-bit. If a deliberate algorithmic change invalidates them, update
// the constants in the same PR and say so — a silent mismatch is a
// determinism regression.

#include <gtest/gtest.h>

#include <cstdio>

#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "partition/coarsen_cache.hpp"
#include "partition/gp.hpp"
#include "partition/incremental.hpp"
#include "partition/kl.hpp"
#include "partition/metislike.hpp"
#include "partition/nlevel.hpp"
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
  std::printf("GP cached fingerprint: 0x%llxull\n",
              static_cast<unsigned long long>(fp));
  EXPECT_EQ(fp, 0x25d50fb9960fee09ull);
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

TEST(GoldenDeterminism, NLevelFixedSeed) {
  const graph::Graph g = pn_graph(300, 7);
  part::NLevelPartitioner nlevel;
  const part::PartitionResult r = nlevel.run(g, request_for(g));
  const std::uint64_t fp = fingerprint(r.partition);
  std::printf("NLevel fingerprint: 0x%llxull\n",
              static_cast<unsigned long long>(fp));
  EXPECT_EQ(fp, 0xe478be81f7d9e695ull);
}

// ---- Thread-count invariance. ---------------------------------------------
// GP and MetisLike each run one multilevel pipeline; `threads` only sets the
// chunk count of GP's label-propagation scan (MetisLike ignores it). The
// 4000-node graph crosses min_parallel_nodes, so LP really runs, and every
// thread count — auto, one chunk and several — must reproduce one pinned
// answer.

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
  // The tracked 10k workload of bench/bench_common.hpp
  // (multilevel_workload_graph / multilevel_workload_request), rebuilt
  // here. The bound is 1.03x the cut of the full-FM refiner that LP + bounded
  // FM replaced on large levels (9,722).
  const graph::NodeId n = 10000;
  graph::ProcessNetworkParams params;
  params.num_nodes = n;
  params.layers = std::max<std::uint32_t>(8, n / 64);
  support::Rng rng(123 + n);
  const graph::Graph g = graph::random_process_network(params, rng);
  part::PartitionRequest request;
  request.k = 8;
  request.seed = 99;
  request.constraints.rmax =
      static_cast<graph::Weight>(1.15 * g.total_node_weight() / 8);
  request.constraints.bmax =
      static_cast<graph::Weight>(1.3 * g.total_edge_weight() / 28.0 / 2.0);
  part::GpOptions options;
  options.max_cycles = 4;
  part::GpPartitioner gp(options);

  request.threads = 1;
  const part::PartitionResult one = gp.run(g, request);
  request.threads = 4;
  const part::PartitionResult four = gp.run(g, request);
  std::printf("GP tracked 10k cut: %lld\n",
              static_cast<long long>(one.metrics.total_cut));
  EXPECT_EQ(four.partition.assignments(), one.partition.assignments());
  EXPECT_TRUE(one.feasible);
  EXPECT_LE(one.metrics.total_cut, 10013);
}

TEST(GoldenDeterminism, KlFixedSeed) {
  const graph::Graph g = pn_graph(200, 11);
  part::KlPartitioner kl;
  part::PartitionRequest request;
  request.k = 4;
  request.seed = 42;
  const part::PartitionResult r = kl.run(g, request);
  const std::uint64_t fp = fingerprint(r.partition);
  std::printf("KL fingerprint: 0x%llxull\n",
              static_cast<unsigned long long>(fp));
  EXPECT_EQ(fp, 0x30dbb270ea4905cdull);
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
