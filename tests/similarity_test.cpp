// Similarity-aware admission: GraphSketch separation, SimilarityIndex LRU
// semantics, and the engine's near-hit pipeline — including the two
// correctness rails the PR-5 acceptance pins: a sketch near-hit never
// serves a partition that is invalid for the ARRIVING graph, and
// similarity-served answers never pollute the exact result cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/fingerprint.hpp"
#include "engine/similarity.hpp"
#include "graph/delta.hpp"
#include "graph/diff.hpp"
#include "graph/generators.hpp"
#include "partition/incremental.hpp"
#include "support/graph_sketch.hpp"
#include "support/prng.hpp"

namespace ppnpart {
namespace {

using graph::Graph;
using graph::GraphDelta;
using graph::NodeId;
using graph::Weight;

std::shared_ptr<const Graph> make_pn(std::uint64_t seed, NodeId nodes) {
  graph::ProcessNetworkParams params;
  params.num_nodes = nodes;
  params.layers = std::max<std::uint32_t>(4, nodes / 12);
  support::Rng rng(seed);
  return std::make_shared<const Graph>(
      graph::random_process_network(params, rng));
}

/// ~`fraction` random channel reweights/adds — a near-identical arrival.
std::shared_ptr<const Graph> perturb(const Graph& g, double fraction,
                                     std::uint64_t seed) {
  support::Rng rng(seed);
  GraphDelta d(g);
  const auto ops = static_cast<std::size_t>(
      std::max(1.0, fraction * static_cast<double>(g.num_nodes())));
  for (std::size_t i = 0; i < ops; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
    if (g.degree(u) == 0) continue;
    const NodeId v = g.neighbors(u)[rng.uniform_index(g.degree(u))];
    d.set_edge_weight(u, v, 1 + static_cast<Weight>(rng.uniform_index(12)));
  }
  return std::make_shared<const Graph>(d.apply(g).graph);
}

part::PartitionRequest make_request(const Graph& g, part::PartId k = 4,
                                    std::uint64_t seed = 9) {
  part::PartitionRequest r;
  r.k = k;
  r.seed = seed;
  r.constraints.rmax = std::max<Weight>(
      static_cast<Weight>(1.4 * static_cast<double>(g.total_node_weight()) /
                          k),
      g.max_node_weight());
  return r;
}

engine::EngineOptions sim_options() {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.similarity.enabled = true;
  return opts;
}

// ---------------------------------------------------------------- sketch ---

TEST(GraphSketch, SeparatesNearTwinsFromUnrelatedGraphs) {
  const auto g = make_pn(1, 400);
  const support::GraphSketch self = support::sketch_of(*g);
  EXPECT_EQ(support::sketch_similarity(self, self), 1.0);
  EXPECT_EQ(self, support::sketch_of(*g));  // deterministic

  // ~1% edits: almost every slot survives.
  const auto near = perturb(*g, 0.01, 7);
  const double near_sim =
      support::sketch_similarity(self, support::sketch_of(*near));
  EXPECT_GE(near_sim, 0.8);

  // An unrelated network of the same size: almost no slot survives.
  const auto far = make_pn(2, 400);
  const double far_sim =
      support::sketch_similarity(self, support::sketch_of(*far));
  EXPECT_LE(far_sim, 0.3);
  EXPECT_GT(near_sim, far_sim);
}

TEST(GraphSketch, EmptyGraphsOnlyMatchEmptyGraphs) {
  const Graph empty;
  const auto g = make_pn(3, 64);
  EXPECT_EQ(support::sketch_similarity(support::sketch_of(empty),
                                       support::sketch_of(empty)),
            1.0);
  EXPECT_EQ(support::sketch_similarity(support::sketch_of(empty),
                                       support::sketch_of(*g)),
            0.0);
}

// ----------------------------------------------------------------- index ---

engine::SimilarityIndex::Entry make_entry(std::shared_ptr<const Graph> g,
                                          std::uint64_t compat,
                                          part::PartId k = 4) {
  engine::SimilarityIndex::Entry e;
  e.sketch = support::sketch_of(*g);
  e.graph_fp = engine::graph_fingerprint(*g);
  e.compat_fp = compat;
  e.partition = part::Partition(g->num_nodes(), k);
  for (NodeId u = 0; u < g->num_nodes(); ++u)
    e.partition.set(u, static_cast<part::PartId>(u % k));
  e.graph = std::move(g);
  return e;
}

TEST(SimilarityIndex, MatchesByCompatAndEvictsLru) {
  engine::SimilarityIndex index(2);
  const auto a = make_pn(10, 96);
  const auto b = make_pn(11, 96);
  index.insert(make_entry(a, /*compat=*/1));
  index.insert(make_entry(b, /*compat=*/2));

  // Compat mismatch never matches, even a perfect sketch twin.
  EXPECT_FALSE(
      index.best_match(support::sketch_of(*a), /*compat=*/3, 0.5).has_value());
  auto hit = index.best_match(support::sketch_of(*a), 1, 0.5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.graph.get(), a.get());
  EXPECT_EQ(hit->similarity, 1.0);

  // `a` was just touched, so inserting a third entry evicts `b`.
  const auto c = make_pn(12, 96);
  index.insert(make_entry(c, /*compat=*/1));
  EXPECT_EQ(index.size(), 2u);
  EXPECT_FALSE(index.best_match(support::sketch_of(*b), 2, 0.5).has_value());
  EXPECT_TRUE(index.best_match(support::sketch_of(*a), 1, 0.5).has_value());
  EXPECT_TRUE(index.best_match(support::sketch_of(*c), 1, 0.5).has_value());
}

TEST(SimilarityIndex, RejectsIncompletePartitions) {
  engine::SimilarityIndex index(4);
  const auto g = make_pn(13, 48);
  auto entry = make_entry(g, 1);
  entry.partition = part::Partition(g->num_nodes(), 4);  // all unassigned
  index.insert(std::move(entry));
  EXPECT_EQ(index.size(), 0u);
}

TEST(SimilarityIndex, ProbeOrParkAssignsRolesUnderOneLock) {
  using Role = engine::SimilarityIndex::ProbeRole;
  engine::SimilarityIndex index(4);
  const auto g = make_pn(14, 96);
  const support::GraphSketch sketch = support::sketch_of(*g);

  // Empty index, empty registry: the first prober becomes the leader.
  auto first = index.probe_or_park(sketch, /*compat_fp=*/1, 0.5,
                                   /*leader_job=*/100, /*may_lead=*/true,
                                   std::make_shared<int>(0));
  EXPECT_EQ(first.role, Role::kLeader);
  EXPECT_EQ(index.pending_leaders(), 1u);

  // Sketch twins of the same compat key park behind the pending leader;
  // their handles come back from resolve_pending in arrival order.
  auto f1 = std::make_shared<int>(1);
  auto f2 = std::make_shared<int>(2);
  EXPECT_EQ(index.probe_or_park(sketch, 1, 0.5, 101, true, f1).role,
            Role::kParked);
  EXPECT_EQ(index.probe_or_park(sketch, 1, 0.5, 102, true, f2).role,
            Role::kParked);
  EXPECT_EQ(index.pending_leaders(), 1u);

  // A different compat key is its own cohort (leads, never parks), and a
  // prober that may not lead plainly misses.
  EXPECT_EQ(index
                .probe_or_park(sketch, /*compat_fp=*/2, 0.5, 103, true,
                               std::make_shared<int>(3))
                .role,
            Role::kLeader);
  const auto far = make_pn(15, 96);
  EXPECT_EQ(index
                .probe_or_park(support::sketch_of(*far), 1, 0.5, 104,
                               /*may_lead=*/false, std::make_shared<int>(4))
                .role,
            Role::kMiss);

  // Resolving hands back exactly the parked handles and erases the entry;
  // a second resolve (or a wrong leader id) is a safe no-op.
  auto parked = index.resolve_pending(/*compat_fp=*/1, /*leader_job=*/100);
  ASSERT_EQ(parked.size(), 2u);
  EXPECT_EQ(parked[0].get(), f1.get());
  EXPECT_EQ(parked[1].get(), f2.get());
  EXPECT_TRUE(index.resolve_pending(1, 100).empty());
  EXPECT_EQ(index.pending_leaders(), 1u);  // compat 2's leader remains

  // Once an entry is indexed, probers match it instead of leading/parking.
  index.insert(make_entry(g, /*compat=*/1));
  auto hit = index.probe_or_park(sketch, 1, 0.5, 105, true,
                                 std::make_shared<int>(5));
  EXPECT_EQ(hit.role, Role::kMatch);
  ASSERT_TRUE(hit.match.has_value());
  EXPECT_EQ(hit.match->entry.graph.get(), g.get());
}

// ---------------------------------------------------------------- engine ---

TEST(Engine, SimilarityNearHitWarmStartsAndStaysValid) {
  engine::Engine eng(sim_options());
  const auto base = make_pn(21, 300);
  const part::PartitionRequest request = make_request(*base);

  const auto first = eng.run_one(base, request);
  ASSERT_FALSE(first.winner.empty());
  EXPECT_FALSE(first.similarity);

  // A near-identical arrival WITHOUT a delta: admission must diff + warm
  // start, and the answer must be a complete, metrics-consistent partition
  // of the ARRIVING graph.
  const auto arriving = perturb(*base, 0.01, 99);
  const auto out = eng.run_one(arriving, request);
  EXPECT_TRUE(out.similarity) << "expected a similarity near-hit";
  EXPECT_EQ(out.winner, "similarity");
  EXPECT_FALSE(out.from_cache);
  ASSERT_EQ(out.best.partition.size(), arriving->num_nodes());
  EXPECT_TRUE(out.best.partition.complete());
  EXPECT_EQ(out.best.metrics.total_cut,
            part::compute_metrics(*arriving, out.best.partition).total_cut);

  const engine::EngineStats stats = eng.stats();
  // Both admissions probed; the first found an empty index and declined to
  // the full path (which then seeded the index), the second near-hit.
  EXPECT_EQ(stats.similarity.probes, 2u);
  EXPECT_EQ(stats.similarity.near_hits, 1u);
  EXPECT_EQ(stats.similarity.declines, 1u);
}

TEST(Engine, SimilarityHitNeverPollutesTheExactCache) {
  // Regression rail: after a similarity-served answer for B, (1) the exact
  // cache still serves A's own answer for A, and (2) an exact twin of B
  // must NOT be served from the exact cache — warm answers depend on the
  // matched previous answer and are never cached.
  engine::Engine eng(sim_options());
  const auto a = make_pn(22, 250);
  const part::PartitionRequest request = make_request(*a);

  const auto first = eng.run_one(a, request);
  ASSERT_FALSE(first.winner.empty());

  const auto b = perturb(*a, 0.01, 5);
  const auto served_b = eng.run_one(b, request);
  ASSERT_TRUE(served_b.similarity);

  // A's exact twin: cache hit, and the partition is A-sized — not B's.
  const auto again_a = eng.run_one(a, request);
  EXPECT_TRUE(again_a.from_cache);
  EXPECT_EQ(again_a.best.partition.size(), a->num_nodes());
  EXPECT_EQ(again_a.best.partition.assignments(),
            first.best.partition.assignments());

  // B's exact twin: never from the exact cache. (It may warm-start again —
  // B itself is in the similarity index now — but each serve is computed
  // fresh on B and valid for B.)
  const auto again_b = eng.run_one(b, request);
  EXPECT_FALSE(again_b.from_cache);
  EXPECT_EQ(again_b.best.partition.size(), b->num_nodes());
  EXPECT_TRUE(again_b.best.partition.complete());
}

TEST(Engine, FarArrivalsDeclineToTheFullPath) {
  engine::Engine eng(sim_options());
  const auto a = make_pn(23, 200);
  const part::PartitionRequest request = make_request(*a);
  ASSERT_FALSE(eng.run_one(a, request).winner.empty());

  // Entirely different network, same request shape: probe, decline, full
  // portfolio — and the answer is that graph's own.
  const auto far = make_pn(24, 200);
  const auto out = eng.run_one(far, request);
  EXPECT_FALSE(out.similarity);
  EXPECT_EQ(out.winner, "gp");
  EXPECT_EQ(out.best.partition.size(), far->num_nodes());
  const engine::EngineStats stats = eng.stats();
  EXPECT_GE(stats.similarity.declines, 1u);
  EXPECT_EQ(stats.similarity.near_hits, 0u);
}

TEST(Engine, ChangedKNeverMatchesAStoredAnswer) {
  // Request compatibility excludes the seed but includes k: a stored k=4
  // answer must never warm-start a k=5 request (the projection would be
  // meaningless). The k=5 arrival runs the full path and stays valid.
  engine::Engine eng(sim_options());
  const auto a = make_pn(25, 200);
  ASSERT_FALSE(eng.run_one(a, make_request(*a, 4)).winner.empty());

  const auto near = perturb(*a, 0.01, 31);
  const auto out = eng.run_one(near, make_request(*near, 5));
  EXPECT_FALSE(out.similarity);
  EXPECT_EQ(out.best.partition.k(), 5);
  EXPECT_TRUE(out.best.partition.complete());

  // Same k but different seed IS compatible — that near-twin warm-starts.
  part::PartitionRequest other_seed = make_request(*near, 4);
  other_seed.seed = 777;
  const auto warm = eng.run_one(near, other_seed);
  EXPECT_TRUE(warm.similarity);
  EXPECT_EQ(warm.best.partition.size(), near->num_nodes());
}

TEST(Engine, SimilarityDisabledByDefault) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  engine::Engine eng(opts);
  const auto a = make_pn(26, 150);
  const part::PartitionRequest request = make_request(*a);
  ASSERT_FALSE(eng.run_one(a, request).winner.empty());
  const auto out = eng.run_one(perturb(*a, 0.01, 3), request);
  EXPECT_FALSE(out.similarity);
  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.similarity.probes, 0u);
  EXPECT_EQ(stats.similarity.near_hits, 0u);
}

TEST(Engine, SimilarityChainTracksDriftingNetwork) {
  // A service scenario: the network drifts 1% per arrival, each arrival a
  // plain CSR graph. After the first full run, every arrival should be
  // served by the similarity path, each answer valid for ITS graph.
  engine::Engine eng(sim_options());
  auto g = make_pn(27, 300);
  const part::PartitionRequest request = make_request(*g);
  ASSERT_FALSE(eng.run_one(g, request).winner.empty());

  for (int step = 0; step < 5; ++step) {
    g = perturb(*g, 0.01, 1000 + static_cast<std::uint64_t>(step));
    const auto out = eng.run_one(g, request);
    EXPECT_TRUE(out.similarity) << "step " << step;
    ASSERT_EQ(out.best.partition.size(), g->num_nodes());
    EXPECT_TRUE(out.best.partition.complete());
    EXPECT_EQ(out.best.metrics.total_cut,
              part::compute_metrics(*g, out.best.partition).total_cut);
  }
  EXPECT_EQ(eng.stats().similarity.near_hits, 5u);
}

TEST(Engine, TrackedWorkloadSimilarityChainMatchesScratchAndReplays) {
  // The bench harnesses' tracked 800-node workload drifts through six ~1%
  // plain-CSR arrivals (near_identical_arrival). After one seeding full
  // run, a similarity engine near-hits every arrival and never serves one
  // from the exact cache. Each answer is a metrics-consistent partition of
  // its own arrival, the mean cut is within 1.05x of a scratch engine's,
  // and a second similarity engine gives the same answers.
  const Graph base = bench::multilevel_workload_graph(800);
  const part::PartitionRequest request =
      bench::multilevel_workload_request(base);
  std::vector<std::shared_ptr<const Graph>> arrivals;
  support::Rng rng(5150);
  for (int a = 0; a < 6; ++a) {
    const Graph& prev = arrivals.empty() ? base : *arrivals.back();
    arrivals.push_back(std::make_shared<const Graph>(
        bench::near_identical_arrival(prev, 0.01, rng)));
  }
  const auto serve_chain = [&] {
    engine::Engine eng(sim_options());
    (void)eng.run_one(std::make_shared<const Graph>(base), request);
    const std::uint64_t seeded_hits = eng.stats().similarity.near_hits;
    std::vector<engine::PortfolioOutcome> served;
    for (const auto& arrival : arrivals)
      served.push_back(eng.run_one(arrival, request));
    EXPECT_EQ(eng.stats().similarity.near_hits - seeded_hits, arrivals.size());
    return served;
  };
  const std::vector<engine::PortfolioOutcome> served = serve_chain();
  const std::vector<engine::PortfolioOutcome> replayed = serve_chain();

  engine::EngineOptions scratch_opts;
  scratch_opts.portfolio = engine::Portfolio{{"gp"}};
  scratch_opts.cache_capacity = 0;
  engine::Engine scratch(scratch_opts);
  double cut_ratio_sum = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Graph& arrival = *arrivals[i];
    const engine::PortfolioOutcome& out = served[i];
    EXPECT_FALSE(out.from_cache) << "arrival " << i;
    ASSERT_EQ(out.best.partition.size(), arrival.num_nodes()) << i;
    EXPECT_TRUE(out.best.partition.complete()) << "arrival " << i;
    EXPECT_EQ(out.best.metrics.total_cut,
              part::compute_metrics(arrival, out.best.partition).total_cut)
        << "arrival " << i;
    EXPECT_EQ(replayed[i].best.partition.assignments(),
              out.best.partition.assignments())
        << "arrival " << i;
    const Weight scratch_cut =
        scratch.run_one(arrivals[i], request).best.metrics.total_cut;
    ASSERT_GT(scratch_cut, 0);
    cut_ratio_sum += static_cast<double>(out.best.metrics.total_cut) /
                     static_cast<double>(scratch_cut);
  }
  const double mean_cut_ratio = cut_ratio_sum / arrivals.size();
  std::printf("similarity cut ratio vs scratch: %.4f\n", mean_cut_ratio);
  EXPECT_LE(mean_cut_ratio, 1.05);
}

TEST(Engine, SimilarityCountersAreExactUnderConcurrentSubmit) {
  // Admission counters live under the engine mutex: with T client threads
  // racing distinct near-twin arrivals, every admission probes exactly
  // once and lands in exactly one bucket — probes == T and
  // near_hits + declines == probes, regardless of interleaving. Every
  // outcome must still be a valid partition of its own arrival.
  engine::Engine eng(sim_options());
  const auto base = make_pn(30, 200);
  const part::PartitionRequest request = make_request(*base);
  ASSERT_FALSE(eng.run_one(base, request).winner.empty());
  const std::uint64_t seed_probes = eng.stats().similarity.probes;

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Graph>> arrivals;
  for (int t = 0; t < kThreads; ++t)
    arrivals.push_back(perturb(*base, 0.01, 100 + static_cast<std::uint64_t>(t)));

  std::vector<engine::PortfolioOutcome> outs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { outs[t] = eng.run_one(arrivals[t], request); });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(outs[t].best.partition.size(), arrivals[t]->num_nodes()) << t;
    EXPECT_TRUE(outs[t].best.partition.complete()) << t;
    EXPECT_FALSE(outs[t].from_cache) << t;  // all-distinct content
  }
  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.similarity.probes - seed_probes,
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.similarity.near_hits + stats.similarity.declines,
            stats.similarity.probes);
}

// ------------------------------------------------- partition-layer rail ---

TEST(IncrementalDiffed, DeclinesOversizedAndMismatchedWarmStarts) {
  part::IncrementalPartitioner inc;
  const auto base = make_pn(28, 120);
  const auto far = make_pn(29, 120);  // unrelated: diff is huge
  part::PartitionRequest request = make_request(*base);

  part::Partition prev(base->num_nodes(), request.k);
  for (NodeId u = 0; u < base->num_nodes(); ++u)
    prev.set(u, static_cast<part::PartId>(u % request.k));

  part::IncrementalStats stats;
  EXPECT_FALSE(
      inc.try_repartition_diffed(*base, *far, prev, request, &stats)
          .has_value());
  EXPECT_EQ(stats.fallback_reason, "diff too large");

  // Wrong-sized warm start declines instead of throwing.
  part::Partition wrong(base->num_nodes() / 2, request.k);
  EXPECT_FALSE(
      inc.try_repartition_diffed(*base, *far, wrong, request, &stats)
          .has_value());
  EXPECT_EQ(stats.fallback_reason,
            "previous partition does not match the base graph");

  // A near-identical arrival succeeds and reports the script size.
  const auto near = perturb(*base, 0.02, 8);
  const auto warm =
      inc.try_repartition_diffed(*base, *near, prev, request, &stats);
  ASSERT_TRUE(warm.has_value());
  EXPECT_GT(stats.diff_ops, 0u);
  EXPECT_EQ(warm->partition.size(), near->num_nodes());
  EXPECT_TRUE(warm->partition.complete());
}

}  // namespace
}  // namespace ppnpart
