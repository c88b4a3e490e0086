// CoarseningCache: build-once/hit-after semantics, LRU bounding,
// single-flight coalescing of concurrent builds, exception propagation,
// and — the property the engine's determinism rests on — hit/miss
// equivalence: a partitioner run answers bit-identically whether its
// coarsening came fresh from the canonical stream or out of the cache.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "graph/generators.hpp"
#include "partition/coarsen_cache.hpp"
#include "partition/gp.hpp"
#include "partition/metislike.hpp"
#include "support/prng.hpp"

namespace ppnpart::part {
namespace {

graph::Graph make_graph(std::uint64_t seed, graph::NodeId nodes = 160) {
  graph::ProcessNetworkParams params;
  params.num_nodes = nodes;
  params.layers = std::max<std::uint32_t>(4, nodes / 12);
  support::Rng rng(seed);
  return graph::random_process_network(params, rng);
}

Hierarchy build_hierarchy(const graph::Graph& g, const CoarsenOptions& opts) {
  support::Rng rng(canonical_coarsen_seed(coarsen_options_digest(opts)));
  return coarsen(g, opts, rng);
}

TEST(CoarseningCache, HierarchyBuildsOnceThenHits) {
  const graph::Graph g = make_graph(1);
  const std::uint64_t key = graph_digest(g);
  CoarsenOptions opts;
  opts.coarsen_to = 40;

  CoarseningCache cache;
  int builds = 0;
  auto fetch = [&] {
    return cache.hierarchy(key, opts, [&] {
      ++builds;
      return build_hierarchy(g, opts);
    });
  };
  const auto first = fetch();
  const auto second = fetch();
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());  // same shared artifact
  ASSERT_GE(first->num_levels(), 2u);    // 160 -> 40 really coarsened
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(CoarseningCache, DistinctKeysDistinctEntries) {
  const graph::Graph g1 = make_graph(1);
  const graph::Graph g2 = make_graph(2);
  EXPECT_NE(graph_digest(g1), graph_digest(g2));

  CoarsenOptions a;
  a.coarsen_to = 40;
  CoarsenOptions b = a;
  b.coarsen_to = 80;
  EXPECT_NE(coarsen_options_digest(a), coarsen_options_digest(b));
  b = a;
  b.strategies = {MatchingKind::kHeavyEdge};
  EXPECT_NE(coarsen_options_digest(a), coarsen_options_digest(b));

  CoarseningCache cache;
  int builds = 0;
  auto fetch = [&](const graph::Graph& g, const CoarsenOptions& o) {
    return cache.hierarchy(graph_digest(g), o, [&] {
      ++builds;
      return build_hierarchy(g, o);
    });
  };
  fetch(g1, a);
  fetch(g1, b);  // same graph, different options: separate entry
  fetch(g2, a);  // same options, different graph: separate entry
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(CoarseningCache, CachedHierarchyProjectsToTheInputGraph) {
  // A hierarchy does not hold its input, so projecting to level 0 must
  // size that level by its map.
  const graph::Graph g = make_graph(4, 1000);
  CoarseningCache cache;
  const auto h = cache.hierarchy(graph_digest(g), CoarsenOptions{}, g);
  ASSERT_GE(h->num_levels(), 3u);

  std::vector<PartId> coarse(h->coarsest().num_nodes());
  for (std::size_t i = 0; i < coarse.size(); ++i)
    coarse[i] = static_cast<PartId>(i % 4);
  const std::vector<PartId> fine = h->project_to_level(coarse, 0);
  ASSERT_EQ(fine.size(), g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    graph::NodeId c = u;
    for (const CoarseLevel& level : h->levels) c = level.fine_to_coarse[c];
    EXPECT_EQ(fine[u], coarse[c]) << u;
  }
}

TEST(CoarseningCache, LruEvictionIsBounded) {
  const graph::Graph g = make_graph(3, 80);
  CoarsenOptions opts;
  opts.coarsen_to = 20;
  CoarseningCache cache(/*capacity=*/1);
  int builds = 0;
  auto fetch = [&](std::uint64_t key) {
    return cache.hierarchy(key, opts, [&] {
      ++builds;
      return build_hierarchy(g, opts);
    });
  };
  fetch(101);
  fetch(202);  // evicts 101
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  fetch(101);  // rebuilt
  EXPECT_EQ(builds, 3);
}

TEST(CoarseningCache, SingleFlightCoalescesConcurrentBuilds) {
  const graph::Graph g = make_graph(4, 120);
  CoarsenOptions opts;
  opts.coarsen_to = 30;
  CoarseningCache cache;
  std::atomic<int> builds{0};

  constexpr int kThreads = 8;
  std::vector<CoarseningCache::HierarchyPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.hierarchy(7, opts, [&] {
        builds.fetch_add(1);
        // Hold the build open long enough that every other thread arrives
        // while it is in flight and must coalesce, not rebuild.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return build_hierarchy(g, opts);
      });
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(builds.load(), 1);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(results[t].get(), results[0].get());
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(CoarseningCache, BuilderExceptionPropagatesAndIsNotCached) {
  CoarseningCache cache;
  CoarsenOptions opts;
  EXPECT_THROW(cache.hierarchy(9, opts,
                               []() -> Hierarchy {
                                 throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  // The failed build must not poison the key: a later build succeeds.
  const graph::Graph g = make_graph(5, 60);
  const auto h = cache.hierarchy(9, opts, [&] { return build_hierarchy(g, opts); });
  EXPECT_GE(h->num_levels(), 1u);
}

// ------------------------------------------- hit/miss result equivalence ---

TEST(CoarseningCache, GpAnswersIdenticallyOnHitAndMiss) {
  const graph::Graph g = make_graph(6);
  PartitionRequest req;
  req.k = 4;
  req.seed = 99;
  req.constraints.rmax = g.total_node_weight();  // loose

  CoarseningCache cache;
  req.coarsen_cache = &cache;
  GpPartitioner gp;
  const auto miss_run = gp.run(g, req);   // builds the hierarchy
  const auto hit_run = gp.run(g, req);    // reuses it
  EXPECT_EQ(miss_run.partition.assignments(), hit_run.partition.assignments());

  // A fresh cache reproduces the same canonical hierarchy, so a different
  // process (or engine) answers identically too.
  CoarseningCache other;
  req.coarsen_cache = &other;
  const auto fresh_run = gp.run(g, req);
  EXPECT_EQ(miss_run.partition.assignments(),
            fresh_run.partition.assignments());
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(CoarseningCache, MetisLikeAnswersIdenticallyOnHitAndMiss) {
  const graph::Graph g = make_graph(7);
  PartitionRequest req;
  req.k = 4;
  req.seed = 5;

  CoarseningCache cache;
  req.coarsen_cache = &cache;
  MetisLikePartitioner metis;
  const auto miss_run = metis.run(g, req);
  const auto hit_run = metis.run(g, req);
  EXPECT_EQ(miss_run.partition.assignments(), hit_run.partition.assignments());
  EXPECT_EQ(cache.stats().insertions, 1u);
}

}  // namespace
}  // namespace ppnpart::part
