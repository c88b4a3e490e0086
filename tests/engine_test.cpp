// Portfolio engine: determinism under fixed seed, cache hit/miss
// accounting, budget enforcement, batch results matching the best
// single-algorithm result at equal seeds, the streaming entry points,
// shared-graph batches (one fingerprint, one coarsening per options key)
// and single-flight coalescing of identical in-flight jobs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/fingerprint.hpp"
#include "engine/portfolio.hpp"
#include "graph/generators.hpp"
#include "partition/coarsen_cache.hpp"
#include "pool_blocker.hpp"
#include "support/fault_injection.hpp"
#include "support/lru_cache.hpp"
#include "support/prng.hpp"
#include "support/status.hpp"
#include "support/stop_token.hpp"
#include "support/thread_pool.hpp"

namespace ppnpart {
namespace {

std::shared_ptr<const graph::Graph> make_shared_graph(
    std::uint64_t seed, graph::NodeId nodes) {
  graph::ProcessNetworkParams params;
  params.num_nodes = nodes;
  params.layers = std::max<std::uint32_t>(4, nodes / 12);
  support::Rng rng(seed);
  return std::make_shared<const graph::Graph>(
      graph::random_process_network(params, rng));
}

/// A reproducible mid-size instance with loose-ish constraints so the
/// constraint-aware members usually reach feasibility.
engine::Job make_job(std::uint64_t seed, graph::NodeId nodes = 96,
                     double slack = 1.4) {
  engine::Job job;
  job.graph = make_shared_graph(seed, nodes);
  job.request.k = 4;
  job.request.seed = seed * 31 + 7;
  const double total_w = static_cast<double>(job.graph->total_node_weight());
  const double total_e = static_cast<double>(job.graph->total_edge_weight());
  job.request.constraints.rmax = std::max<graph::Weight>(
      static_cast<graph::Weight>(slack * total_w / job.request.k),
      job.graph->max_node_weight());
  job.request.constraints.bmax = std::max<graph::Weight>(
      1, static_cast<graph::Weight>(slack * total_e / 6.0 / 2.0));
  return job;
}

// ----------------------------------------------------------- portfolio ---

TEST(Portfolio, DefaultsAreRegistered) {
  const engine::Portfolio p = engine::Portfolio::defaults();
  EXPECT_EQ(p.members,
            (std::vector<std::string>{"gp", "metislike", "tabu"}));
  for (const std::string& name : p.members) {
    EXPECT_NE(part::make_partitioner(name), nullptr) << name;
  }
  // The registry's name list and its factory cannot drift apart.
  for (const std::string& name : part::partitioner_names()) {
    EXPECT_NE(part::make_partitioner(name), nullptr) << name;
  }
}

TEST(Portfolio, ParseAcceptsListsAndDefaultKeyword) {
  auto p = engine::Portfolio::parse("gp, tabu,metislike");
  ASSERT_TRUE(p.is_ok()) << p.message();
  EXPECT_EQ(p.value().members,
            (std::vector<std::string>{"gp", "tabu", "metislike"}));
  EXPECT_EQ(engine::Portfolio::parse("default").value().members,
            engine::Portfolio::defaults().members);
  EXPECT_EQ(engine::Portfolio::parse("").value().members,
            engine::Portfolio::defaults().members);
}

TEST(Portfolio, ParseRejectsUnknownNames) {
  EXPECT_FALSE(engine::Portfolio::parse("gp,notanalgo").is_ok());
  EXPECT_FALSE(engine::Portfolio::parse(",, ,").is_ok());
  // Plausible algorithm names outside the registry fail like any other.
  for (const char* gone :
       {"nlevel", "kl", "spectral", "genetic", "annealing"}) {
    const auto parsed = engine::Portfolio::parse(std::string("gp,") + gone);
    ASSERT_FALSE(parsed.is_ok()) << gone;
    EXPECT_EQ(parsed.code(), support::StatusCode::kInvalidArgument) << gone;
    EXPECT_EQ(part::make_partitioner(gone), nullptr) << gone;
  }
}

TEST(Portfolio, FingerprintIsOrderSensitive) {
  const auto a = engine::Portfolio{{"gp", "tabu"}}.fingerprint();
  const auto b = engine::Portfolio{{"tabu", "gp"}}.fingerprint();
  EXPECT_NE(a, b);
}

// --------------------------------------------------------- fingerprints ---

TEST(Fingerprint, GraphAndRequestSensitivity) {
  const engine::Job j1 = make_job(1);
  const engine::Job j2 = make_job(2);
  EXPECT_EQ(engine::graph_fingerprint(*j1.graph),
            engine::graph_fingerprint(*j1.graph));
  EXPECT_NE(engine::graph_fingerprint(*j1.graph),
            engine::graph_fingerprint(*j2.graph));
  // One digest across the stack: the partition layer's graph_digest (used
  // by the coarsening cache) is the engine fingerprint.
  EXPECT_EQ(engine::graph_fingerprint(*j1.graph), part::graph_digest(*j1.graph));

  part::PartitionRequest r1 = j1.request;
  part::PartitionRequest r2 = r1;
  EXPECT_EQ(engine::request_fingerprint(r1), engine::request_fingerprint(r2));
  r2.seed += 1;
  EXPECT_NE(engine::request_fingerprint(r1), engine::request_fingerprint(r2));
  r2 = r1;
  r2.k += 1;
  EXPECT_NE(engine::request_fingerprint(r1), engine::request_fingerprint(r2));
  r2 = r1;
  r2.constraints.rmax = 12345;
  EXPECT_NE(engine::request_fingerprint(r1), engine::request_fingerprint(r2));
}

// ----------------------------------------------------------------- cache ---

TEST(LruCache, HitMissEvictLifecycle) {
  support::LruCache<int> cache(2);
  EXPECT_FALSE(cache.lookup(1).has_value());
  cache.insert(1, 10);
  cache.insert(2, 20);
  EXPECT_EQ(cache.lookup(1).value(), 10);  // 1 becomes most recent
  cache.insert(3, 30);                     // evicts 2
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_EQ(cache.lookup(1).value(), 10);
  EXPECT_EQ(cache.lookup(3).value(), 30);
  const support::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(LruCache, EvictionFollowsRecencyOrder) {
  support::LruCache<int> cache(3);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(3, 30);
  // Touch 1 then 2: LRU order (old -> new) becomes 3, 1, 2.
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(2).has_value());
  cache.insert(4, 40);  // evicts 3, the least recently used
  EXPECT_FALSE(cache.lookup(3).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(4).has_value());
  cache.insert(5, 50);  // now 1 is oldest
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruCache, ZeroCapacityDisablesButCountsTraffic) {
  support::LruCache<int> cache(0);
  cache.insert(1, 10);
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  const support::CacheStats s = cache.stats();
  // A disabled cache still sees the traffic: every lookup is a miss, so
  // hit_rate() reports 0/N rather than a vacuous 0/0.
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.hit_rate(), 0.0);
}

// ---------------------------------------------------------------- engine ---

TEST(Engine, DeterministicForFixedSeed) {
  const engine::Job job = make_job(42);
  engine::EngineOptions opts;
  opts.cache_capacity = 0;  // force both runs to compute from scratch

  engine::Engine a(opts);
  engine::Engine b(opts);
  const engine::PortfolioOutcome ra = a.run_one(job.graph, job.request);
  const engine::PortfolioOutcome rb = b.run_one(job.graph, job.request);

  ASSERT_FALSE(ra.winner.empty());
  EXPECT_EQ(ra.winner, rb.winner);
  EXPECT_EQ(ra.best.partition.assignments(), rb.best.partition.assignments());
  EXPECT_EQ(ra.best.metrics.total_cut, rb.best.metrics.total_cut);
  EXPECT_EQ(ra.best.metrics.max_load, rb.best.metrics.max_load);
  EXPECT_FALSE(ra.from_cache);
  EXPECT_FALSE(rb.from_cache);
}

TEST(Engine, CacheHitMissAccounting) {
  const engine::Job job = make_job(7);
  engine::Engine eng;

  const auto first = eng.run_one(job.graph, job.request);
  EXPECT_FALSE(first.from_cache);
  const auto second = eng.run_one(job.graph, job.request);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(first.best.partition.assignments(),
            second.best.partition.assignments());
  EXPECT_EQ(first.winner, second.winner);

  engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  // The shared graph pointer is fingerprinted once, then memoized.
  EXPECT_EQ(stats.graph_fingerprints_computed, 1u);

  // A different seed is a different question — must miss.
  part::PartitionRequest other = job.request;
  other.seed += 1;
  const auto third = eng.run_one(job.graph, other);
  EXPECT_FALSE(third.from_cache);
  stats = eng.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 2u);

  eng.clear_cache();
  const auto fourth = eng.run_one(job.graph, job.request);
  EXPECT_FALSE(fourth.from_cache);
}

TEST(Engine, BudgetEnforcementStillYieldsCompleteAnswer) {
  const engine::Job job = make_job(3, /*nodes=*/700, /*slack=*/1.2);
  engine::EngineOptions opts;
  opts.time_budget_ms = 30;  // far below an unbudgeted portfolio run
  engine::Engine eng(opts);

  const auto out = eng.run_one(job.graph, job.request);
  ASSERT_FALSE(out.winner.empty());
  EXPECT_TRUE(out.best.partition.complete());
  EXPECT_EQ(out.best.partition.size(), job.graph->num_nodes());
  // Cooperative budgets overshoot by at most one checkpoint per member;
  // allow a generous CI margin while still catching "budget ignored".
  EXPECT_LT(out.seconds, 60.0);
  for (const auto& m : out.members) EXPECT_FALSE(m.failed) << m.error;
}

TEST(Engine, BatchMatchesBestSingleAlgorithmAtEqualSeeds) {
  const engine::Job job = make_job(11);
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "metislike", "tabu"}};
  opts.cache_capacity = 0;
  engine::Engine eng(opts);

  const auto batch = eng.run_batch({job});
  ASSERT_EQ(batch.size(), 1u);
  const engine::PortfolioOutcome& out = batch.front();
  ASSERT_FALSE(out.winner.empty());

  // Reproduce each member by hand with the engine's seed derivation and a
  // coarsening cache of our own (cached coarsenings are canonical — a pure
  // function of graph + options — so any cache reproduces the engine's
  // hierarchy); the engine's answer must equal the lexicographic best.
  part::CoarseningCache cc;
  part::Goodness best_good;
  std::vector<part::PartId> best_assign;
  std::string best_name;
  bool have = false;
  for (std::size_t i = 0; i < opts.portfolio.members.size(); ++i) {
    auto algo = part::make_partitioner(opts.portfolio.members[i]);
    part::PartitionRequest req = job.request;
    req.seed = support::SeedStream(job.request.seed).seed_for(i);
    req.coarsen_cache = &cc;
    const part::PartitionResult r = algo->run(*job.graph, req);
    const part::Goodness good{r.violation.resource_excess,
                              r.violation.bandwidth_excess,
                              r.metrics.total_cut};
    if (!have || good < best_good) {
      have = true;
      best_good = good;
      best_assign = r.partition.assignments();
      best_name = opts.portfolio.members[i];
    }
  }
  EXPECT_EQ(out.winner, best_name);
  EXPECT_EQ(out.best.partition.assignments(), best_assign);
}

TEST(Engine, RunBatchReturnsJobOrderAndDistinctAnswers) {
  std::vector<engine::Job> jobs;
  for (std::uint64_t s = 0; s < 4; ++s) jobs.push_back(make_job(100 + s, 48));
  engine::Engine eng;
  const auto outs = eng.run_batch(jobs);
  ASSERT_EQ(outs.size(), jobs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_FALSE(outs[i].winner.empty());
    EXPECT_EQ(outs[i].best.partition.size(), jobs[i].graph->num_nodes());
  }
}

TEST(Engine, SubmitPollStreaming) {
  engine::Engine eng;
  const engine::Job job = make_job(5, 48);
  const engine::Engine::JobId id = eng.submit(job);

  std::optional<engine::PortfolioOutcome> out;
  for (int spins = 0; spins < 20000 && !out; ++spins) {
    out = eng.poll(id);
    if (!out) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(out.has_value()) << "job did not finish";
  EXPECT_FALSE(out->winner.empty());

  // A collected id is gone; unknown ids are programming errors.
  EXPECT_THROW(eng.poll(id), std::invalid_argument);
  EXPECT_THROW(eng.poll(999999), std::invalid_argument);
}

TEST(Engine, CallerStopTokenIsHonored) {
  // A request.stop fired before submission cancels the job's iterative
  // work: every member returns its first-checkpoint answer, so the job
  // completes fast and complete rather than hanging or being ignored.
  engine::Job job = make_job(19, /*nodes=*/700, /*slack=*/1.2);
  support::StopToken client_stop;
  client_stop.request_stop();
  job.request.stop = &client_stop;

  engine::EngineOptions opts;
  opts.cache_capacity = 0;
  engine::Engine eng(opts);
  const auto out = eng.run_one(job.graph, job.request);
  ASSERT_FALSE(out.winner.empty());
  EXPECT_TRUE(out.best.partition.complete());
  EXPECT_LT(out.seconds, 60.0);
  for (const auto& m : out.members) EXPECT_FALSE(m.failed) << m.error;
}

TEST(Engine, CallerCancelledRunsAreNotCached) {
  // The cache key deliberately excludes the transient stop token, so a
  // caller-cancelled (truncated) outcome must never be inserted: the next
  // identical request without a token deserves the full portfolio, and its
  // complete answer is what future twins get served.
  const engine::Job job = make_job(43, 48);
  engine::Engine eng;
  support::StopToken fired;
  fired.request_stop();
  part::PartitionRequest cancelled = job.request;
  cancelled.stop = &fired;
  const auto truncated = eng.run_one(job.graph, cancelled);
  ASSERT_FALSE(truncated.winner.empty());
  EXPECT_FALSE(truncated.from_cache);

  const auto full = eng.run_one(job.graph, job.request);
  EXPECT_FALSE(full.from_cache);  // not poisoned by the truncated twin
  const auto repeat = eng.run_one(job.graph, job.request);
  EXPECT_TRUE(repeat.from_cache);  // the complete answer is cached
  EXPECT_EQ(repeat.best.partition.assignments(),
            full.best.partition.assignments());
}

TEST(Engine, FailedMembersAreIsolated) {
  // Exact refuses graphs beyond ~20 nodes; the portfolio must survive it.
  const engine::Job job = make_job(17, 64);
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"exact", "metislike"}};
  opts.cache_capacity = 0;
  engine::Engine eng(opts);
  const auto out = eng.run_one(job.graph, job.request);
  EXPECT_EQ(out.winner, "metislike");
  ASSERT_EQ(out.members.size(), 2u);
  EXPECT_TRUE(out.members[0].failed);
  EXPECT_FALSE(out.members[0].error.empty());
  EXPECT_EQ(eng.stats().members_failed(), 1u);
}

// ---------------------------------------------------- shared-graph batch ---

TEST(Engine, SharedGraphBatchFingerprintsAndCoarsensOnce) {
  // 16 jobs over ONE shared graph, all multilevel members: the engine must
  // compute exactly one graph fingerprint and build exactly one coarsening
  // per (algorithm options) key — gp hierarchy and metislike hierarchy —
  // everything else is reuse.
  const auto g = make_shared_graph(23, 144);  // large enough to really coarsen
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "metislike"}};
  engine::Engine eng(opts);

  std::vector<engine::Job> jobs;
  for (std::uint64_t s = 0; s < 16; ++s) {
    engine::Job job;
    job.graph = g;
    job.request.k = 4;
    job.request.seed = 900 + s;  // distinct seeds: no result-cache hits
    jobs.push_back(std::move(job));
  }
  const auto outs = eng.run_batch(jobs);
  ASSERT_EQ(outs.size(), 16u);
  for (const auto& out : outs) EXPECT_FALSE(out.winner.empty());

  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.graph_fingerprints_computed, 1u);
  EXPECT_EQ(stats.coarsening.insertions, 2u);  // one build per options key
  EXPECT_EQ(stats.coarsening.misses, 2u);
  EXPECT_GT(stats.coarsening.hits, 0u);
}

TEST(Engine, SharedGraphMatchesByValuePathBitForBit) {
  // The shared-graph API must answer exactly like the by-value convenience
  // path at a fixed seed (both engines fresh, so every job computes).
  const auto g = make_shared_graph(31, 48);
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "metislike"}};

  std::vector<engine::Job> shared_jobs, byvalue_jobs;
  for (std::uint64_t s = 0; s < 6; ++s) {
    part::PartitionRequest request;
    request.k = 3;
    request.seed = 70 + s;
    shared_jobs.emplace_back(g, request);
    byvalue_jobs.emplace_back(graph::Graph(*g), request);  // copies the graph
  }

  engine::Engine shared_engine(opts);
  engine::Engine byvalue_engine(opts);
  const auto shared_outs = shared_engine.run_batch(shared_jobs);
  const auto byvalue_outs = byvalue_engine.run_batch(byvalue_jobs);
  ASSERT_EQ(shared_outs.size(), byvalue_outs.size());
  for (std::size_t i = 0; i < shared_outs.size(); ++i) {
    EXPECT_EQ(shared_outs[i].winner, byvalue_outs[i].winner) << i;
    EXPECT_EQ(shared_outs[i].best.partition.assignments(),
              byvalue_outs[i].best.partition.assignments())
        << i;
  }
  // The by-value path pays one fingerprint per job; the shared path one in
  // total. Coarsening artifacts are keyed by content, so both engines
  // build the same number.
  EXPECT_EQ(shared_engine.stats().graph_fingerprints_computed, 1u);
  EXPECT_EQ(byvalue_engine.stats().graph_fingerprints_computed, 6u);
  EXPECT_EQ(shared_engine.stats().coarsening.insertions,
            byvalue_engine.stats().coarsening.insertions);
}

// ---------------------------------------------------------- single-flight ---

TEST(Engine, DuplicateInFlightKeysCoalesce) {
  // Two submissions of the same (graph, request): the second must attach to
  // the first's in-flight computation instead of running the portfolio
  // again — the leader runs its members once, the follower shares the
  // outcome (marked `coalesced`). A descheduled main thread can let the
  // leader finish before the second submit lands (then both legitimately
  // run), so retry on fresh engines until the race is observed; answers
  // must be identical either way.
  const engine::Job job = make_job(37, /*nodes=*/300, /*slack=*/1.3);
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.cache_capacity = 0;  // retries must recompute, not hit the cache

  bool coalesced = false;
  for (int attempt = 0; attempt < 5 && !coalesced; ++attempt) {
    engine::Engine eng(opts);
    const auto id1 = eng.submit(job);
    const auto id2 = eng.submit(job);
    const auto out1 = eng.wait(id1);
    const auto out2 = eng.wait(id2);

    ASSERT_FALSE(out1.winner.empty());
    EXPECT_FALSE(out1.coalesced);
    EXPECT_EQ(out1.winner, out2.winner);
    EXPECT_EQ(out1.best.partition.assignments(),
              out2.best.partition.assignments());

    coalesced = out2.coalesced;
    if (coalesced) {
      EXPECT_FALSE(out2.from_cache);
      const engine::EngineStats stats = eng.stats();
      EXPECT_EQ(stats.jobs_completed, 2u);
      EXPECT_EQ(stats.jobs_coalesced, 1u);
      EXPECT_EQ(stats.members_run(), 1u);  // the leader's single gp member
    }
  }
  EXPECT_TRUE(coalesced) << "second submit never found the first in flight";
}

// ------------------------------------------------- incremental repartition ---

TEST(Engine, RepartitionIncrementalPathAndChaining) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  engine::Engine eng(opts);

  engine::Job job = make_job(11, /*nodes=*/200);
  const auto first = eng.run_one(job.graph, job.request);
  ASSERT_FALSE(first.winner.empty());

  // A small edit: the warm-started path must answer.
  graph::GraphDelta delta(*job.graph);
  delta.set_edge_weight(0, job.graph->neighbors(0)[0], 17);
  const graph::NodeId fresh = delta.add_node(30);
  delta.add_edge(fresh, 5, 3);

  const engine::RepartitionOutcome rep = eng.repartition(job, delta, first.best);
  EXPECT_TRUE(rep.incremental) << rep.fallback_reason;
  EXPECT_EQ(rep.outcome.winner, "incremental");
  EXPECT_EQ(rep.graph->num_nodes(), job.graph->num_nodes() + 1);
  ASSERT_EQ(rep.outcome.best.partition.size(), rep.graph->num_nodes());
  EXPECT_TRUE(rep.outcome.best.partition.complete());
  EXPECT_EQ(rep.outcome.best.metrics.total_cut,
            part::compute_metrics(*rep.graph, rep.outcome.best.partition)
                .total_cut);

  // Chain a second delta against the repartitioned network.
  graph::GraphDelta delta2(*rep.graph);
  delta2.remove_node(3);
  const engine::RepartitionOutcome rep2 = eng.repartition(
      engine::Job{rep.graph, job.request}, delta2, rep.outcome.best);
  EXPECT_TRUE(rep2.incremental) << rep2.fallback_reason;
  EXPECT_EQ(rep2.graph->num_nodes(), rep.graph->num_nodes() - 1);
  EXPECT_TRUE(rep2.outcome.best.partition.complete());

  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.repartitions_incremental, 2u);
  EXPECT_EQ(stats.repartitions_fallback, 0u);
}

TEST(Engine, RepartitionNeverServesStaleCacheForEditedGraph) {
  // Regression guard for the mutated-shared-graph hazard: after an edit,
  // the old fingerprint's cached result must never be returned for the new
  // graph — the edited graph is a new object with a new content key.
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  engine::Engine eng(opts);

  engine::Job job = make_job(13, /*nodes=*/150);
  const auto first = eng.run_one(job.graph, job.request);
  ASSERT_FALSE(first.winner.empty());

  // Same request twice: the pre-edit answer IS cached under the old key.
  const auto again = eng.run_one(job.graph, job.request);
  EXPECT_TRUE(again.from_cache);

  graph::GraphDelta delta(*job.graph);
  delta.set_node_weight(0, job.graph->node_weight(0) + 5);
  delta.set_edge_weight(1, job.graph->neighbors(1)[0], 21);
  const engine::RepartitionOutcome rep = eng.repartition(job, delta, first.best);

  // The edited graph's answer was computed, not replayed from the old key.
  EXPECT_FALSE(rep.outcome.from_cache);
  EXPECT_NE(rep.outcome.key, first.key);

  // A full run on the edited graph must also miss (incremental answers are
  // never cached) and agree about the key split.
  const auto full = eng.run_one(rep.graph, job.request);
  EXPECT_FALSE(full.from_cache);
  EXPECT_EQ(full.key, rep.outcome.key);
  EXPECT_NE(full.key, first.key);

  // And the old graph's cached answer is still served for the old graph.
  const auto old_again = eng.run_one(job.graph, job.request);
  EXPECT_TRUE(old_again.from_cache);
  EXPECT_EQ(old_again.key, first.key);
}

TEST(Engine, RepartitionDeclinesIncompletePreviousPartition) {
  // An untrustworthy warm start (unassigned slots) must decline to the
  // portfolio like any other, not throw out of the service loop.
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"metislike"}};
  engine::Engine eng(opts);

  engine::Job job = make_job(29, /*nodes=*/80);
  part::PartitionResult bogus;
  bogus.partition = part::Partition(job.graph->num_nodes(), job.request.k);
  // right size, but nothing assigned

  graph::GraphDelta delta(*job.graph);
  delta.set_node_weight(0, 7);
  const engine::RepartitionOutcome rep = eng.repartition(job, delta, bogus);
  EXPECT_FALSE(rep.incremental);
  EXPECT_EQ(rep.fallback_reason, "previous partition incomplete");
  EXPECT_TRUE(rep.outcome.best.partition.complete());
}

TEST(Engine, RepartitionFallsBackOnOversizedDelta) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  engine::Engine eng(opts);

  engine::Job job = make_job(17, /*nodes=*/120);
  const auto first = eng.run_one(job.graph, job.request);
  ASSERT_FALSE(first.winner.empty());

  graph::GraphDelta big(*job.graph);
  for (graph::NodeId u = 0; u < job.graph->num_nodes(); ++u)
    big.set_node_weight(u, job.graph->node_weight(u) + 1);

  const engine::RepartitionOutcome rep = eng.repartition(job, big, first.best);
  EXPECT_FALSE(rep.incremental);
  EXPECT_FALSE(rep.fallback_reason.empty());
  EXPECT_EQ(rep.outcome.winner, "gp");  // the portfolio answered
  EXPECT_TRUE(rep.outcome.best.partition.complete());
  EXPECT_EQ(eng.stats().repartitions_fallback, 1u);

  // Fallback answers are pure (graph, request) functions and ARE cached: a
  // twin repartition of the same edit is served from the cache.
  const engine::RepartitionOutcome twin = eng.repartition(job, big, first.best);
  EXPECT_TRUE(twin.outcome.from_cache);
  EXPECT_EQ(eng.stats().repartition_cache_hits, 1u);
  EXPECT_EQ(twin.outcome.best.partition.assignments(),
            rep.outcome.best.partition.assignments());
}

TEST(Engine, RepartitionWorkspaceIsAllocationFreeInSteadyState) {
  // The engine-owned repartition workspace must reach a high-water mark and
  // stop growing: repeated small edits on a stable-size network pay zero
  // allocator traffic in the incremental refine loop.
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  engine::Engine eng(opts);

  engine::Job job = make_job(23, /*nodes=*/300);
  auto current = eng.run_one(job.graph, job.request);
  ASSERT_FALSE(current.winner.empty());
  std::shared_ptr<const graph::Graph> g = job.graph;

  support::Rng rng(5);
  const auto evolve = [&]() {
    graph::GraphDelta delta(*g);
    for (int e = 0; e < 6; ++e) {
      const auto u =
          static_cast<graph::NodeId>(rng.uniform_index(g->num_nodes()));
      if (g->degree(u) == 0) continue;
      const graph::NodeId v = g->neighbors(u)[rng.uniform_index(g->degree(u))];
      delta.set_edge_weight(
          u, v, 1 + static_cast<graph::Weight>(rng.uniform_index(12)));
    }
    const engine::RepartitionOutcome rep =
        eng.repartition(engine::Job{g, job.request}, delta, current.best);
    ASSERT_TRUE(rep.incremental) << rep.fallback_reason;
    g = rep.graph;
    current.best = rep.outcome.best;
  };

  for (int warm = 0; warm < 2; ++warm) ASSERT_NO_FATAL_FAILURE(evolve());
  const std::uint64_t before = eng.stats().repartition_ws_growths;
  for (int i = 0; i < 5; ++i) ASSERT_NO_FATAL_FAILURE(evolve());
  EXPECT_EQ(eng.stats().repartition_ws_growths, before)
      << "engine repartition workspace allocated in steady state";
}

TEST(Engine, TrackedWorkloadRepartitionChainReplaysWithoutFallback) {
  // The bench harnesses' tracked workload at 800 nodes under a MetisLike
  // engine, edited by seven ~1% edge-only deltas (random_evolution_delta).
  // Every delta stays incremental (a cache hit is not a fallback), the
  // repartition workspace stops growing after three warm-up deltas, and a
  // second engine replays the chain bit for bit.
  const graph::Graph base = bench::multilevel_workload_graph(800);
  const part::PartitionRequest request = bench::multilevel_workload_request(base);
  const auto run_chain = [&] {
    engine::EngineOptions opts;
    opts.portfolio = engine::Portfolio{{"metislike"}};
    engine::Engine eng(opts);
    auto g = std::make_shared<const graph::Graph>(base);
    auto current = eng.run_one(g, request);
    support::Rng rng(7);
    std::uint64_t warm_growths = 0;
    std::vector<std::vector<part::PartId>> chain;
    for (int d = 0; d < 7; ++d) {
      const graph::GraphDelta delta =
          bench::random_evolution_delta(*g, 0.01, rng, /*node_ops=*/false);
      const engine::RepartitionOutcome rep =
          eng.repartition(engine::Job{g, request}, delta, current.best);
      EXPECT_TRUE(rep.incremental || rep.outcome.from_cache)
          << "delta " << d << " fell back: " << rep.fallback_reason;
      EXPECT_TRUE(rep.outcome.best.partition.complete()) << "delta " << d;
      if (d <= 2) warm_growths = eng.stats().repartition_ws_growths;
      chain.push_back(rep.outcome.best.partition.assignments());
      g = rep.graph;
      current.best = rep.outcome.best;
    }
    EXPECT_EQ(eng.stats().repartition_ws_growths, warm_growths);
    return chain;
  };
  EXPECT_EQ(run_chain(), run_chain());
}

// ------------------------------------------------------- observability ---

/// ~1% channel reweights — the near-identical-arrival shape of the
/// similarity-admission tests.
std::shared_ptr<const graph::Graph> perturb_graph(const graph::Graph& g,
                                                  std::uint64_t seed) {
  support::Rng rng(seed);
  graph::GraphDelta d(g);
  const std::size_t ops =
      std::max<std::size_t>(1, g.num_nodes() / 100);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.uniform_index(g.num_nodes()));
    if (g.degree(u) == 0) continue;
    const graph::NodeId v = g.neighbors(u)[rng.uniform_index(g.degree(u))];
    d.set_edge_weight(u, v,
                      1 + static_cast<graph::Weight>(rng.uniform_index(12)));
  }
  return std::make_shared<const graph::Graph>(d.apply(g).graph);
}

TEST(Engine, AdmissionDecisionRecordsRouteAndProvenance) {
  // Every outcome carries the structured record of which pipeline stage
  // answered it and, when a warm start was consulted but fell through, why.
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.similarity.enabled = true;
  support::MetricsRegistry registry;  // private: exact values, no crosstalk
  opts.metrics = &registry;
  engine::Engine eng(opts);

  engine::Job job = make_job(41, /*nodes=*/300);

  const auto first = eng.run_one(job.graph, job.request);
  EXPECT_EQ(first.decision.path,
            engine::AdmissionDecision::Path::kFullPortfolio);
  EXPECT_TRUE(first.decision.sim_probed);  // consulted an empty index
  EXPECT_FALSE(first.decision.decline_reason.empty());
  EXPECT_STREQ(engine::to_string(first.decision.path), "full-portfolio");

  const auto second = eng.run_one(job.graph, job.request);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.decision.path, engine::AdmissionDecision::Path::kExactHit);
  EXPECT_FALSE(second.decision.sim_probed);  // stage 1 answers before it
  EXPECT_TRUE(second.decision.decline_reason.empty());

  const auto arriving = perturb_graph(*job.graph, 77);
  const auto sim = eng.run_one(arriving, job.request);
  ASSERT_TRUE(sim.similarity);
  EXPECT_EQ(sim.decision.path, engine::AdmissionDecision::Path::kSimilarity);
  EXPECT_TRUE(sim.decision.sim_probed);
  EXPECT_TRUE(sim.decision.decline_reason.empty());

  // The admission-path counters of the engine's metrics view tell the same
  // story, job for job; the latency histogram comes from the private
  // registry.
  const support::MetricsSnapshot snap = eng.stats().metrics;
  EXPECT_EQ(snap.counter_or("engine.jobs"), 3u);
  EXPECT_EQ(snap.counter_or("engine.admit.full_portfolio"), 1u);
  EXPECT_EQ(snap.counter_or("engine.admit.exact_hit"), 1u);
  EXPECT_EQ(snap.counter_or("engine.admit.similarity"), 1u);
  EXPECT_EQ(snap.counter_or("engine.admit.sim_decline"), 1u);
  const auto* job_us = snap.find_histogram("engine.job.time_us");
  ASSERT_NE(job_us, nullptr);
  EXPECT_EQ(job_us->hist.count, 3u);
}

TEST(Engine, RepartitionDecisionRecordsWarmStart) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  engine::Engine eng(opts);
  engine::Job job = make_job(43, /*nodes=*/300);
  const auto first = eng.run_one(job.graph, job.request);
  ASSERT_FALSE(first.winner.empty());

  graph::GraphDelta delta(*job.graph);
  delta.set_edge_weight(0, job.graph->neighbors(0)[0], 17);
  const engine::RepartitionOutcome rep =
      eng.repartition(engine::Job{job.graph, job.request}, delta, first.best);
  ASSERT_TRUE(rep.incremental) << rep.fallback_reason;
  EXPECT_EQ(rep.outcome.decision.path,
            engine::AdmissionDecision::Path::kWarmStart);
  // Caller-supplied deltas take stage 2 directly; the sketch index is
  // never consulted for them.
  EXPECT_FALSE(rep.outcome.decision.sim_probed);
}

TEST(Engine, MemberWinLossMetricsAreExact) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "metislike"}};
  support::MetricsRegistry registry;
  opts.metrics = &registry;
  engine::Engine eng(opts);

  constexpr std::uint64_t kJobs = 4;
  std::vector<engine::Job> batch;
  for (std::uint64_t j = 0; j < kJobs; ++j)
    batch.push_back(make_job(50 + j, /*nodes=*/96));
  const auto outcomes = eng.run_batch(batch);
  ASSERT_EQ(outcomes.size(), kJobs);

  // Exactly one member wins each job, and the flag agrees with `winner`.
  for (const engine::PortfolioOutcome& out : outcomes) {
    ASSERT_FALSE(out.winner.empty());
    int winners = 0;
    for (const engine::MemberOutcome& m : out.members) {
      if (m.won) {
        ++winners;
        EXPECT_EQ(m.algorithm, out.winner);
      }
    }
    EXPECT_EQ(winners, 1);
  }

  // Metrics view: every member ran every job; wins partition the jobs and
  // wins + losses == runs (nothing failed, nothing was skipped).
  const engine::EngineStats stats = eng.stats();
  const support::MetricsSnapshot& snap = stats.metrics;
  std::uint64_t wins_total = 0;
  for (const char* member : {"gp", "metislike"}) {
    const std::string prefix = std::string("engine.member.") + member;
    const std::uint64_t runs = snap.counter_or(prefix + ".runs");
    const std::uint64_t wins = snap.counter_or(prefix + ".wins");
    const std::uint64_t losses = snap.counter_or(prefix + ".losses");
    EXPECT_EQ(runs, kJobs) << member;
    EXPECT_EQ(snap.counter_or(prefix + ".failures"), 0u) << member;
    EXPECT_EQ(wins + losses, runs) << member;
    const auto* time_us = snap.find_histogram(prefix + ".time_us");
    ASSERT_NE(time_us, nullptr) << member;
    EXPECT_EQ(time_us->hist.count, kJobs) << member;
    wins_total += wins;
  }
  EXPECT_EQ(wins_total, kJobs);
  EXPECT_EQ(snap.counter_or("engine.jobs"), kJobs);

  // The counters are the ledger's own rows, one per portfolio member.
  ASSERT_EQ(stats.members.size(), 2u);
  EXPECT_EQ(stats.members[0].name, "gp");
  EXPECT_EQ(stats.members[0].runs, kJobs);
  EXPECT_EQ(stats.members[0].wins + stats.members[1].wins, kJobs);
}

// ---------------------------------------------------- bounded admission ---

TEST(Engine, BoundedAdmissionWalksTheLadderAndRejectsAtCapacity) {
  using Rung = engine::AdmissionDecision::DegradeRung;
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "tabu"}};
  opts.queue_capacity = 4;
  opts.max_running_jobs = 1;
  opts.shed_policy = engine::ShedPolicy::kRejectNew;
  engine::Engine eng(opts);

  PoolBlocker blocker;
  std::vector<engine::Engine::JobId> ids;
  for (std::uint64_t s = 0; s < 6; ++s)
    ids.push_back(eng.submit(make_job(500 + s, /*nodes=*/48)));

  // The sixth submit found the queue full under reject_new: born finished
  // with a typed refusal, so wait() returns immediately even though the
  // pool is still fully parked.
  const engine::PortfolioOutcome rejected = eng.wait(ids[5]);
  EXPECT_EQ(rejected.status.code(), support::StatusCode::kResourceExhausted);
  EXPECT_TRUE(rejected.winner.empty());
  EXPECT_EQ(rejected.decision.path, engine::AdmissionDecision::Path::kShed);

  blocker.release();

  // Depth at admission: 0(run) 0 1 2 3 -> full full cheap gp gp with cap 4.
  const Rung expected[5] = {Rung::kFull, Rung::kFull, Rung::kCheapMembers,
                            Rung::kGpOnly, Rung::kGpOnly};
  for (int j = 0; j < 5; ++j) {
    const engine::PortfolioOutcome out = eng.wait(ids[j]);
    EXPECT_TRUE(out.status.is_ok()) << out.status.to_string();
    EXPECT_FALSE(out.winner.empty());
    EXPECT_EQ(out.decision.rung, expected[j]) << "job " << j;
    EXPECT_TRUE(out.best.partition.complete());
  }

  // Every submitted job ended in exactly one bucket.
  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.jobs_completed, 5u);
  EXPECT_EQ(stats.jobs_rejected, 1u);
  EXPECT_EQ(stats.jobs_shed, 0u);
  EXPECT_EQ(stats.jobs_degraded(), 3u);

  // Degraded answers must not poison the cache: the cheap-rung key misses
  // (recomputed at full strength now that the load is gone) while the
  // full-rung key hits.
  const engine::Job full_again = make_job(500, /*nodes=*/48);
  const engine::Job cheap_again = make_job(502, /*nodes=*/48);
  EXPECT_TRUE(eng.run_one(full_again.graph, full_again.request).from_cache);
  const engine::PortfolioOutcome recomputed =
      eng.run_one(cheap_again.graph, cheap_again.request);
  EXPECT_FALSE(recomputed.from_cache);
  EXPECT_EQ(recomputed.decision.rung, Rung::kFull);
}

TEST(Engine, DropOldestShedsTheQueueHeadWithTypedError) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"metislike"}};
  opts.queue_capacity = 1;
  opts.max_running_jobs = 1;
  opts.shed_policy = engine::ShedPolicy::kDropOldest;
  opts.degrade_under_load = false;  // isolate shedding from the ladder
  engine::Engine eng(opts);

  PoolBlocker blocker;
  const auto a = eng.submit(make_job(600, /*nodes=*/48));  // running slot
  const auto b = eng.submit(make_job(601, /*nodes=*/48));  // queue head
  const auto c = eng.submit(make_job(602, /*nodes=*/48));  // full: b is shed

  const engine::PortfolioOutcome shed = eng.wait(b);
  EXPECT_EQ(shed.status.code(), support::StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.winner.empty());
  EXPECT_EQ(shed.decision.path, engine::AdmissionDecision::Path::kShed);

  blocker.release();
  EXPECT_TRUE(eng.wait(a).status.is_ok());
  const engine::PortfolioOutcome late = eng.wait(c);
  EXPECT_TRUE(late.status.is_ok()) << late.status.to_string();
  EXPECT_FALSE(late.winner.empty());

  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.jobs_shed, 1u);
  EXPECT_EQ(stats.jobs_rejected, 0u);
}

TEST(Engine, DeadlineAwareRefusesBudgetsThatCannotSurviveTheQueue) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "tabu"}};
  opts.queue_capacity = 8;
  opts.max_running_jobs = 1;
  opts.shed_policy = engine::ShedPolicy::kDeadlineAware;
  opts.degrade_under_load = false;
  engine::Engine eng(opts);

  // Seed the latency estimate: the first completed job sets the EWMA.
  const engine::Job first = make_job(700, /*nodes=*/96);
  const engine::PortfolioOutcome seeded =
      eng.run_one(first.graph, first.request);
  ASSERT_TRUE(seeded.status.is_ok());
  ASSERT_GT(seeded.seconds, 0.0);

  PoolBlocker blocker;
  const auto running = eng.submit(make_job(701, /*nodes=*/48));
  const auto queued1 = eng.submit(make_job(702, /*nodes=*/48));
  const auto queued2 = eng.submit(make_job(703, /*nodes=*/48));

  // Two jobs queued ahead: the estimated drain is 3x the average latency,
  // so a budget of ~2x the seeded latency is refused instead of queueing
  // behind work it will never see finish. (The refusal also fires if the
  // deadline expires before the gate runs — negative slack still loses.)
  support::StopToken doomed_token;
  doomed_token.set_deadline_after(2.0 * seeded.seconds);
  engine::Job doomed = make_job(704, /*nodes=*/48);
  doomed.request.stop = &doomed_token;
  const engine::PortfolioOutcome refused = eng.wait(eng.submit(std::move(doomed)));
  EXPECT_EQ(refused.status.code(), support::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(refused.winner.empty());

  // A roomy budget queues normally behind the same depth.
  support::StopToken roomy_token;
  roomy_token.set_deadline_after(60.0);
  engine::Job roomy = make_job(705, /*nodes=*/48);
  roomy.request.stop = &roomy_token;
  const auto ok_id = eng.submit(std::move(roomy));

  blocker.release();
  EXPECT_TRUE(eng.wait(running).status.is_ok());
  EXPECT_TRUE(eng.wait(queued1).status.is_ok());
  EXPECT_TRUE(eng.wait(queued2).status.is_ok());
  EXPECT_TRUE(eng.wait(ok_id).status.is_ok());
  EXPECT_EQ(eng.stats().jobs_rejected, 1u);
}

TEST(Engine, SimilaritySubmitDoesNotBlockOnWarmStart) {
  // Tentpole rail: admit() charges the submitter only the sketch probe. The
  // diff -> verify -> refine verdict runs as a pool task — with every pool
  // worker parked, submit() must still return with the job un-done and the
  // warm start merely queued. If any of that work ran on the submitting
  // thread, the job would already be finished here.
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.similarity.enabled = true;
  engine::Engine eng(opts);

  engine::Job job = make_job(900, /*nodes=*/300);
  ASSERT_FALSE(eng.run_one(job.graph, job.request).winner.empty());

  PoolBlocker blocker;
  const auto near = perturb_graph(*job.graph, 5);
  const auto id = eng.submit(engine::Job{near, job.request});
  EXPECT_FALSE(eng.poll(id).has_value()) << "warm start ran on the submitter";

  // The probe matched and was deferred; its verdict is still open — and the
  // counters say exactly that: only the seeding run's probe has resolved,
  // so probes == near_hits + declines holds mid-flight too.
  {
    const engine::EngineStats stats = eng.stats();
    EXPECT_EQ(stats.similarity.deferred, 1u);
    EXPECT_EQ(stats.similarity.probes, 1u);
    EXPECT_EQ(stats.similarity.declines, 1u);
    EXPECT_EQ(stats.similarity.near_hits, 0u);
  }

  blocker.release();
  const engine::PortfolioOutcome out = eng.wait(id);
  EXPECT_TRUE(out.similarity);
  EXPECT_EQ(out.winner, "similarity");
  EXPECT_TRUE(out.decision.warm_deferred);
  EXPECT_EQ(out.best.partition.size(), near->num_nodes());
  EXPECT_TRUE(out.best.partition.complete());
  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.similarity.probes, 2u);
  EXPECT_EQ(stats.similarity.near_hits, 1u);
  EXPECT_EQ(stats.similarity.declines, 1u);
}

TEST(Engine, NearTwinFollowersCoalesceOntoLeader) {
  // Batch-aware probing: N concurrent near-twins with NO indexed answer yet
  // cost one full portfolio run plus N-1 warm starts. The first submission
  // registers as the cohort's pending leader; the rest park behind it and
  // resume from its indexed answer.
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.similarity.enabled = true;
  engine::Engine eng(opts);

  const engine::Job seed = make_job(910, /*nodes=*/300);
  const auto base = seed.graph;

  // Park the pool BEFORE any submission, so the leader's answer cannot land
  // until every follower has probed — the whole cohort is truly concurrent.
  PoolBlocker blocker;
  constexpr int kTwins = 5;
  std::vector<engine::Engine::JobId> ids;
  ids.push_back(eng.submit(engine::Job{base, seed.request}));
  for (int t = 1; t < kTwins; ++t) {
    ids.push_back(eng.submit(engine::Job{
        perturb_graph(*base, static_cast<std::uint64_t>(t)), seed.request}));
  }
  for (const auto id : ids) EXPECT_FALSE(eng.poll(id).has_value());
  EXPECT_EQ(eng.stats().similarity.parked,
            static_cast<std::uint64_t>(kTwins - 1));

  blocker.release();
  const engine::PortfolioOutcome leader = eng.wait(ids[0]);
  EXPECT_EQ(leader.decision.path,
            engine::AdmissionDecision::Path::kFullPortfolio);
  EXPECT_TRUE(leader.decision.warm_leader);
  EXPECT_FALSE(leader.similarity);
  for (int t = 1; t < kTwins; ++t) {
    const engine::PortfolioOutcome out = eng.wait(ids[t]);
    EXPECT_TRUE(out.similarity) << "twin " << t;
    EXPECT_EQ(out.winner, "similarity") << "twin " << t;
    EXPECT_TRUE(out.decision.warm_deferred) << "twin " << t;
    EXPECT_TRUE(out.best.partition.complete()) << "twin " << t;
  }

  // Exact accounting: every twin probed once; the leader declined (empty
  // index) and was the ONLY full-portfolio member run; the other N-1 all
  // warm-started off its answer.
  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.similarity.probes, static_cast<std::uint64_t>(kTwins));
  EXPECT_EQ(stats.similarity.near_hits,
            static_cast<std::uint64_t>(kTwins - 1));
  EXPECT_EQ(stats.similarity.declines, 1u);
  EXPECT_EQ(stats.members_run(), 1u);
  EXPECT_EQ(stats.jobs_completed, static_cast<std::uint64_t>(kTwins));
}

TEST(Engine, DeadlineAwarePredictorColdStart) {
  // Regression: before the EWMA has ANY completion to learn from,
  // avg_job_seconds is 0 and the drain estimate `(depth+1) * avg` waves
  // everything through — including deadlines that have ALREADY expired. An
  // expired deadline needs no estimate: it must be refused even on a cold
  // predictor. Live deadlines keep queueing until the predictor has data.
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.queue_capacity = 8;
  opts.max_running_jobs = 1;
  opts.shed_policy = engine::ShedPolicy::kDeadlineAware;
  opts.degrade_under_load = false;  // isolate refusal from the ladder
  engine::Engine eng(opts);
  EXPECT_EQ(eng.stats().avg_job_seconds, 0.0);

  PoolBlocker blocker;
  const auto running = eng.submit(make_job(920, /*nodes=*/48));
  const auto queued = eng.submit(make_job(921, /*nodes=*/48));

  support::StopToken expired;
  expired.set_deadline_after(0.0);
  engine::Job doomed = make_job(922, /*nodes=*/48);
  doomed.request.stop = &expired;
  const engine::PortfolioOutcome refused =
      eng.wait(eng.submit(std::move(doomed)));
  EXPECT_EQ(refused.status.code(), support::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(refused.winner.empty());

  // A live deadline on the same cold predictor queues normally: refusing it
  // on a guess would shed meetable work.
  support::StopToken live;
  live.set_deadline_after(60.0);
  engine::Job patient = make_job(923, /*nodes=*/48);
  patient.request.stop = &live;
  const auto patient_id = eng.submit(std::move(patient));

  blocker.release();
  EXPECT_TRUE(eng.wait(running).status.is_ok());
  EXPECT_TRUE(eng.wait(queued).status.is_ok());
  EXPECT_TRUE(eng.wait(patient_id).status.is_ok());
  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.jobs_rejected, 1u);
  EXPECT_GT(stats.avg_job_seconds, 0.0);  // seeded by the full completions
}

TEST(Engine, DegradedCompletionsDoNotSeedTheDrainPredictor) {
  // The EWMA learns only from FULL-rung completions: degraded rungs finish
  // fast by design, and feeding them in would bias the drain estimate low
  // exactly when overload makes it matter.
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.queue_capacity = 4;
  opts.max_running_jobs = 1;
  engine::Engine eng(opts);

  // A projected (bottom-rung) answer is served inline and must leave the
  // predictor cold.
  support::StopToken gone;
  gone.set_deadline_after(0.0);
  engine::Job rushed = make_job(930, /*nodes=*/96);
  rushed.request.stop = &gone;
  const auto projected = eng.run_one(rushed.graph, rushed.request);
  ASSERT_EQ(projected.decision.rung,
            engine::AdmissionDecision::DegradeRung::kProjected);
  EXPECT_EQ(eng.stats().avg_job_seconds, 0.0);

  // Build a deterministic rung mix: h runs (depth 0, full); q1 queues at
  // depth 0 (full); q2 at depth 1 (cheap); q3 at depth 2 (gp-only). With
  // max_running 1 they finalize in exactly that order, so the EWMA after
  // the drain is a pure function of the two FULL completions' latencies —
  // bit-equal to replaying the update rule on the reported seconds. If the
  // degraded q2/q3 fed the estimate, this equality breaks.
  PoolBlocker blocker;
  const auto h = eng.submit(make_job(931, /*nodes=*/48));
  const auto q1 = eng.submit(make_job(932, /*nodes=*/48));
  const auto q2 = eng.submit(make_job(933, /*nodes=*/48));
  const auto q3 = eng.submit(make_job(934, /*nodes=*/48));
  blocker.release();

  const engine::PortfolioOutcome out_h = eng.wait(h);
  const engine::PortfolioOutcome out_q1 = eng.wait(q1);
  const engine::PortfolioOutcome out_q2 = eng.wait(q2);
  const engine::PortfolioOutcome out_q3 = eng.wait(q3);
  ASSERT_EQ(out_h.decision.rung, engine::AdmissionDecision::DegradeRung::kFull);
  ASSERT_EQ(out_q1.decision.rung,
            engine::AdmissionDecision::DegradeRung::kFull);
  ASSERT_NE(out_q2.decision.rung,
            engine::AdmissionDecision::DegradeRung::kFull);
  ASSERT_NE(out_q3.decision.rung,
            engine::AdmissionDecision::DegradeRung::kFull);

  const double expected = 0.8 * out_h.seconds + 0.2 * out_q1.seconds;
  EXPECT_DOUBLE_EQ(eng.stats().avg_job_seconds, expected);
}

TEST(Engine, ExpiredBudgetGetsProjectedAnswerInline) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "tabu"}};
  opts.queue_capacity = 2;
  engine::Engine eng(opts);

  support::StopToken expired;
  expired.set_deadline_after(0.0);
  engine::Job job = make_job(800, /*nodes=*/96);
  job.request.stop = &expired;
  const auto shared = job.graph;
  const part::PartitionRequest request = job.request;

  // The budget is already gone: the bottom rung serves a projected answer
  // inline — coarsest-level greedy growth projected back to the full graph,
  // no pool slot, no queue entry. Every pool worker is parked to prove it.
  PoolBlocker blocker;
  const engine::PortfolioOutcome out = eng.run_one(shared, request);
  blocker.release();
  EXPECT_TRUE(out.status.is_ok()) << out.status.to_string();
  EXPECT_EQ(out.winner, "projected");
  EXPECT_EQ(out.decision.rung,
            engine::AdmissionDecision::DegradeRung::kProjected);
  EXPECT_TRUE(out.best.partition.complete());
  EXPECT_EQ(eng.stats().jobs_degraded(), 1u);

  // Projected answers are never cached: the same key recomputes at full
  // strength once the budget pressure is gone.
  part::PartitionRequest full_request = request;
  full_request.stop = nullptr;
  const engine::PortfolioOutcome full = eng.run_one(shared, full_request);
  EXPECT_FALSE(full.from_cache);
  EXPECT_NE(full.winner, "projected");
  EXPECT_TRUE(eng.run_one(shared, full_request).from_cache);
}

// ---------------------------------------------------------------- ledger ---

/// Every way one stats() snapshot can disagree with itself, as text (empty
/// when it does not): a published engine.* counter that differs from its
/// EngineStats field or member row (or is missing or unknown), a job or
/// member latency histogram whose count differs from the completed jobs or
/// the member's runs, answering paths that do not add up to the finished
/// jobs, unbalanced similarity probes, or more index evictions than
/// insertions. Needs the engine's own registry: a shared one's histograms
/// count other engines too.
std::string ledger_disagreement(const engine::EngineStats& s) {
  std::map<std::string, std::uint64_t> expected = {
      {"engine.jobs", s.jobs_completed},
      {"engine.admit.exact_hit", s.exact_hits},
      {"engine.admit.warm_start", s.repartitions_incremental},
      {"engine.admit.similarity", s.similarity.near_hits},
      {"engine.admit.sim_decline", s.similarity.declines},
      {"engine.admit.sim_deferred", s.similarity.deferred},
      {"engine.admit.sim_parked", s.similarity.parked},
      {"engine.admit.full_portfolio", s.full_portfolio},
      {"engine.admit.rejected", s.jobs_rejected},
      {"engine.admit.shed", s.jobs_shed},
      {"engine.degrade.cheap_members", s.degraded_cheap_members},
      {"engine.degrade.gp_only", s.degraded_gp_only},
      {"engine.degrade.projected", s.degraded_projected},
  };
  for (const engine::MemberStats& m : s.members) {
    const std::string prefix = "engine.member." + m.name + ".";
    expected[prefix + "runs"] += m.runs;
    expected[prefix + "wins"] += m.wins;
    expected[prefix + "losses"] += m.losses;
    expected[prefix + "failures"] += m.failures;
  }
  std::ostringstream why;
  std::size_t published = 0;
  for (const support::MetricsSnapshot::CounterEntry& c : s.metrics.counters) {
    if (c.name.rfind("engine.", 0) != 0) continue;
    ++published;
    const auto it = expected.find(c.name);
    if (it == expected.end())
      why << "unknown counter " << c.name << "; ";
    else if (it->second != c.value)
      why << c.name << " = " << c.value << ", ledger " << it->second << "; ";
  }
  if (published != expected.size())
    why << published << " engine counters published, " << expected.size()
        << " expected; ";
  std::map<std::string, std::uint64_t> observations = {
      {"engine.job.time_us", s.jobs_completed}};
  for (const engine::MemberStats& m : s.members)
    observations["engine.member." + m.name + ".time_us"] += m.runs;
  for (const auto& [name, count] : observations) {
    const auto* h = s.metrics.find_histogram(name);
    const std::uint64_t observed = h == nullptr ? 0 : h->hist.count;
    if (observed != count)
      why << name << " count " << observed << ", ledger " << count << "; ";
  }
  const std::uint64_t paths = s.exact_hits + s.repartitions_incremental +
                              s.similarity.near_hits + s.full_portfolio;
  const std::uint64_t finished =
      s.jobs_completed + s.jobs_rejected + s.jobs_shed;
  if (paths != finished)
    why << "answering paths " << paths << " != finished jobs " << finished
        << "; ";
  if (s.similarity.probes != s.similarity.near_hits + s.similarity.declines)
    why << "similarity probes unbalanced; ";
  if (s.exact_hits > s.cache.hits)
    why << "exact hits " << s.exact_hits << " > cache hits " << s.cache.hits
        << "; ";
  if (s.similarity.evictions > s.similarity.insertions)
    why << "more index evictions than insertions; ";
  return why.str();
}

/// The ledger cross-check: the snapshot agrees with itself and every
/// submitted job sits in exactly one completion bucket.
void expect_ledger_consistent(const engine::Engine& eng,
                              std::uint64_t submitted, const char* step) {
  const engine::EngineStats s = eng.stats();
  EXPECT_EQ(ledger_disagreement(s), "") << step;
  EXPECT_EQ(s.jobs_completed + s.jobs_rejected + s.jobs_shed, submitted)
      << step;
}

TEST(Engine, StatsSnapshotIsNeverTornUnderConcurrentSubmit) {
  // A probe and its verdict are counted in one transaction, the job and
  // member latency histograms are observed in the transaction that counts
  // what they sample, and the metrics view is read under the same lock as
  // the ledger fields, so no snapshot can catch a count half-made or in one
  // view and not the other — even while writers race fresh graphs, exact
  // repeats and near twins through every admission stage. The result cache
  // counts a hit at lookup and the ledger its exact hit at completion, so
  // exact_hits never exceeds cache.hits, and they agree once writers stop.
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"metislike"}};
  opts.similarity.enabled = true;
  support::MetricsRegistry registry;
  opts.metrics = &registry;
  engine::Engine eng(opts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> torn{0};
  std::string first_torn;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string why = ledger_disagreement(eng.stats());
      reads.fetch_add(1, std::memory_order_relaxed);
      if (!why.empty() && torn.fetch_add(1, std::memory_order_relaxed) == 0)
        first_torn = why;
    }
  });

  constexpr int kWriters = 2;
  constexpr std::uint64_t kGraphsPerWriter = 24;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&eng, w] {
      for (std::uint64_t j = 0; j < kGraphsPerWriter; ++j) {
        const engine::Job job =
            make_job(2000 + w * kGraphsPerWriter + j, /*nodes=*/64);
        (void)eng.run_one(job.graph, job.request);  // fresh
        (void)eng.run_one(job.graph, job.request);  // exact repeat
        (void)eng.run_one(perturb_graph(*job.graph, j), job.request);  // twin
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(torn.load(), 0u) << "of " << reads.load()
                             << " snapshots; first: " << first_torn;
  const engine::EngineStats s = eng.stats();
  EXPECT_EQ(ledger_disagreement(s), "");
  EXPECT_EQ(s.jobs_completed, 3 * kWriters * kGraphsPerWriter);
  EXPECT_GT(s.exact_hits, 0u);
  EXPECT_EQ(s.exact_hits, s.cache.hits);
  EXPECT_GT(s.similarity.near_hits, 0u);
}

TEST(Engine, LedgerMirrorsAgreeOnEveryCompletionPath) {
  // Drives every completion path in turn and cross-checks the ledger after
  // each one. Two engines, each with a private registry: a reject_new
  // engine with similarity admission, and a drop_oldest engine without it
  // (drop_oldest never rejects, and with similarity on an identical twin
  // parks behind its pending leader instead of coalescing onto it).
  using Path = engine::AdmissionDecision::Path;
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.queue_capacity = 1;
  opts.max_running_jobs = 1;
  opts.similarity.enabled = true;
  support::MetricsRegistry registry;
  opts.metrics = &registry;
  engine::Engine eng(opts);
  std::uint64_t submitted = 0;

  const engine::Job base = make_job(1300, /*nodes=*/300);
  const engine::PortfolioOutcome full = eng.run_one(base.graph, base.request);
  ++submitted;
  ASSERT_EQ(full.decision.path, Path::kFullPortfolio);
  expect_ledger_consistent(eng, submitted, "full");

  EXPECT_TRUE(eng.run_one(base.graph, base.request).from_cache);
  ++submitted;
  expect_ledger_consistent(eng, submitted, "exact hit");

  graph::GraphDelta delta(*base.graph);
  delta.set_edge_weight(0, base.graph->neighbors(0)[0], 17);
  EXPECT_TRUE(eng.repartition(base, delta, full.best).incremental);
  ++submitted;
  expect_ledger_consistent(eng, submitted, "caller warm start");

  const auto near = perturb_graph(*base.graph, 77);
  EXPECT_TRUE(eng.run_one(near, base.request).similarity);
  ++submitted;
  expect_ledger_consistent(eng, submitted, "similarity near-hit");

  {
    // A fresh graph leads a cohort; its near-twin parks behind it and
    // warm-starts from the leader's indexed answer.
    const engine::Job lead = make_job(1301, /*nodes=*/300);
    PoolBlocker blocker;
    const auto leader = eng.submit(lead);
    const auto parked =
        eng.submit(engine::Job{perturb_graph(*lead.graph, 5), lead.request});
    submitted += 2;
    blocker.release();
    EXPECT_TRUE(eng.wait(leader).decision.warm_leader);
    EXPECT_TRUE(eng.wait(parked).similarity);
  }
  expect_ledger_consistent(eng, submitted, "parked follower");

  {
    // One running slot, one queue place: the third distinct job is refused.
    PoolBlocker blocker;
    const auto running = eng.submit(make_job(1302, /*nodes=*/48));
    const auto queued = eng.submit(make_job(1303, /*nodes=*/48));
    const auto refused = eng.submit(make_job(1304, /*nodes=*/48));
    submitted += 3;
    EXPECT_EQ(eng.wait(refused).status.code(),
              support::StatusCode::kResourceExhausted);
    blocker.release();
    EXPECT_TRUE(eng.wait(running).status.is_ok());
    EXPECT_TRUE(eng.wait(queued).status.is_ok());
  }
  EXPECT_EQ(eng.stats().jobs_rejected, 1u);
  expect_ledger_consistent(eng, submitted, "rejected");

  support::StopToken expired;
  expired.set_deadline_after(0.0);
  engine::Job rushed = make_job(1305, /*nodes=*/96);
  rushed.request.stop = &expired;
  EXPECT_EQ(eng.run_one(rushed.graph, rushed.request).winner, "projected");
  ++submitted;
  expect_ledger_consistent(eng, submitted, "projected");

  {
    auto plan = support::parse_fault_plan("seed=1,rate=1,sites=member.run");
    ASSERT_TRUE(plan.is_ok()) << plan.message();
    struct Disarm {
      ~Disarm() { support::FaultInjector::global().disarm(); }
    } disarm;
    support::FaultInjector::global().arm(plan.value());
    const engine::Job doomed = make_job(1306, /*nodes=*/48);
    EXPECT_EQ(eng.run_one(doomed.graph, doomed.request).status.code(),
              support::StatusCode::kInternal);
    ++submitted;
  }
  expect_ledger_consistent(eng, submitted, "all members failed");

  engine::EngineOptions shed_opts = opts;
  shed_opts.similarity.enabled = false;
  shed_opts.shed_policy = engine::ShedPolicy::kDropOldest;
  support::MetricsRegistry shed_registry;
  shed_opts.metrics = &shed_registry;
  engine::Engine shedder(shed_opts);
  submitted = 0;
  {
    PoolBlocker blocker;
    const engine::Job twin = make_job(1307, /*nodes=*/48);
    const auto leader = shedder.submit(twin);
    const auto follower = shedder.submit(twin);
    submitted += 2;
    blocker.release();
    EXPECT_FALSE(shedder.wait(leader).coalesced);
    EXPECT_TRUE(shedder.wait(follower).coalesced);
  }
  expect_ledger_consistent(shedder, submitted, "coalesced follower");

  {
    // The third job finds the queue full and evicts the queued second one.
    PoolBlocker blocker;
    const auto running = shedder.submit(make_job(1308, /*nodes=*/48));
    const auto victim = shedder.submit(make_job(1309, /*nodes=*/48));
    const auto late = shedder.submit(make_job(1310, /*nodes=*/48));
    submitted += 3;
    EXPECT_EQ(shedder.wait(victim).decision.path, Path::kShed);
    blocker.release();
    EXPECT_TRUE(shedder.wait(running).status.is_ok());
    EXPECT_TRUE(shedder.wait(late).status.is_ok());
  }
  EXPECT_EQ(shedder.stats().jobs_shed, 1u);
  expect_ledger_consistent(shedder, submitted, "drop_oldest shed");
}

}  // namespace
}  // namespace ppnpart
