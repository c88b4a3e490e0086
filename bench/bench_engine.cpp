// Portfolio engine: batch throughput, cache hit rate, determinism.
//
// Three measurements back the engine's service-layer claims:
//
//   1. Batch throughput — N jobs through Engine::run_batch (members of all
//      jobs interleave on the thread pool) vs the same work run
//      sequentially (each member of each job, one after another, no pool).
//      On a multicore host the batch path approaches a size()-fold speedup;
//      on a single core it should at least break even.
//
//   2. Repeated-query workload — Q queries drawn round-robin from D << Q
//      distinct jobs. The LRU cache answers Q - D of them in O(1); the
//      report shows the measured hit rate and the speedup over the same
//      traffic with the cache disabled.
//
//   3. Determinism — the same job run twice through fresh engines (cache
//      off) must produce bit-identical partitions.
//
//   4. Repeated-graph workload — N jobs (distinct seeds) over ONE graph,
//      the shape `--jobs N` produces. Shared-graph jobs + the coarsening
//      cache are measured against the PR-1 behaviour (N by-value copies,
//      every member coarsening from scratch): batch throughput and peak
//      graph-residency both improve.
//
//   5. Evolving network — the 10k-node graph evolves by ~1% edit deltas;
//      Engine::repartition (warm-started incremental refinement) races a
//      from-scratch portfolio run on every edited graph. The report shows
//      the per-delta speedup, the cut-quality ratio against scratch and the
//      fallback count. engine_test's repartition-chain gate drives the same
//      generator.
//
//   6. Similarity admission — the same drift, but arriving as plain CSR
//      graphs with NO delta attached (the service-front shape). With
//      --similarity on the engine must sketch-match each arrival against
//      the previous one, diff it and warm-start; the report shows the
//      speedup over a scratch engine, the cut ratio and the admission
//      counters (near-hits / declines). similarity_test's chain gate drives
//      the same bench::near_identical_arrival generator.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "partition/coarsen_cache.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

using namespace ppnpart;

engine::Job to_job(bench::InstanceFamily::Instance&& inst) {
  return engine::Job{std::move(inst.graph), inst.request};
}

using part::goodness_of;

/// The baseline a single-request CLI user gets: every portfolio member run
/// back-to-back on the calling thread, best answer kept. Seeds match the
/// engine's per-member derivation so quality is identical by construction.
part::PartitionResult run_sequential(const engine::Job& job,
                                     const engine::Portfolio& portfolio,
                                     part::CoarseningCache* coarsen_cache) {
  part::PartitionResult best;
  part::Goodness best_good;
  bool have = false;
  for (std::size_t i = 0; i < portfolio.size(); ++i) {
    auto algo = part::make_partitioner(portfolio.members[i]);
    part::PartitionRequest req = job.request;
    req.seed = support::SeedStream(job.request.seed).seed_for(i);
    req.coarsen_cache = coarsen_cache;
    part::PartitionResult r = algo->run(*job.graph, req);
    const part::Goodness good = goodness_of(r);
    if (!have || good < best_good) {
      have = true;
      best_good = good;
      best = std::move(r);
    }
  }
  return best;
}

}  // namespace

int main() {
  const unsigned threads = support::ThreadPool::global().size();
  std::printf("# bench_engine — portfolio engine service-layer measurements\n");
  std::printf("# thread pool size: %u\n\n", threads);

  bench::InstanceFamily family;
  family.nodes = 120;
  family.k = 4;

  const engine::Portfolio portfolio = engine::Portfolio::defaults();

  // ---- 1. Batch throughput: N jobs, batch vs sequential. ------------------
  constexpr int kBatchJobs = 32;
  std::vector<engine::Job> jobs;
  jobs.reserve(kBatchJobs);
  for (int i = 0; i < kBatchJobs; ++i) jobs.push_back(to_job(family.make(i)));

  // The sequential baseline gets its own coarsening cache so both sides
  // reuse coarsenings equally — the measured gap is parallelism, and
  // quality stays identical by construction.
  part::CoarseningCache seq_cache;
  support::Timer seq_timer;
  std::vector<part::PartitionResult> seq_results;
  seq_results.reserve(jobs.size());
  for (const engine::Job& job : jobs)
    seq_results.push_back(run_sequential(job, portfolio, &seq_cache));
  const double seq_seconds = seq_timer.seconds();

  engine::EngineOptions bopts;
  bopts.portfolio = portfolio;
  bopts.cache_capacity = 0;  // all distinct jobs; measure compute, not cache
  engine::Engine batch_engine(bopts);
  support::Timer batch_timer;
  const auto batch_results = batch_engine.run_batch(jobs);
  const double batch_seconds = batch_timer.seconds();

  int quality_matches = 0;
  for (int i = 0; i < kBatchJobs; ++i) {
    if (goodness_of(batch_results[i].best) == goodness_of(seq_results[i]))
      ++quality_matches;
  }

  std::printf("[batch throughput]  jobs=%d portfolio=%s\n", kBatchJobs,
              portfolio.to_string().c_str());
  std::printf("  sequential : %8.3f s   %6.2f jobs/s\n", seq_seconds,
              kBatchJobs / seq_seconds);
  std::printf("  run_batch  : %8.3f s   %6.2f jobs/s\n", batch_seconds,
              kBatchJobs / batch_seconds);
  std::printf("  speedup    : %6.2fx (pool size %u)\n",
              seq_seconds / batch_seconds, threads);
  std::printf("  quality    : %d/%d jobs match the sequential best exactly\n\n",
              quality_matches, kBatchJobs);

  // ---- 2. Repeated-query workload: cache hit rate and speedup. ------------
  constexpr int kDistinct = 12;
  constexpr int kQueries = 96;
  std::vector<engine::Job> distinct;
  for (int i = 0; i < kDistinct; ++i)
    distinct.push_back(to_job(family.make(1000 + i)));

  engine::EngineOptions copts;
  copts.portfolio = portfolio;
  copts.cache_capacity = 4096;
  engine::Engine cached_engine(copts);
  support::Timer cached_timer;
  for (int q = 0; q < kQueries; ++q) {
    const engine::Job& job = distinct[q % kDistinct];
    (void)cached_engine.run_one(job.graph, job.request);
  }
  const double cached_seconds = cached_timer.seconds();
  const engine::EngineStats cstats = cached_engine.stats();

  engine::EngineOptions nopts = copts;
  nopts.cache_capacity = 0;
  engine::Engine uncached_engine(nopts);
  support::Timer uncached_timer;
  for (int q = 0; q < kQueries; ++q) {
    const engine::Job& job = distinct[q % kDistinct];
    (void)uncached_engine.run_one(job.graph, job.request);
  }
  const double uncached_seconds = uncached_timer.seconds();

  std::printf("[repeated queries]  %d queries over %d distinct jobs\n",
              kQueries, kDistinct);
  std::printf("  cache hits : %llu/%d  (hit rate %.1f%%)\n",
              static_cast<unsigned long long>(cstats.cache.hits), kQueries,
              100.0 * cstats.cache.hit_rate());
  std::printf("  cached     : %8.3f s   %6.2f queries/s\n", cached_seconds,
              kQueries / cached_seconds);
  std::printf("  uncached   : %8.3f s   %6.2f queries/s\n", uncached_seconds,
              kQueries / uncached_seconds);
  std::printf("  speedup    : %6.2fx\n\n", uncached_seconds / cached_seconds);

  // ---- 3. Determinism: fixed seed => bit-identical partitions. ------------
  const engine::Job probe = to_job(family.make(77));
  engine::EngineOptions dopts;
  dopts.portfolio = portfolio;
  dopts.cache_capacity = 0;
  engine::Engine run_a(dopts);
  engine::Engine run_b(dopts);
  const auto a = run_a.run_one(probe.graph, probe.request);
  const auto b = run_b.run_one(probe.graph, probe.request);
  const bool identical =
      a.winner == b.winner &&
      a.best.partition.assignments() == b.best.partition.assignments();
  std::printf("[determinism]  fixed seed, two fresh engines\n");
  std::printf("  winner     : %s vs %s\n", a.winner.c_str(), b.winner.c_str());
  std::printf("  bit-identical partitions: %s\n\n", identical ? "yes" : "NO");

  // ---- 4. Repeated-graph workload: shared graphs + coarsening reuse. ------
  // A seed sweep of the multilevel baseline (metislike) over ONE 10k-node
  // network — the `--algorithm metislike --jobs N` shape. MetisLike's
  // runtime is dominated by coarsening (its refinement is a cheap greedy
  // pass), so this is where cross-job hierarchy reuse pays directly; the
  // constraint-aware members spend most of their time in refinement and
  // V-cycling, whose cost the cache deliberately leaves untouched.
  constexpr int kSameGraphJobs = 24;
  graph::ProcessNetworkParams big_params;
  big_params.num_nodes = 10000;
  big_params.layers = 625;
  big_params.forward_degree = 4.0;
  support::Rng big_rng(4242);
  const auto shared_graph = std::make_shared<const graph::Graph>(
      graph::random_process_network(big_params, big_rng));
  part::PartitionRequest big_request;
  big_request.k = 8;
  big_request.seed = 8800;
  const engine::Portfolio multilevel{{"metislike"}};

  auto same_graph_jobs = [&](bool shared) {
    std::vector<engine::Job> js;
    js.reserve(kSameGraphJobs);
    for (int j = 0; j < kSameGraphJobs; ++j) {
      part::PartitionRequest req = big_request;
      req.seed = big_request.seed + 1 + static_cast<std::uint64_t>(j);
      if (shared) {
        js.emplace_back(shared_graph, req);  // one graph, N references
      } else {
        js.emplace_back(graph::Graph(*shared_graph), req);  // N copies
      }
    }
    return js;
  };

  engine::EngineOptions legacy_opts;  // PR-1 behaviour: no coarsening reuse
  legacy_opts.portfolio = multilevel;
  legacy_opts.cache_capacity = 0;  // distinct seeds anyway; measure compute
  legacy_opts.coarsen_cache_capacity = 0;
  engine::EngineOptions shared_opts = legacy_opts;
  shared_opts.coarsen_cache_capacity = 32;

  double legacy_seconds = 0;
  {
    engine::Engine legacy_engine(legacy_opts);
    auto legacy_jobs = same_graph_jobs(/*shared=*/false);
    support::Timer t;
    const auto outs = legacy_engine.run_batch(std::move(legacy_jobs));
    legacy_seconds = t.seconds();
    (void)outs;
  }
  double shared_seconds = 0;
  engine::EngineStats shared_stats;
  {
    engine::Engine shared_engine(shared_opts);
    auto shared_jobs = same_graph_jobs(/*shared=*/true);
    support::Timer t;
    const auto outs = shared_engine.run_batch(std::move(shared_jobs));
    shared_seconds = t.seconds();
    shared_stats = shared_engine.stats();
    (void)outs;
  }

  const auto bytes_of = [](const auto& v) { return v.size() * sizeof(v[0]); };
  const std::size_t graph_bytes =
      bytes_of(shared_graph->xadj()) + bytes_of(shared_graph->adj()) +
      bytes_of(shared_graph->raw_edge_weights()) +
      bytes_of(shared_graph->node_weights());
  std::printf("[repeated graph]  %d jobs over one %u-node graph, portfolio=%s\n",
              kSameGraphJobs, shared_graph->num_nodes(),
              multilevel.to_string().c_str());
  std::printf("  by-value (no coarsen reuse) : %8.3f s   %6.2f jobs/s\n",
              legacy_seconds, kSameGraphJobs / legacy_seconds);
  std::printf("  shared graph + coarsen cache: %8.3f s   %6.2f jobs/s\n",
              shared_seconds, kSameGraphJobs / shared_seconds);
  std::printf("  speedup    : %6.2fx\n", legacy_seconds / shared_seconds);
  std::printf("  coarsening : %llu builds, %llu reuses (hit rate %.1f%%)\n",
              static_cast<unsigned long long>(
                  shared_stats.coarsening.insertions),
              static_cast<unsigned long long>(shared_stats.coarsening.hits),
              100.0 * shared_stats.coarsening.hit_rate());
  std::printf("  fingerprints computed: %llu (by-value path pays %d)\n",
              static_cast<unsigned long long>(
                  shared_stats.graph_fingerprints_computed),
              kSameGraphJobs);
  // Job-held copies only. The shared side's coarsening cache additionally
  // retains the coarse hierarchy levels (~1x the graph per cached key; a
  // hierarchy never holds its input) while entries live, so its true peak
  // is ~2x one graph — still ~12x below the by-value path.
  std::printf(
      "  graph bytes held by jobs : %.1f KiB shared vs %.1f KiB by-value "
      "(%dx)\n\n",
      graph_bytes / 1024.0, graph_bytes * double(kSameGraphJobs) / 1024.0,
      kSameGraphJobs);

  // ---- 5. Evolving network: incremental repartition vs from-scratch. ------
  constexpr int kDeltas = 6;
  constexpr double kEditFraction = 0.01;
  engine::EngineOptions iopts;
  iopts.portfolio = engine::Portfolio{{"gp"}};
  engine::Engine inc_engine(iopts);
  engine::EngineOptions sopts = iopts;
  sopts.cache_capacity = 0;  // scratch must recompute every edited graph
  engine::Engine scratch_engine(sopts);

  std::shared_ptr<const graph::Graph> evolving = shared_graph;
  part::PartitionRequest evolve_request = big_request;
  evolve_request.constraints.rmax = static_cast<graph::Weight>(
      1.15 * static_cast<double>(evolving->total_node_weight()) / 8);
  auto current = inc_engine.run_one(evolving, evolve_request);

  support::Rng evolve_rng(2718);
  double repart_seconds = 0, scratch_seconds = 0, cut_ratio_sum = 0;
  int fallbacks = 0, cut_ratios = 0;
  for (int d = 0; d < kDeltas; ++d) {
    const graph::GraphDelta delta =
        bench::random_evolution_delta(*evolving, kEditFraction, evolve_rng);
    support::Timer rt;
    const engine::RepartitionOutcome rep = inc_engine.repartition(
        engine::Job{evolving, evolve_request}, delta, current.best);
    repart_seconds += rt.seconds();
    // Cache hits (a delta netting to an already-answered graph) are not
    // fallbacks — nothing was recomputed.
    fallbacks += rep.incremental || rep.outcome.from_cache ? 0 : 1;

    support::Timer st;
    const auto scratch = scratch_engine.run_one(rep.graph, evolve_request);
    scratch_seconds += st.seconds();
    if (scratch.best.metrics.total_cut > 0) {
      cut_ratio_sum +=
          static_cast<double>(rep.outcome.best.metrics.total_cut) /
          static_cast<double>(scratch.best.metrics.total_cut);
      ++cut_ratios;
    }
    evolving = rep.graph;
    current.best = rep.outcome.best;
  }
  const engine::EngineStats istats = inc_engine.stats();
  std::printf("[evolving network]  %d deltas of ~%.0f%% edits on the %u-node "
              "graph, portfolio=gp\n",
              kDeltas, kEditFraction * 100, shared_graph->num_nodes());
  std::printf("  scratch     : %8.3f s/delta\n", scratch_seconds / kDeltas);
  std::printf("  repartition : %8.3f s/delta  (%d fallbacks)\n",
              repart_seconds / kDeltas, fallbacks);
  std::printf("  speedup     : %6.2fx\n",
              repart_seconds > 0 ? scratch_seconds / repart_seconds : 0.0);
  std::printf("  cut ratio   : %6.3f (incremental / scratch, mean of %d)\n",
              cut_ratios > 0 ? cut_ratio_sum / cut_ratios : 0.0, cut_ratios);
  std::printf("  ws growths  : %llu (engine repartition workspace, whole run)\n\n",
              static_cast<unsigned long long>(istats.repartition_ws_growths));

  // ---- 6. Similarity admission: near-identical arrivals, no deltas. -------
  // The same ~1% drift as section 5, but each version arrives as a plain
  // CSR graph: the engine has to DISCOVER the similarity (sketch), recover
  // the delta (diff) and warm-start — against a scratch engine that pays a
  // full portfolio run per arrival.
  constexpr int kArrivals = 6;
  constexpr double kDivergence = 0.01;
  engine::EngineOptions smopts;
  smopts.portfolio = engine::Portfolio{{"gp"}};
  smopts.similarity.enabled = true;
  engine::Engine sim_engine(smopts);
  engine::EngineOptions scr_opts = smopts;
  scr_opts.similarity.enabled = false;
  scr_opts.cache_capacity = 0;  // scratch must recompute every arrival
  engine::Engine plain_engine(scr_opts);

  std::shared_ptr<const graph::Graph> version = shared_graph;
  part::PartitionRequest arrive_request = big_request;
  arrive_request.constraints.rmax = static_cast<graph::Weight>(
      1.15 * static_cast<double>(version->total_node_weight()) / 8);
  (void)sim_engine.run_one(version, arrive_request);  // seeds the index
  // Counter baseline after seeding, so the report covers the ARRIVAL
  // stream only.
  const engine::SimilarityStats seeded = sim_engine.stats().similarity;

  support::Rng arrive_rng(31415);
  double admit_seconds = 0, scratch_arrival_seconds = 0;
  double sim_cut_ratio_sum = 0;
  int sim_cut_ratios = 0, sim_hits = 0;
  for (int a = 0; a < kArrivals; ++a) {
    const auto arrival = std::make_shared<const graph::Graph>(
        bench::near_identical_arrival(*version, kDivergence, arrive_rng));
    support::Timer at;
    const engine::PortfolioOutcome served =
        sim_engine.run_one(arrival, arrive_request);
    admit_seconds += at.seconds();
    sim_hits += served.similarity ? 1 : 0;

    support::Timer st;
    const engine::PortfolioOutcome scratch =
        plain_engine.run_one(arrival, arrive_request);
    scratch_arrival_seconds += st.seconds();
    if (scratch.best.metrics.total_cut > 0) {
      sim_cut_ratio_sum +=
          static_cast<double>(served.best.metrics.total_cut) /
          static_cast<double>(scratch.best.metrics.total_cut);
      ++sim_cut_ratios;
    }
    version = arrival;
  }
  const engine::EngineStats sim_stats = sim_engine.stats();
  std::printf(
      "[similarity admission]  %d near-identical arrivals (~%.0f%% drift, "
      "no deltas) on the %u-node graph, portfolio=gp\n",
      kArrivals, kDivergence * 100, shared_graph->num_nodes());
  std::printf("  scratch    : %8.3f s/arrival\n",
              scratch_arrival_seconds / kArrivals);
  std::printf("  admission  : %8.3f s/arrival  (%d/%d near-hits)\n",
              admit_seconds / kArrivals, sim_hits, kArrivals);
  std::printf("  speedup    : %6.2fx\n",
              admit_seconds > 0 ? scratch_arrival_seconds / admit_seconds
                                : 0.0);
  std::printf("  cut ratio  : %6.3f (admitted / scratch, mean of %d)\n",
              sim_cut_ratios > 0 ? sim_cut_ratio_sum / sim_cut_ratios : 0.0,
              sim_cut_ratios);
  std::printf(
      "  admission  : probes=%llu near_hits=%llu declines=%llu "
      "index_insertions=%llu (arrival stream; seeding run excluded)\n",
      static_cast<unsigned long long>(sim_stats.similarity.probes -
                                      seeded.probes),
      static_cast<unsigned long long>(sim_stats.similarity.near_hits -
                                      seeded.near_hits),
      static_cast<unsigned long long>(sim_stats.similarity.declines -
                                      seeded.declines),
      static_cast<unsigned long long>(sim_stats.similarity.insertions -
                                      seeded.insertions));

  return identical ? 0 : 1;
}
