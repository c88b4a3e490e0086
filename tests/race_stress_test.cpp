// Concurrency stress surface for ThreadSanitizer — the CI tsan job runs
// this (and the whole suite) under -fsanitize=thread. Each test hammers one
// of the documented cross-thread seams from many threads at once:
//
//   * engine streaming: submit/poll/wait with identical keys (single-flight
//     coalescing) and distinct keys, racing stats() and metrics snapshots;
//   * similarity admission: concurrent run_one over near-identical graphs,
//     so sketch probes, index inserts and warm starts interleave;
//   * coarsening cache: get-or-build single-flight from many threads on the
//     same key plus churn on distinct keys;
//   * tracer seqlock: writers record() into the ring while readers
//     snapshot(), including ring wraparound (the payload copy is the one
//     deliberate benign race — trace.cpp makes it TSan-visible-clean);
//   * metrics registry: get-or-create races, relaxed counter/histogram
//     updates racing snapshot();
//   * stop tokens: late deadline arming and parent linking racing
//     stop_requested() polls.
//
// Instances are deliberately small: the point is interleavings, not load,
// and TSan multiplies runtime by ~10x.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "partition/coarsen_cache.hpp"
#include "partition/parallel.hpp"
#include "partition/workspace.hpp"
#include "support/fault_injection.hpp"
#include "support/metrics.hpp"
#include "support/prng.hpp"
#include "support/stop_token.hpp"
#include "support/trace.hpp"

namespace ppnpart {
namespace {

std::shared_ptr<const graph::Graph> make_shared_graph(std::uint64_t seed,
                                                      graph::NodeId nodes) {
  graph::ProcessNetworkParams params;
  params.num_nodes = nodes;
  params.layers = std::max<std::uint32_t>(4, nodes / 12);
  support::Rng rng(seed);
  return std::make_shared<const graph::Graph>(
      graph::random_process_network(params, rng));
}

engine::Job make_job(std::shared_ptr<const graph::Graph> g,
                     std::uint64_t seed) {
  engine::Job job;
  job.graph = std::move(g);
  job.request.k = 4;
  job.request.seed = seed;
  return job;
}

/// Launches `n` threads over `fn(thread_index)` and joins them all.
template <typename Fn>
void run_threads(unsigned n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned t = 0; t < n; ++t) threads.emplace_back(fn, t);
  for (std::thread& th : threads) th.join();
}

TEST(RaceStressTest, EngineSubmitPollStats) {
  engine::EngineOptions opt;
  opt.portfolio = engine::Portfolio::parse("gp,kl").value();
  engine::Engine eng(opt);

  // Two shared graphs: submissions collide on keys (exact hits, coalescing)
  // and diverge (distinct portfolio fan-outs) at the same time.
  const auto g_a = make_shared_graph(1, 48);
  const auto g_b = make_shared_graph(2, 64);

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)eng.stats();
      (void)support::MetricsRegistry::global().snapshot();
      std::this_thread::yield();
    }
  });

  constexpr unsigned kThreads = 6;
  constexpr int kJobsPerThread = 8;
  run_threads(kThreads, [&](unsigned t) {
    for (int i = 0; i < kJobsPerThread; ++i) {
      // Half the traffic shares one (graph, request) key across threads;
      // the rest spreads over per-thread seeds.
      const bool shared_key = (i % 2) == 0;
      engine::Job job = make_job(shared_key ? g_a : g_b,
                                 shared_key ? 7 : 100 + t * 16 + i);
      const engine::Engine::JobId id = eng.submit(std::move(job));
      const engine::PortfolioOutcome out = eng.wait(id);
      EXPECT_FALSE(out.winner.empty());
      EXPECT_TRUE(out.best.partition.complete());
    }
  });
  stop.store(true, std::memory_order_relaxed);
  observer.join();
}

TEST(RaceStressTest, SimilarityAdmissionConcurrentProbes) {
  engine::EngineOptions opt;
  opt.portfolio = engine::Portfolio::parse("gp,kl").value();
  opt.similarity.enabled = true;
  engine::Engine eng(opt);

  // A base graph plus near-twins built through tiny deltas: concurrent
  // run_one calls race sketch computation, index insertion and diff-based
  // warm starts against each other.
  const auto base = make_shared_graph(11, 64);
  std::vector<std::shared_ptr<const graph::Graph>> variants{base};
  for (int v = 1; v <= 3; ++v) {
    graph::GraphDelta delta(base->num_nodes());
    delta.add_edge(0, static_cast<graph::NodeId>(v * 7 + 1), 2 + v);
    variants.push_back(std::make_shared<const graph::Graph>(
        delta.apply(*base).graph));
  }

  run_threads(6, [&](unsigned t) {
    for (int i = 0; i < 6; ++i) {
      const auto& g = variants[(t + static_cast<unsigned>(i)) % variants.size()];
      engine::Job job = make_job(g, 5);
      const engine::PortfolioOutcome out = eng.run_one(job.graph, job.request);
      EXPECT_EQ(out.best.partition.size(), g->num_nodes());
      EXPECT_TRUE(out.best.partition.complete());
    }
  });
}

TEST(RaceStressTest, SimilarityCountersStaySolventUnderAsyncVerdicts) {
  // The probe-counting transaction: with warm-start verdicts landing on
  // pool threads (deferred matches, parked followers resuming, declines
  // falling back to full runs), a stats() reader racing the whole mess must
  // NEVER see probes != near_hits + declines — the probe and its verdict
  // are bumped under one lock at resolution time, not split across the
  // admission and the verdict.
  engine::EngineOptions opt;
  opt.portfolio = engine::Portfolio::parse("gp").value();
  opt.similarity.enabled = true;
  engine::Engine eng(opt);

  const auto base = make_shared_graph(31, 64);
  std::vector<std::shared_ptr<const graph::Graph>> variants;
  for (int v = 0; v < 8; ++v) {
    graph::GraphDelta delta(base->num_nodes());
    delta.add_edge(static_cast<graph::NodeId>(v),
                   static_cast<graph::NodeId>(v * 5 + 3), 2 + v);
    variants.push_back(std::make_shared<const graph::Graph>(
        delta.apply(*base).graph));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const engine::EngineStats s = eng.stats();
      if (s.similarity.probes !=
          s.similarity.near_hits + s.similarity.declines)
        torn.fetch_add(1, std::memory_order_relaxed);
    }
  });

  run_threads(6, [&](unsigned t) {
    for (int i = 0; i < 6; ++i) {
      // Distinct near-twins per iteration: every admission really probes
      // (no exact hits), and bursts of them race leader registration,
      // parking, and index inserts against each other.
      const auto& g = variants[(t + static_cast<unsigned>(i) * 3) %
                               variants.size()];
      engine::Job job = make_job(g, 5);
      const engine::PortfolioOutcome out = eng.run_one(job.graph, job.request);
      EXPECT_EQ(out.best.partition.size(), g->num_nodes());
      EXPECT_TRUE(out.best.partition.complete());
    }
  });
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  EXPECT_EQ(torn.load(), 0u);
  const engine::EngineStats s = eng.stats();
  EXPECT_EQ(s.similarity.probes, s.similarity.near_hits + s.similarity.declines);
  EXPECT_GT(s.similarity.probes, 0u);
}

TEST(RaceStressTest, CoarsenCacheSingleFlight) {
  part::CoarseningCache cache(8);
  const auto g = make_shared_graph(21, 96);
  const std::uint64_t key = part::graph_digest(*g);
  part::CoarsenOptions options;

  run_threads(8, [&](unsigned t) {
    for (int i = 0; i < 12; ++i) {
      // Everyone collides on the shared key; every fourth call churns a
      // per-thread key so inserts and eviction race the coalesced builds.
      if (i % 4 == 3) {
        (void)cache.hierarchy(key + 1000 + t, options, *g);
      } else {
        const auto h = cache.hierarchy(key, options, *g);
        ASSERT_NE(h, nullptr);
        EXPECT_GE(h->num_levels(), 1u);
      }
    }
  });
  EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(RaceStressTest, TracerRecordVsSnapshot) {
  // A tiny private ring forces continuous wraparound, so writers lap each
  // other and readers constantly observe slots mid-write.
  support::Tracer tracer(64);
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&tracer, &stop, w] {
      support::TraceEvent ev;
      ev.cat = "stress";
      ev.name = "evt";
      ev.kind = support::TraceEvent::Kind::kInstant;
      ev.tid = static_cast<std::uint32_t>(w + 1);
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        ev.ts_us = i;
        ev.id = i;
        tracer.record(ev);
      }
    });
  }
  // Wait until the ring has wrapped a few times before reading: this pins
  // the writers as actually running (no scheduling flake on fast machines)
  // and makes every snapshot below contend with live overwrites.
  while (tracer.recorded() < 4 * 64) std::this_thread::yield();
  for (int r = 0; r < 200; ++r) {
    const auto events = tracer.snapshot();
    for (const support::TraceEvent& ev : events) {
      // A torn payload would show a mixed-up event; every accepted slot
      // must be internally consistent.
      EXPECT_STREQ(ev.cat, "stress");
      EXPECT_STREQ(ev.name, "evt");
      EXPECT_EQ(ev.ts_us, ev.id);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : writers) th.join();
  EXPECT_GT(tracer.recorded(), 0u);
}

TEST(RaceStressTest, MetricsRegistryAndInstruments) {
  auto& registry = support::MetricsRegistry::global();
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.snapshot();
      std::this_thread::yield();
    }
  });

  run_threads(6, [&](unsigned t) {
    // Same names from every thread: the get-or-create path races itself,
    // then the relaxed updates race the snapshots.
    auto& hits = registry.counter("stress.hits");
    auto& depth = registry.gauge("stress.depth");
    auto& lat = registry.histogram("stress.latency_us");
    for (int i = 0; i < 2000; ++i) {
      hits.add();
      depth.set(static_cast<std::int64_t>(t));
      lat.observe(static_cast<double>(i % 97));
    }
  });
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GE(registry.counter("stress.hits").value(), 6u * 2000u);
}

TEST(RaceStressTest, StopTokenLateArming) {
  for (int round = 0; round < 20; ++round) {
    support::StopToken parent;
    support::StopToken token;
    std::atomic<bool> done{false};
    std::vector<std::thread> pollers;
    for (int p = 0; p < 3; ++p) {
      pollers.emplace_back([&] {
        while (!token.stop_requested()) std::this_thread::yield();
        done.store(true, std::memory_order_relaxed);
      });
    }
    // Arm everything late, from a fourth thread, while the polls spin.
    std::thread controller([&] {
      token.set_deadline_after(30.0);  // far future: must not fire
      token.set_parent(&parent);
      parent.request_stop();
    });
    controller.join();
    for (std::thread& th : pollers) th.join();
    EXPECT_TRUE(done.load());
    EXPECT_FALSE(token.deadline_expired());
  }
}

TEST(RaceStressTest, QueueShedRacesFaultsAndLateArming) {
  // The overload seams all at once: a tiny bounded queue sheds under
  // drop_oldest while injected member/pool-task exceptions propagate
  // through fan-out and callers arm stop deadlines AFTER submitting — the
  // three mechanisms that each touch JobState/queue_/stats_ from different
  // threads. The contract: every wait() returns (shed jobs are born
  // finished), and completed + rejected + shed covers every job in the
  // final snapshot with no torn intermediate ones.
  const bool chaos = support::faults_compiled_in();
  if (chaos) {
    auto plan = support::parse_fault_plan(
        "seed=21,rate=0.25,sites=member.run+pool.task");
    ASSERT_TRUE(plan.is_ok()) << plan.message();
    support::FaultInjector::global().reset_counts();
    support::FaultInjector::global().arm(plan.value());
  }

  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "metislike"}};
  opts.queue_capacity = 2;
  opts.max_running_jobs = 1;
  opts.shed_policy = engine::ShedPolicy::kDropOldest;
  engine::Engine eng(opts);

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 6;
  std::atomic<std::uint64_t> finished{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const engine::EngineStats s = eng.stats();
      if (s.jobs_completed + s.jobs_rejected + s.jobs_shed >
          kThreads * kPerThread)
        torn.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&eng, &finished, t] {
      for (std::uint64_t j = 0; j < kPerThread; ++j) {
        support::StopToken token;
        engine::Job job =
            make_job(make_shared_graph(3000 + t * 100 + j, 48),
                     3000 + t * 100 + j);
        job.request.stop = &token;
        const engine::Engine::JobId id = eng.submit(std::move(job));
        // Arm late, racing the gate's budget reads and the member polls;
        // half the budgets fire mid-run, half never do.
        token.set_deadline_after(j % 2 == 0 ? 0.002 : 30.0);
        (void)eng.wait(id);
        finished.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();
  if (chaos) support::FaultInjector::global().disarm();

  EXPECT_EQ(finished.load(), kThreads * kPerThread);
  EXPECT_EQ(torn.load(), 0u);
  const engine::EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_completed + s.jobs_rejected + s.jobs_shed,
            kThreads * kPerThread);
}

TEST(RaceStressTest, ParallelMatchingAndLpUnderContention) {
  // The parallel kernels' cross-thread seams: the mutual-proposal matching
  // rounds (chunks read the frozen match array while writing their own
  // proposal slots) and the LP scan (chunks fill their own arena buffers
  // against the round-start MoveContext). Run both at 8 chunks across the
  // pool, repeatedly, and check the structural invariants that must hold
  // whatever interleaving TSan provokes: the matching is valid (symmetric,
  // edge-backed) and LP never worsens the exact lexicographic goodness.
  const auto g = make_shared_graph(77, 2000);
  support::ThreadPool& pool = support::ThreadPool::global();
  part::ParallelOptions popts;
  popts.threads = 8;

  for (int iteration = 0; iteration < 6; ++iteration) {
    part::Workspace ws;
    part::Matching m;
    const graph::Weight w =
        part::parallel_heavy_edge_matching(*g, popts, m, ws, pool);
    ASSERT_EQ(part::validate_matching(*g, m), "");
    EXPECT_EQ(w, part::matched_edge_weight(*g, m));

    part::Constraints c;
    c.rmax = g->total_node_weight() / 3;
    part::Partition p(g->num_nodes(), 4);
    for (graph::NodeId u = 0; u < g->num_nodes(); ++u)
      p.set(u, static_cast<part::PartId>((u + iteration) % 4));
    const part::Goodness before = part::compute_goodness(*g, p, c);
    part::LpRefineOptions lp;
    part::parallel_lp_refine(*g, p, c, lp, popts, ws, pool);
    const part::Goodness after = part::compute_goodness(*g, p, c);
    EXPECT_FALSE(before < after);
  }
}

}  // namespace
}  // namespace ppnpart
