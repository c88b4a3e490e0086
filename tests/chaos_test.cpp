// Deterministic chaos: seeded fault schedules fired at every named
// injection seam (member runs, pool task submission, the result-cache
// insert, the coarsening-cache leader build, similarity verification),
// asserting the overload-safety contract end to end:
//
//   * no hang — every submitted job completes or carries a typed error;
//   * no torn accounting — completed + rejected + shed covers every job,
//     in every interleaving, faults or not;
//   * no poisoned state — a faulted cache insert or coarsening build
//     leaves the caches clean for the next request;
//   * replayable — the same seed fires the same schedule, so a chaos
//     failure reproduces under a debugger.
//
// With the injector disarmed the seams are single relaxed loads and the
// engine is bit-identical to its history (the goldens stay goldens); the
// first test pins that.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/portfolio.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "support/fault_injection.hpp"
#include "support/prng.hpp"
#include "support/status.hpp"

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

engine::Job make_job(std::uint64_t seed, graph::NodeId nodes = 64) {
  engine::Job job;
  job.graph = make_shared_graph(seed, nodes);
  job.request.k = 4;
  job.request.seed = seed * 31 + 7;
  return job;
}

/// ~1% channel reweights — a near-identical arrival for the similarity
/// admission seam.
std::shared_ptr<const graph::Graph> perturb_graph(const graph::Graph& g,
                                                  std::uint64_t seed) {
  support::Rng rng(seed);
  graph::GraphDelta d(g);
  const std::size_t ops = std::max<std::size_t>(1, g.num_nodes() / 100);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.uniform_index(g.num_nodes()));
    if (g.degree(u) == 0) continue;
    const graph::NodeId v = g.neighbors(u)[rng.uniform_index(g.degree(u))];
    d.set_edge_weight(u, v,
                      1 + static_cast<graph::Weight>(rng.uniform_index(12)));
  }
  return std::make_shared<const graph::Graph>(d.apply(g).graph);
}

/// Arms the process-wide injector for one test body and guarantees the
/// disarm on every exit path — a leaked armed injector would turn every
/// later test into an accidental chaos test.
class ArmedFaults {
 public:
  explicit ArmedFaults(const std::string& spec) {
    auto plan = support::parse_fault_plan(spec);
    EXPECT_TRUE(plan.is_ok()) << plan.message();
    support::FaultInjector::global().reset_counts();
    support::FaultInjector::global().arm(plan.value());
  }
  ~ArmedFaults() { support::FaultInjector::global().disarm(); }
};

std::uint64_t fired_at(support::FaultSite site) {
  return support::FaultInjector::global()
      .counts()[static_cast<std::size_t>(site)]
      .fired;
}

// A disarmed injector must be invisible: identical runs stay bit-identical
// (this is the property that keeps the goldens goldens — the seams cost one
// relaxed load each and change no answer).
TEST(ChaosTest, DisarmedInjectorChangesNothing) {
  support::FaultInjector::global().disarm();
  std::vector<part::PartId> first, second;
  for (int round = 0; round < 2; ++round) {
    engine::EngineOptions opts;
    opts.portfolio = engine::Portfolio{{"gp", "metislike"}};
    engine::Engine eng(opts);
    const engine::Job job = make_job(11, /*nodes=*/96);
    const engine::PortfolioOutcome out = eng.run_one(job.graph, job.request);
    ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
    (round == 0 ? first : second) = out.best.partition.assignments();
  }
  EXPECT_EQ(first, second);
}

TEST(ChaosTest, MemberRunFaultsYieldAnswerOrTypedError) {
  const ArmedFaults armed("seed=7,rate=0.5,sites=member.run");

  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "metislike"}};
  engine::Engine eng(opts);

  constexpr std::uint64_t kJobs = 16;
  std::uint64_t answered = 0, failed = 0;
  for (std::uint64_t j = 0; j < kJobs; ++j) {
    const engine::Job job = make_job(100 + j);
    const engine::PortfolioOutcome out = eng.run_one(job.graph, job.request);
    if (out.status.is_ok()) {
      EXPECT_FALSE(out.winner.empty());
      EXPECT_TRUE(out.best.partition.complete());
      ++answered;
    } else {
      // Both members drew a fault: the job reports WHY, typed, not a hang
      // and not a garbage partition.
      EXPECT_EQ(out.status.code(), support::StatusCode::kInternal);
      EXPECT_TRUE(out.winner.empty());
      ++failed;
    }
  }
  EXPECT_EQ(answered + failed, kJobs);
  EXPECT_EQ(eng.stats().jobs_completed, kJobs);  // failures still complete
  EXPECT_GT(fired_at(support::FaultSite::kMemberRun), 0u);
}

TEST(ChaosTest, AllMembersFaultedIsTypedAndNotCached) {
  const engine::Job job = make_job(200);
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "metislike"}};
  engine::Engine eng(opts);

  {
    const ArmedFaults armed("seed=1,rate=1,sites=member.run");
    const engine::PortfolioOutcome out = eng.run_one(job.graph, job.request);
    EXPECT_EQ(out.status.code(), support::StatusCode::kInternal);
    EXPECT_TRUE(out.winner.empty());
  }
  // Disarmed retry of the SAME key succeeds fresh: the failure was neither
  // cached nor left in the single-flight registry.
  const engine::PortfolioOutcome retry = eng.run_one(job.graph, job.request);
  EXPECT_TRUE(retry.status.is_ok()) << retry.status.to_string();
  EXPECT_FALSE(retry.from_cache);
  EXPECT_FALSE(retry.winner.empty());
}

TEST(ChaosTest, CoarsenLeaderFaultLeavesCacheRetryable) {
  const engine::Job job = make_job(300, /*nodes=*/96);
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  engine::Engine eng(opts);

  {
    const ArmedFaults armed("seed=9,rate=1,sites=coarsen.leader");
    const engine::PortfolioOutcome out = eng.run_one(job.graph, job.request);
    // Every hierarchy build throws, so the only (multilevel) member fails.
    EXPECT_FALSE(out.status.is_ok());
    EXPECT_GT(fired_at(support::FaultSite::kCoarsenLeader), 0u);
  }
  // The failed build was erased from the in-flight registry and never
  // inserted: the disarmed retry rebuilds from scratch and succeeds.
  const engine::PortfolioOutcome retry = eng.run_one(job.graph, job.request);
  EXPECT_TRUE(retry.status.is_ok()) << retry.status.to_string();
  EXPECT_TRUE(retry.best.partition.complete());
}

TEST(ChaosTest, ProjectedCoarsenFaultCompletesWithTypedError) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "metislike"}};
  opts.queue_capacity = 2;
  engine::Engine eng(opts);

  // An expired caller budget takes the projected rung, whose coarsening
  // throws here. The job ends like a fan-out whose every member failed: a
  // typed kInternal on its own path and rung, counted as completed — not an
  // answerless job in no ledger bucket.
  support::StopToken expired;
  expired.set_deadline_after(0.0);
  engine::Job job = make_job(350, /*nodes=*/96);
  job.request.stop = &expired;
  const ArmedFaults armed("seed=1,rate=1,sites=coarsen.leader");
  const engine::PortfolioOutcome out = eng.run_one(job.graph, job.request);
  EXPECT_EQ(out.status.code(), support::StatusCode::kInternal);
  EXPECT_TRUE(out.winner.empty());
  EXPECT_EQ(out.decision.path,
            engine::AdmissionDecision::Path::kFullPortfolio);
  EXPECT_EQ(out.decision.rung,
            engine::AdmissionDecision::DegradeRung::kProjected);
  EXPECT_GT(fired_at(support::FaultSite::kCoarsenLeader), 0u);
  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_completed + stats.jobs_rejected + stats.jobs_shed, 1u);
}

TEST(ChaosTest, CacheInsertFaultDropsTheInsertOnly) {
  const engine::Job job = make_job(400);
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"metislike"}};
  engine::Engine eng(opts);

  {
    const ArmedFaults armed("seed=3,rate=1,sites=cache.insert");
    const engine::PortfolioOutcome first = eng.run_one(job.graph, job.request);
    ASSERT_TRUE(first.status.is_ok()) << first.status.to_string();
    // The insert was dropped, the ANSWER was not: the twin recomputes.
    const engine::PortfolioOutcome twin = eng.run_one(job.graph, job.request);
    ASSERT_TRUE(twin.status.is_ok()) << twin.status.to_string();
    EXPECT_FALSE(twin.from_cache);
    EXPECT_EQ(first.best.partition.assignments(),
              twin.best.partition.assignments());
  }
  // Disarmed, the same traffic caches normally again.
  ASSERT_TRUE(eng.run_one(job.graph, job.request).status.is_ok());
  EXPECT_TRUE(eng.run_one(job.graph, job.request).from_cache);
}

TEST(ChaosTest, SimilarityVerifyFaultFallsBackToFullPath) {
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.similarity.enabled = true;
  engine::Engine eng(opts);

  const engine::Job base = make_job(500, /*nodes=*/300);
  ASSERT_TRUE(eng.run_one(base.graph, base.request).status.is_ok());

  const ArmedFaults armed("seed=5,rate=1,sites=sim.verify");
  const auto arriving = perturb_graph(*base.graph, 77);
  const engine::PortfolioOutcome out = eng.run_one(arriving, base.request);
  // The sketch near-hit was found but its verification was injected away:
  // the job silently falls back to the untouched full path.
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
  EXPECT_FALSE(out.similarity);
  EXPECT_TRUE(out.best.partition.complete());
  EXPECT_EQ(out.decision.decline_reason, "injected: similarity verify");
  EXPECT_GT(fired_at(support::FaultSite::kSimilarityVerify), 0u);
}

TEST(ChaosTest, OverloadPlusFaultsKeepsAccountingExact) {
  const ArmedFaults armed("seed=13,rate=0.3,sites=member.run+pool.task");

  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp", "metislike"}};
  opts.queue_capacity = 2;
  opts.shed_policy = engine::ShedPolicy::kDropOldest;
  engine::Engine eng(opts);

  // Concurrent distinct-key submits racing faults and (possible) shedding:
  // the invariant is that every job lands in exactly one bucket and every
  // wait() returns — under every interleaving.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 8;
  std::atomic<std::uint64_t> answered{0}, errored{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&eng, &answered, &errored, t] {
      for (std::uint64_t j = 0; j < kPerThread; ++j) {
        const engine::Job job = make_job(1000 + t * kPerThread + j);
        const engine::PortfolioOutcome out =
            eng.run_one(job.graph, job.request);
        if (out.status.is_ok()) {
          EXPECT_TRUE(out.best.partition.complete());
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          errored.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(answered.load() + errored.load(), kTotal);
  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.jobs_completed + stats.jobs_rejected + stats.jobs_shed,
            kTotal);
}

TEST(ChaosTest, FixedSeedScheduleIsReplayable) {

  // Serial submission pins the check indices per job, so the same seed must
  // reproduce the same per-job verdicts and the same fire tally — chaos
  // failures replay under a debugger instead of vanishing.
  const auto run_schedule = [](std::vector<bool>& verdicts) -> std::uint64_t {
    const ArmedFaults armed("seed=42,rate=0.5,sites=member.run");
    engine::EngineOptions opts;
    opts.portfolio = engine::Portfolio{{"gp", "metislike"}};
    engine::Engine eng(opts);
    for (std::uint64_t j = 0; j < 12; ++j) {
      const engine::Job job = make_job(2000 + j);
      verdicts.push_back(eng.run_one(job.graph, job.request).status.is_ok());
    }
    return fired_at(support::FaultSite::kMemberRun);
  };

  std::vector<bool> first_verdicts, second_verdicts;
  const std::uint64_t first_fired = run_schedule(first_verdicts);
  const std::uint64_t second_fired = run_schedule(second_verdicts);
  EXPECT_EQ(first_verdicts, second_verdicts);
  EXPECT_EQ(first_fired, second_fired);
  EXPECT_GT(first_fired, 0u);
}

}  // namespace
}  // namespace ppnpart
