// Wall-clock gates. Each bound reads the machine as well as the code, so
// ctest runs this executable alone (RUN_SERIAL in CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "pool_blocker.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace ppnpart {
namespace {

TEST(TimingGate, TracingOffHookCostsAtMost250Ns) {
  // With tracing off, a ScopedSpan plus one arg() is what every
  // instrumented inner loop pays in every build: one relaxed load. Averaged
  // over 2M spans. The clock alone cannot see a disabled span that records
  // anyway (an optimised build pays that in well under the bound), so the
  // tracer's count must not move.
  support::Tracer& tracer = support::Tracer::global();
  tracer.set_enabled(false);
  const std::uint64_t recorded = tracer.recorded();
  constexpr int kIters = 2'000'000;
  support::Timer timer;
  for (int i = 0; i < kIters; ++i) {
    support::ScopedSpan span("bench", "disabled-probe");
    span.arg("i", i);
  }
  const double ns = timer.seconds() * 1e9 / kIters;
  std::printf("tracing-off hook: %.1f ns\n", ns);
  EXPECT_LE(ns, 250.0);
  EXPECT_EQ(tracer.recorded(), recorded) << "a disabled span recorded";
}

TEST(TimingGate, NearTwinBurstSubmitsStayUnderHalfASecond) {
  // Eight ~1% near-twins of the bench harnesses' tracked 800-node workload,
  // submitted with every pool worker parked and nothing indexed yet. The
  // submitting thread pays only the sketch probe: no submit() takes more
  // than 0.5 s and none finishes before the pool is released. Then one full
  // run answers the leader, the seven followers park behind it and warm-start
  // from its answer, and every twin gets a valid partition of its own graph.
  const graph::Graph base = bench::multilevel_workload_graph(800);
  const part::PartitionRequest request =
      bench::multilevel_workload_request(base);
  std::vector<std::shared_ptr<const graph::Graph>> twins{
      std::make_shared<const graph::Graph>(base)};
  support::Rng rng(9090);
  while (twins.size() < 8) {
    twins.push_back(std::make_shared<const graph::Graph>(
        bench::near_identical_arrival(base, 0.01, rng)));
  }
  engine::EngineOptions opts;
  opts.portfolio = engine::Portfolio{{"gp"}};
  opts.similarity.enabled = true;
  engine::Engine eng(opts);

  PoolBlocker blocker;
  std::vector<engine::Engine::JobId> ids;
  double worst_submit_s = 0;
  for (const auto& twin : twins) {
    support::Timer timer;
    ids.push_back(eng.submit(engine::Job{twin, request}));
    worst_submit_s = std::max(worst_submit_s, timer.seconds());
  }
  for (const auto id : ids) EXPECT_FALSE(eng.poll(id).has_value());
  blocker.release();
  std::printf("worst near-twin submit: %.6f s\n", worst_submit_s);
  EXPECT_LE(worst_submit_s, 0.5);

  for (std::size_t i = 0; i < twins.size(); ++i) {
    const engine::PortfolioOutcome out = eng.wait(ids[i]);
    EXPECT_TRUE(out.status.is_ok()) << "twin " << i;
    EXPECT_EQ(out.best.partition.size(), twins[i]->num_nodes()) << "twin " << i;
    EXPECT_TRUE(out.best.partition.complete()) << "twin " << i;
  }
  const engine::EngineStats stats = eng.stats();
  const std::uint64_t followers = twins.size() - 1;
  EXPECT_EQ(stats.members_run(), 1u);
  EXPECT_EQ(stats.similarity.near_hits, followers);
  EXPECT_EQ(stats.similarity.declines, 1u);
  EXPECT_EQ(stats.similarity.parked, followers);
  EXPECT_EQ(stats.similarity.probes,
            stats.similarity.near_hits + stats.similarity.declines);
}

TEST(TimingGate, GpSpeedsUpThreefoldAtEightThreads) {
  // GP at two cycles on a 20k-node streamed PN: one warm and one timed run
  // at threads = 1, then timed runs at 2 and 8. Every answer is the
  // threads = 1 answer. The speedup bound needs eight hardware threads to
  // mean anything, so it is armed only there.
  graph::ProcessNetworkParams params;
  params.num_nodes = 20'000;
  params.layers = std::max<std::uint32_t>(8, params.num_nodes / 64);
  support::Rng rng(4242);
  const graph::Graph g = graph::streamed_process_network(params, rng);
  ASSERT_TRUE(g.validate().empty()) << g.validate();
  if (std::thread::hardware_concurrency() < 8)
    GTEST_SKIP() << "fewer than 8 hardware threads";

  part::GpOptions options;
  options.max_cycles = 2;
  part::GpPartitioner gp(options);
  part::Workspace ws;
  part::PartitionRequest request = bench::multilevel_workload_request(g);
  request.workspace = &ws;
  gp.run(g, request);
  support::Timer serial_timer;
  const part::PartitionResult serial = gp.run(g, request);
  const double serial_s = serial_timer.seconds();
  double speedup = 0;
  for (const std::uint32_t threads : {2u, 8u}) {
    request.threads = threads;
    support::Timer timer;
    const part::PartitionResult r = gp.run(g, request);
    speedup = serial_s / timer.seconds();
    EXPECT_EQ(r.partition.assignments(), serial.partition.assignments())
        << "threads " << threads;
  }
  std::printf("GP speedup at 8 threads: %.2fx\n", speedup);
  EXPECT_GE(speedup, 3.0);
}

}  // namespace
}  // namespace ppnpart
