// service_mix: an open-loop request stream into one engine::Engine with the
// default options (portfolio gp,metislike,annealing,tabu) and similarity
// admission on, sent from one client thread at a fixed rate.
//
// Mix, per block of ten requests in a fixed interleaved order:
//   4 fresh PN graphs;
//   3 exact repeats of a recent request;
//   3 near-identical arrivals: a 1% drift of a recent graph, sent with its
//     request.
// Each kind is 12-node K=4 (exact-checkable), 1k-node K=8 and 4k-node K=8
// graphs in the ratio 3:1:1. Repeats and drifts pick among the last 24
// requests of their class, which span more distinct graphs than the
// engine's 32-entry similarity index and coarsening cache hold, so both
// evict. Every request is timed from its due time to its completion, so a
// stall also charges the requests queued behind it.

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "engine/engine.hpp"
#include "partition/gp.hpp"
#include "partition/phase_profile.hpp"
#include "partition/workspace.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace part = ppnpart::part;
namespace engine = ppnpart::engine;

namespace {

enum class Kind { kFresh, kRepeat, kNear };

struct Planned {
  Kind kind = Kind::kFresh;
  std::shared_ptr<const Graph> graph;
  part::PartitionRequest request;
  int base = -1;  // earlier request repeated or drifted
};

struct Schedule {
  std::vector<Planned> requests;
  /// exact_min_cut optimum of every 12-node graph, by graph identity.
  std::unordered_map<const Graph*, Weight> optimum;
};

constexpr const char* kMembers[] = {"gp", "metislike", "annealing", "tabu"};

Schedule make_schedule(std::uint64_t seed, std::size_t count, bool toy,
                       const std::vector<ExactRef>& family) {
  const NodeId sizes[3] = {12, static_cast<NodeId>(toy ? 200 : 1000),
                           static_cast<NodeId>(toy ? 600 : 4000)};
  ppnpart::support::Rng rng(seed);
  Schedule s;
  std::vector<std::shared_ptr<const Graph>> family_graphs;
  for (const ExactRef& ref : family) {
    family_graphs.push_back(std::make_shared<const Graph>(ref.inst.graph));
    s.optimum[family_graphs.back().get()] = ref.optimum;
  }
  // The traffic shape is fixed and the seed draws only its content (the
  // 1k/4k graphs, which earlier request is repeated or drifted, the drift
  // edits): kinds arrive in a fixed interleaved order and each kind cycles
  // through the size classes 12, 12, 12, 1k, 4k. Every run then has the same
  // composition and the same overlap of large and small jobs on the pool,
  // which otherwise moves the latency median from run to run. Most traffic
  // is small, as in a service, so the median falls among the small answers
  // rather than on the step up to the 1k-node ones.
  constexpr Kind kBlock[] = {Kind::kFresh, Kind::kRepeat, Kind::kNear,
                             Kind::kFresh, Kind::kRepeat, Kind::kNear,
                             Kind::kFresh, Kind::kRepeat, Kind::kNear,
                             Kind::kFresh};
  constexpr std::size_t kClassCycle[] = {0, 0, 0, 1, 2};
  std::size_t next_class[3] = {0, 0, 0};
  std::size_t fresh12 = 0, fresh = 0;
  std::vector<std::size_t> by_class[3];
  for (std::size_t i = 0; i < count; ++i) {
    s.requests.push_back({kBlock[i % std::size(kBlock)], nullptr, {}, -1});
    Planned& p = s.requests[i];
    const auto kind = static_cast<std::size_t>(p.kind);
    const std::size_t cls =
        kClassCycle[next_class[kind]++ % std::size(kClassCycle)];
    std::vector<std::size_t>& earlier = by_class[cls];
    if (p.kind != Kind::kFresh && earlier.empty()) p.kind = Kind::kFresh;
    if (p.kind == Kind::kFresh) {
      if (cls == 0) {
        // The 12-node class is the fixed exact-checked family, in order.
        const std::size_t f = fresh12++ % family.size();
        p.graph = family_graphs[f];
        p.request = family[f].inst.request;
      } else {
        Instance inst =
            family_instance(sizes[cls], 8, seed * 100003 + fresh++, 1.3);
        p.graph = std::make_shared<const Graph>(std::move(inst.graph));
        p.request = inst.request;
      }
    } else {
      const std::size_t window = std::min<std::size_t>(24, earlier.size());
      p.base = static_cast<int>(
          earlier[earlier.size() - 1 - rng.uniform_index(window)]);
      const Planned& base = s.requests[static_cast<std::size_t>(p.base)];
      p.request = base.request;
      p.graph = p.kind == Kind::kRepeat
                    ? base.graph
                    : std::make_shared<const Graph>(
                          near_identical_arrival(*base.graph, 0.01, rng));
    }
    earlier.push_back(i);
  }
  return s;
}

/// Spins up the pool and pages in every member on graphs outside the
/// stream, then forgets them.
void warm_up(engine::Engine& eng, std::uint64_t seed) {
  std::vector<engine::Engine::JobId> ids;
  for (const NodeId n : {NodeId{12}, NodeId{300}}) {
    Instance inst = family_instance(n, n == 12 ? 4 : 8, seed ^ 0x5eed, 1.3);
    ids.push_back(eng.submit(engine::Job(std::move(inst.graph), inst.request)));
  }
  for (const auto id : ids) (void)eng.wait(id);
  eng.clear_cache();
}

struct Served {
  Clock::time_point due{};
  Clock::time_point submitted{};
  Clock::time_point done{};
  std::optional<engine::PortfolioOutcome> outcome;
  bool valid = false;
  AnswerCheck check;
};

struct StreamRun {
  std::vector<Served> served;
  engine::EngineStats before, after;
  double wall_s = 0;  // first due time -> last completion
};

/// Sends the schedule open-loop at `rate_rps` and polls for answers.
StreamRun run_stream(engine::Engine& eng, const Schedule& s, double rate_rps,
                     double drain_limit_s, SpanRecorder& rec) {
  StreamRun out;
  out.before = eng.stats();
  const std::size_t n = s.requests.size();
  out.served.resize(n);
  std::vector<engine::Engine::JobId> ids(n, 0);
  std::vector<std::int64_t> spans(n, SpanRecorder::kNone);
  std::vector<std::size_t> outstanding;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) /
                                                     rate_rps));
  };
  std::size_t next = 0;
  Clock::time_point drain_deadline = Clock::time_point::max();
  Clock::time_point last_done = start;
  while (next < n || !outstanding.empty()) {
    Clock::time_point now = Clock::now();
    if (next < n && now >= due(next)) {
      Served& sv = out.served[next];
      sv.due = due(next);
      spans[next] = rec.record("request", sv.due, sv.due, SpanRecorder::kNone,
                               static_cast<std::int64_t>(next));
      const Planned& p = s.requests[next];
      sv.submitted = Clock::now();
      ids[next] = eng.submit(engine::Job(p.graph, p.request));
      const Clock::time_point after = Clock::now();
      rec.record("engine.submit", sv.submitted, after, spans[next],
                 static_cast<std::int64_t>(next));
      outstanding.push_back(next++);
      if (next == n)
        drain_deadline = after + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(drain_limit_s));
      continue;
    }
    for (std::size_t j = 0; j < outstanding.size();) {
      const std::size_t i = outstanding[j];
      std::optional<engine::PortfolioOutcome> o = eng.poll(ids[i]);
      if (!o) {
        ++j;
        continue;
      }
      Served& sv = out.served[i];
      // The engine's job timer starts inside submit() and stops when the
      // answer is published; anchored at the submit call it times the
      // completion far more finely than the poll that observes it, which
      // still bounds it from above.
      const Clock::time_point observed = Clock::now();
      sv.done = std::min(
          observed, sv.submitted + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(o->seconds)));
      last_done = std::max(last_done, sv.done);
      sv.outcome = std::move(o);
      outstanding[j] = outstanding.back();
      outstanding.pop_back();
      if (rec.enabled())
        rec.close(spans[i],
                  "\"path\": \"" +
                      std::string(engine::to_string(sv.outcome->decision.path)) +
                      "\", \"winner\": \"" + sv.outcome->winner +
                      "\", \"coalesced\": " +
                      (sv.outcome->coalesced ? "true" : "false"),
                  sv.done);
    }
    now = Clock::now();
    if (now >= drain_deadline) break;
    const Clock::time_point wake = now + std::chrono::microseconds(50);
    std::this_thread::sleep_until(next < n ? std::min(wake, due(next)) : wake);
  }
  // Whatever is still outstanding at the drain limit counts as failed; wait
  // for it so no engine work outlives the run.
  for (const std::size_t i : outstanding) (void)eng.wait(ids[i]);
  out.after = eng.stats();
  out.wall_s = seconds_between(start, last_done);
  return out;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Checks every answer; returns latencies in ms (failed = +inf) and fills
/// the quality metrics.
struct Quality {
  std::vector<double> latency_ms;
  double answered = 0, failed = 0, feasible = 0, cut_sum = 0;
  double gap_worst = 1;
};

Quality assess(const Schedule& s, StreamRun& run) {
  Quality q;
  for (std::size_t i = 0; i < run.served.size(); ++i) {
    Served& sv = run.served[i];
    const Planned& p = s.requests[i];
    const bool answered = sv.outcome && sv.outcome->status.is_ok() &&
                          !sv.outcome->winner.empty();
    if (answered) {
      sv.check = check_answer(*p.graph, p.request, sv.outcome->best);
      sv.valid = sv.check.valid;
      if (!sv.valid)
        std::fprintf(stderr, "invalid answer to request %zu: %s\n", i,
                     sv.check.reason.c_str());
    }
    if (!sv.valid) {
      q.failed += 1;
      q.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    q.answered += 1;
    q.latency_ms.push_back(seconds_between(sv.due, sv.done) * 1e3);
    q.cut_sum += static_cast<double>(sv.check.total_cut);
    q.feasible += sv.check.feasible ? 1 : 0;
    const auto opt = s.optimum.find(p.graph.get());
    if (opt != s.optimum.end() && opt->second > 0)
      q.gap_worst = std::max(q.gap_worst,
                             static_cast<double>(sv.check.total_cut) /
                                 static_cast<double>(opt->second));
  }
  return q;
}

std::size_t request_count(const Options& opt, double rate_rps) {
  return std::max<std::size_t>(
      10, static_cast<std::size_t>(rate_rps * opt.seconds + 0.5));
}

engine::EngineOptions engine_options() {
  engine::EngineOptions o;
  o.similarity.enabled = true;
  return o;
}

/// Engine-layer metrics of one traced stream.
void engine_layer(const StreamRun& run, const Quality& q, SpanRecorder& rec,
                  LayerValues& v) {
  std::vector<double> submit_ms;
  for (double s : rec.self_seconds("engine.submit")) submit_ms.push_back(s * 1e3);
  v["engine.submit_ms_p50"] = median(submit_ms);
  v["engine.submit_ms_max"] =
      submit_ms.empty() ? 0 : *std::max_element(submit_ms.begin(), submit_ms.end());

  std::vector<double> exact_ms, sim_ms, full_ms, queue_wait_ms;
  double exact = 0, sim = 0, full = 0, coalesced = 0, lag_max = 0;
  double member_total = 0;
  std::map<std::string, double> wins, busy;
  for (std::size_t i = 0; i < run.served.size(); ++i) {
    const Served& sv = run.served[i];
    lag_max = std::max(lag_max, seconds_between(sv.due, sv.submitted) * 1e3);
    if (!sv.valid) continue;
    const double ms = q.latency_ms[i];
    const engine::PortfolioOutcome& o = *sv.outcome;
    if (o.coalesced) {
      coalesced += 1;
    } else if (o.decision.path == engine::AdmissionDecision::Path::kExactHit) {
      exact += 1;
      exact_ms.push_back(ms);
    } else if (o.decision.path == engine::AdmissionDecision::Path::kSimilarity) {
      sim += 1;
      sim_ms.push_back(ms);
    } else if (o.decision.path ==
               engine::AdmissionDecision::Path::kFullPortfolio) {
      full += 1;
      full_ms.push_back(ms);
      double slowest = 0;
      for (const engine::MemberOutcome& m : o.members) {
        if (!m.ran) continue;
        slowest = std::max(slowest, m.seconds);
        member_total += m.seconds;
        busy[m.algorithm] += m.seconds;
        if (m.won) wins[m.algorithm] += 1;
      }
      queue_wait_ms.push_back(std::max(0.0, ms - slowest * 1e3));
    }
  }
  const double answered = q.answered;
  v["engine.latency_ms_p50.exact_hit"] = median(exact_ms);
  v["engine.latency_ms_p50.similarity"] = median(sim_ms);
  v["engine.latency_ms_p95.full"] = quantile(full_ms, 0.95);
  v["engine.path_share.exact_hit"] = answered > 0 ? exact / answered : 0;
  v["engine.path_share.similarity"] = answered > 0 ? sim / answered : 0;
  v["engine.path_share.full"] = answered > 0 ? full / answered : 0;
  v["engine.path_share.coalesced"] = answered > 0 ? coalesced / answered : 0;
  v["engine.cache.hit_rate"] =
      ratio(run.after.cache.hits - run.before.cache.hits,
            run.after.cache.hits + run.after.cache.misses -
                run.before.cache.hits - run.before.cache.misses);
  v["engine.coarsen_cache.hit_rate"] =
      ratio(run.after.coarsening.hits - run.before.coarsening.hits,
            run.after.coarsening.hits + run.after.coarsening.misses -
                run.before.coarsening.hits - run.before.coarsening.misses);
  v["engine.similarity.near_hit_rate"] =
      ratio(run.after.similarity.near_hits - run.before.similarity.near_hits,
            run.after.similarity.probes - run.before.similarity.probes);
  v["engine.member_s_per_full_job"] = full > 0 ? member_total / full : 0;
  v["engine.queue_wait_ms_p95"] = quantile(queue_wait_ms, 0.95);
  const double pool = ppnpart::support::ThreadPool::global().size();
  v["engine.pool_busy_share"] =
      run.wall_s > 0 ? member_total / (run.wall_s * pool) : 0;
  for (const char* m : kMembers) {
    const std::string prefix = std::string("engine.member.") + m;
    v[prefix + ".win_share"] = full > 0 ? wins[m] / full : 0;
    v[prefix + ".busy_share"] = member_total > 0 ? busy[m] / member_total : 0;
  }
  v["engine.gen_lag_ms_max"] = lag_max;
}

}  // namespace

double service_rate(bool toy) { return toy ? 10.0 : 8.0; }

Result run_service_mix(const Options& opt, double rate_rps, SpanRecorder& rec) {
  const std::size_t count = request_count(opt, rate_rps);
  const double drain_limit_s = 60;

  // Set-up: inputs, exact references, engine construction and warm-up,
  // several times; the last engine serves the stream.
  std::vector<double> setup;
  Schedule schedule;
  std::unique_ptr<engine::Engine> eng;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    eng.reset();
    schedule = make_schedule(opt.seed, count, opt.toy,
                             exact_family(opt.toy ? 8 : 64));
    eng = std::make_unique<engine::Engine>(engine_options());
    warm_up(*eng, opt.seed);
    setup.push_back(seconds_between(t0, Clock::now()));
  }

  SpanRecorder untraced(false);
  StreamRun run = run_stream(*eng, schedule, rate_rps, drain_limit_s, untraced);
  Quality q = assess(schedule, run);
  Result res;
  res.attempted = schedule.requests.size();
  res.failed = static_cast<std::uint64_t>(q.failed);
  res.correct = res.failed == 0;

  if (!opt.trace) {
    // solve_s: how long the portfolio takes once it runs — the slowest
    // member, without the wait before it started — averaged over the fresh
    // requests, whose count per size class is the same in every run.
    std::vector<double> full_s;
    for (std::size_t i = 0; i < run.served.size(); ++i) {
      const Served& sv = run.served[i];
      if (!sv.valid || schedule.requests[i].kind != Kind::kFresh ||
          sv.outcome->decision.path !=
              engine::AdmissionDecision::Path::kFullPortfolio)
        continue;
      double slowest = 0;
      for (const engine::MemberOutcome& m : sv.outcome->members)
        if (m.ran) slowest = std::max(slowest, m.seconds);
      full_s.push_back(slowest);
    }
    res.add("setup_s", median(setup), "s");
    res.add("solve_s", mean(full_s), "s");
    res.add("latency_p50_ms", quantile(q.latency_ms, 0.5), "ms");
    res.add("latency_p95_ms", quantile(q.latency_ms, 0.95), "ms");
    res.add("throughput_rps", run.wall_s > 0 ? q.answered / run.wall_s : 0,
            "1/s");
    res.add("cut_mean", q.answered > 0 ? q.cut_sum / q.answered : 0, "count");
    res.add("feasible_share", q.answered > 0 ? q.feasible / q.answered : 0,
            "share");
    res.add("exact_gap_worst", q.gap_worst, "ratio");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  // Traced run: the same schedule again on a fresh engine with spans on;
  // the untraced pass above is the overhead baseline.
  eng = std::make_unique<engine::Engine>(engine_options());
  warm_up(*eng, opt.seed);
  StreamRun traced = run_stream(*eng, schedule, rate_rps, drain_limit_s, rec);
  const Quality tq = assess(schedule, traced);
  res.attempted += schedule.requests.size();
  res.failed += static_cast<std::uint64_t>(tq.failed);
  res.correct = res.failed == 0;

  LayerValues v;
  engine_layer(traced, tq, rec, v);
  const auto mean_finite = [](const std::vector<double>& xs) {
    double sum = 0, k = 0;
    for (double x : xs)
      if (std::isfinite(x)) sum += x, k += 1;
    return k > 0 ? sum / k : 0.0;
  };
  const double base = mean_finite(q.latency_ms);
  v["trace_overhead_share"] =
      base > 0 ? (mean_finite(tq.latency_ms) - base) / base : 0;
  v["failed_share"] =
      static_cast<double>(res.failed) / static_cast<double>(res.attempted);

  // Partition layer on the stream's first graph of the largest class, with
  // its request, as the engine's serial members see it.
  const Planned* large = nullptr;
  for (const Planned& p : schedule.requests)
    if (p.kind == Kind::kFresh &&
        (large == nullptr || p.graph->num_nodes() > large->graph->num_nodes()))
      large = &p;
  part::Workspace ws;
  part::PartitionRequest req = large->request;
  req.workspace = &ws;
  part::GpPartitioner gp;
  (void)gp.run(*large->graph, req);  // warm the workspace
  part::PhaseProfile phases;
  req.phases = &phases;
  const std::uint64_t growths = ws.stats().growths;
  const std::int64_t span = rec.open("partition.gp_run");
  const part::GpResult r = gp.run_detailed(*large->graph, req);
  rec.close(span);
  v.merge(gp_run_layers(r, phases, ws.stats().growths - growths));
  req.phases = nullptr;
  req.workspace = nullptr;
  probe_kernels(*large->graph, req, 1, rec, v);

  // Warm-start layers on the stream's near-twin pairs whose base was
  // answered.
  std::vector<TwinPair> pairs;
  for (std::size_t i = 0; i < schedule.requests.size() && pairs.size() < 24; ++i) {
    const Planned& p = schedule.requests[i];
    if (p.kind != Kind::kNear) continue;
    const Served& base = traced.served[static_cast<std::size_t>(p.base)];
    if (!base.valid) continue;
    pairs.push_back({schedule.requests[static_cast<std::size_t>(p.base)].graph.get(),
                     p.graph.get(), &base.outcome->best.partition, p.request});
  }
  probe_warm_start(pairs, rec, v);
  emit_layer_metrics(v, res);
  return res;
}

}  // namespace perfbench
