// pn100k_serial / pn100k_parallel: GP on the tracked 100k-node process
// network, K=8, back-to-back runs through one reused part::Workspace.
//
// The inputs are pinned and do not depend on the workload seed: the tracked
// instance and request (generator seed 100123, request seed 99) are the ones
// ROADMAP targets and known facts are stated on, and GP's time and cut move
// by 10-20% from one random instance or request seed to the next, so a
// seed-drawn instance would bury a 5% change. exact_gap_worst runs the
// workload's GP configuration on the fixed 12-node exact-checked family.

#include <cstdio>

#include "partition/coarsen.hpp"
#include "partition/gp.hpp"
#include "partition/phase_profile.hpp"
#include "partition/workspace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace part = ppnpart::part;

namespace {

constexpr NodeId kNodes = 100000;
constexpr NodeId kToyNodes = 5000;

part::GpOptions tracked_gp_options() {
  part::GpOptions o;
  o.max_cycles = 4;
  return o;
}

}  // namespace

Result run_pn(const Options& opt, std::uint32_t threads, SpanRecorder& rec) {
  const NodeId nodes = opt.toy ? kToyNodes : kNodes;
  const int family = opt.toy ? 8 : 64;

  // Set-up: input generation and the exact references, several times.
  std::vector<double> setup;
  Graph g;
  part::PartitionRequest req;
  std::vector<ExactRef> refs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    g = tracked_pn_graph(nodes);
    req = tracked_pn_request(g);
    req.threads = threads;
    refs = exact_family(family);
    setup.push_back(seconds_between(t0, Clock::now()));
  }

  part::Workspace ws;
  req.workspace = &ws;
  part::GpPartitioner gp(tracked_gp_options());

  Result res;
  std::vector<double> solve, solve_traced, cuts;
  std::vector<LayerValues> traced_runs;
  double feasible = 0;
  part::Partition last;
  // The traced run alternates untraced and traced GP runs, so the tracing
  // overhead is measured against the same warm workspace.
  const int min_runs = opt.trace ? 4 : 3;
  const Clock::time_point loop_start = Clock::now();
  Clock::time_point loop_end = loop_start;
  for (int run = 0;
       run < min_runs || seconds_between(loop_start, Clock::now()) < opt.seconds;
       ++run) {
    const bool traced = opt.trace && run % 2 == 1;
    part::PhaseProfile phases;
    req.phases = traced ? &phases : nullptr;
    const std::uint64_t growths_before = ws.stats().growths;
    const std::int64_t span =
        traced ? rec.open("partition.gp_run", SpanRecorder::kNone, run)
               : SpanRecorder::kNone;
    const Clock::time_point t0 = Clock::now();
    part::GpResult r = gp.run_detailed(g, req);
    loop_end = Clock::now();
    const double dt = seconds_between(t0, loop_end);
    ++res.attempted;
    const AnswerCheck check = check_answer(g, req, r);
    if (!check.valid) {
      ++res.failed;
      std::fprintf(stderr, "invalid answer: %s\n", check.reason.c_str());
      rec.close(span);
      continue;
    }
    if (traced) {
      rec.close(span, "\"cut\": " + std::to_string(check.total_cut) +
                          ", \"cycles\": " + std::to_string(r.cycles_used),
                loop_end);
      solve_traced.push_back(dt);
      traced_runs.push_back(
          gp_run_layers(r, phases, ws.stats().growths - growths_before));
      continue;
    }
    solve.push_back(dt);
    cuts.push_back(static_cast<double>(check.total_cut));
    feasible += check.feasible ? 1 : 0;
    last = r.partition;
  }
  const double loop_s = seconds_between(loop_start, loop_end);
  req.phases = nullptr;

  // The workload's partitioner configuration on the exact-checkable family.
  double gap_worst = 1;
  for (const ExactRef& ref : refs) {
    if (ref.optimum <= 0) continue;
    part::PartitionRequest small = ref.inst.request;
    small.threads = threads;
    part::GpPartitioner small_gp(tracked_gp_options());
    const part::PartitionResult r = small_gp.run(ref.inst.graph, small);
    ++res.attempted;
    const AnswerCheck check = check_answer(ref.inst.graph, small, r);
    if (!check.valid) {
      ++res.failed;
      std::fprintf(stderr, "invalid answer: %s\n", check.reason.c_str());
      continue;
    }
    gap_worst = std::max(gap_worst, static_cast<double>(check.total_cut) /
                                        static_cast<double>(ref.optimum));
  }
  res.correct = res.failed == 0;

  if (!opt.trace) {
    const double answered = static_cast<double>(solve.size());
    res.add("setup_s", median(setup), "s");
    res.add("solve_s", median(solve), "s");
    res.add("latency_p50_ms", median(solve) * 1e3, "ms");
    res.add("latency_p95_ms", quantile(solve, 0.95) * 1e3, "ms");
    res.add("throughput_rps", loop_s > 0 ? answered / loop_s : 0, "1/s");
    res.add("cut_mean", mean(cuts), "count");
    res.add("feasible_share", answered > 0 ? feasible / answered : 0, "share");
    res.add("exact_gap_worst", gap_worst, "ratio");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  LayerValues values = median_of(traced_runs);
  probe_kernels(g, req, threads, rec, values);
  if (!last.assignments().empty()) {
    // Near-twins of the tracked instance: 1% drift, three draws.
    std::vector<Graph> arrivals;
    for (std::uint64_t i = 0; i < 3; ++i) {
      ppnpart::support::Rng rng(opt.seed * 31 + i);
      arrivals.push_back(near_identical_arrival(g, 0.01, rng));
    }
    std::vector<TwinPair> pairs;
    for (const Graph& a : arrivals) pairs.push_back({&g, &a, &last, req});
    probe_warm_start(pairs, rec, values);
  }
  const double untraced = median(solve);
  values["trace_overhead_share"] =
      untraced > 0 ? (median(solve_traced) - untraced) / untraced : 0;
  values["failed_share"] =
      static_cast<double>(res.failed) / static_cast<double>(res.attempted);
  emit_layer_metrics(values, res);
  return res;
}

int self_check() {
  const Graph g = tracked_pn_graph(kNodes);
  int failures = 0;
  const auto expect = [&](const char* what, double got, double want) {
    const bool ok = got == want;
    std::printf("self-check %-40s got %10.0f expected %10.0f  %s\n", what, got,
                want, ok ? "ok" : "FAIL");
    failures += ok ? 0 : 1;
  };
  struct Fact {
    std::uint32_t threads;
    const char* cut_name;
    double cut;
    const char* coarsest_name;
    double coarsest;
  };
  // ROADMAP item 1 (max_cycles=4, tracked constraints). GP's own cycle-0
  // coarsest level on the serial path is 91 nodes; the 76 quoted there is
  // a standalone part::coarsen with Rng(1), checked separately below.
  const Fact facts[] = {
      {1, "pn100k_serial cut_mean", 87940, "pn100k_serial coarsest_nodes", 91},
      {4, "pn100k_parallel cut_mean", 113586, "pn100k_parallel coarsest_nodes",
       6597},
  };
  for (const Fact& f : facts) {
    part::PartitionRequest req = tracked_pn_request(g);
    req.threads = f.threads;
    part::GpPartitioner gp(tracked_gp_options());
    const part::GpResult r = gp.run_detailed(g, req);
    const AnswerCheck check = check_answer(g, req, r);
    expect(f.cut_name, static_cast<double>(check.total_cut), f.cut);
    expect(f.coarsest_name,
           gp_run_layers(r, part::PhaseProfile{}, 0)["partition.coarsest_nodes"],
           f.coarsest);
    if (!check.valid) {
      std::printf("self-check answer invalid: %s\n", check.reason.c_str());
      ++failures;
    }
  }
  ppnpart::support::Rng rng(1);
  const part::Hierarchy h = part::coarsen(g, part::CoarsenOptions{}, rng);
  expect("standalone coarsen(Rng(1)) coarsest", h.coarsest().num_nodes(), 76);
  return failures;
}

}  // namespace perfbench
