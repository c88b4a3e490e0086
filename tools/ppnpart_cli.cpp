// ppnpart — the command-line partitioner this paper describes as "a tool to
// automatically map tasks to FPGAs".
//
// Input sources (exactly one):
//   --graph FILE        METIS .graph file (node+edge weights supported)
//   --matrix FILE       dense symmetric adjacency matrix (the paper's
//                       MATLAB input convention)
//   --workload NAME     built-in PPN workload (see --list-workloads)
//   --paper N           paper experiment instance 1 | 2 | 3
//
// Core options:
//   --algorithm NAME    gp | metislike | nlevel | kl | spectral | tabu |
//                       annealing | genetic | exact | random   (default gp)
//   --k N               number of FPGAs / parts                (default 4)
//   --rmax W            per-FPGA resource budget               (default inf)
//   --bmax W            per-link bandwidth budget              (default inf)
//   --seed S            PRNG seed                              (default 1)
//
// Engine (portfolio) mode — any of these switches it on:
//   --portfolio SPEC    race a comma-separated portfolio of algorithms
//                       ("default" = gp,metislike,annealing,tabu; when
//                       omitted, --algorithm runs as a 1-member portfolio)
//   --time-budget-ms N  per-job wall-clock budget (cooperative)
//   --threads-per-job N chunk count of GP's label-propagation scan in a
//                       direct run (default 1, 0 = auto); changes speed
//                       only, never the answer. Engine members run their
//                       chunks inline on pool workers
//   --jobs N            batch N jobs with seeds seed..seed+N-1 and report
//                       the best answer plus engine throughput/cache stats
//   --similarity on|off similarity-aware admission (default off): arrivals
//                       near-identical to a recently served graph are
//                       diffed into a delta and warm-started off-thread
//                       instead of paying a full portfolio run; concurrent
//                       near-twins coalesce behind one full run; the engine
//                       stats line reports exact hits (cache_hits),
//                       near-hits, declines, deferred and parked
//
// Overload protection & fault injection (PR 8):
//   --queue-cap N       bounded admission: at most N stage-3 jobs pending;
//                       0 (default) = unbounded legacy behaviour. With a
//                       cap set, submit() never blocks — overflow is shed
//                       with a typed error, and rising queue depth walks
//                       the degradation ladder (full portfolio ->
//                       cheap-members-only -> GP-only -> projected answer)
//   --shed POLICY       reject_new | drop_oldest | deadline_aware
//                       (what a full queue does; default reject_new)
//   --faults SPEC       deterministic fault injection, e.g.
//                       "seed=42,rate=0.25,sites=member.run+cache.insert"
//                       ("off" disarms; sites=all = every seam). Injected
//                       failures take the same paths real ones do; the
//                       per-site check/fire counts print to stderr at exit
//
// Diff mode — reconstruct an edit script from two concrete graphs:
//   --diff OLD NEW      (positional METIS .graph files) print the minimal
//                       edit script turning OLD into NEW under stable-id
//                       alignment, in exactly the --delta replay grammar:
//                       `ppnpart --graph OLD --delta SCRIPT` replays it.
//                       The script is verified (replay reconstructs NEW
//                       bit-identically) before anything is printed; --out
//                       redirects the script to a file.
//
// Delta replay mode — evolving networks (PR 4):
//   --delta FILE        after a full initial run, replay an edit script
//                       against the input network; each `commit` applies
//                       the accumulated delta through Engine::repartition
//                       (incremental warm-started refinement, portfolio
//                       fallback past the thresholds) and reports one line.
//                       Script grammar, one op per line ('#' comments):
//                         addnode [W]      new process (id printed order:
//                                          n, n+1, ... per commit window)
//                         rmnode U         retire process U (strands edges)
//                         nodew U W        set resource weight
//                         addedge U V [W]  add W to channel (create at W)
//                         rmedge U V       delete channel
//                         setedge U V W    set channel weight
//                         commit           repartition now
//                       Ids refer to the current (post-previous-commit)
//                       graph; trailing ops auto-commit at EOF.
//
// Like the `summary` line, the `engine ...` stats line is machine-readable
// output and prints even under --quiet (which suppresses only the
// human-readable report).
//
// Outputs:
//   --out FILE          one part id per line (node order)
//   --dot FILE          colour-clustered DOT of the partitioned network
//   --summary           one-line machine-readable result (always printed)
//
// Observability (PR 6):
//   --trace FILE        Chrome trace_event JSON timeline of the whole run —
//                       per-job admission spans and decision records, member
//                       races, per-level coarsen/initial/refine phases; load
//                       in chrome://tracing or https://ui.perfetto.dev
//   --metrics           print the process metrics registry (admission-path
//                       counters, per-member win/loss, latency histograms)
//
// Exit codes: 0 feasible (or unconstrained), 2 infeasible, 1 usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/portfolio.hpp"
#include "graph/diff.hpp"
#include "graph/io.hpp"
#include "partition/exact.hpp"
#include "partition/partitioner.hpp"
#include "partition/report.hpp"
#include "ppn/network.hpp"
#include "ppn/paper_instances.hpp"
#include "ppn/workloads.hpp"
#include "support/cli.hpp"
#include "support/fault_injection.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"
#include "viz/dot.hpp"

namespace {

using namespace ppnpart;

int fail(const char* message) {
  std::fprintf(stderr, "ppnpart: %s (try --help)\n", message);
  return 1;
}

/// Serializes a GraphDelta in the --delta replay grammar, in a replay-safe
/// order: node adds (minting extended ids in order), node reweights, edge
/// ops in script order, removals last — every op references a live node at
/// replay-build time, and apply() strands ops on removed endpoints
/// regardless of position, so the replay reproduces the delta exactly.
void emit_delta_script(std::ostream& out, const graph::GraphDelta& d) {
  for (const graph::Weight w : d.added_node_weights())
    out << "addnode " << w << "\n";
  for (const auto& [u, w] : d.node_weight_edits())
    out << "nodew " << u << " " << w << "\n";
  for (const auto& op : d.edge_edits()) {
    switch (op.kind) {
      case graph::GraphDelta::EdgeOpKind::kAdd:
        out << "addedge " << op.u << " " << op.v << " " << op.w << "\n";
        break;
      case graph::GraphDelta::EdgeOpKind::kRemove:
        out << "rmedge " << op.u << " " << op.v << "\n";
        break;
      case graph::GraphDelta::EdgeOpKind::kSet:
        out << "setedge " << op.u << " " << op.v << " " << op.w << "\n";
        break;
    }
  }
  for (const graph::NodeId u : d.removed_nodes()) out << "rmnode " << u << "\n";
  out << "commit\n";
}

/// --diff OLD NEW: reconstruct, verify, print. Returns the process exit
/// code.
int run_diff_mode(const std::string& old_path, const std::string& new_path,
                  const std::string& out_path) {
  auto read = [](const std::string& path, graph::Graph& g) -> int {
    auto result = graph::read_metis_file(path);
    if (!result) {
      std::fprintf(stderr, "ppnpart: %s: %s\n", path.c_str(),
                   result.status().message().c_str());
      return 1;
    }
    g = std::move(result).value();
    return 0;
  };
  graph::Graph old_g, new_g;
  if (int rc = read(old_path, old_g); rc != 0) return rc;
  if (int rc = read(new_path, new_g); rc != 0) return rc;

  const graph::GraphDelta d = graph::diff(old_g, new_g);
  // The replay contract, checked before a single line is printed: applying
  // the script to OLD must reconstruct NEW bit-identically.
  const graph::GraphDelta::Applied applied = d.apply(old_g);
  if (!graph::bit_identical(applied.graph, new_g)) {
    std::fprintf(stderr,
                 "ppnpart: internal error: diff replay does not reconstruct "
                 "'%s'\n",
                 new_path.c_str());
    return 1;
  }

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) return fail("cannot open --out file");
  }
  std::ostream& out = out_path.empty() ? std::cout : file;
  out << "# ppnpart --diff " << old_path << " " << new_path << "\n"
      << "# replay with: ppnpart --graph " << old_path << " --delta THIS\n";
  emit_delta_script(out, d);

  std::fprintf(
      stderr,
      "ppnpart: diff %s (n=%u) -> %s (n=%u): %zu ops "
      "(+%u/-%u nodes, %zu edge ops)\n",
      old_path.c_str(), old_g.num_nodes(), new_path.c_str(),
      new_g.num_nodes(), d.num_ops(), d.nodes_added(), d.nodes_removed(),
      d.edge_ops());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "ppnpart — constraint-aware multi-FPGA process-network partitioner");
  args.add_string("graph", "", "METIS .graph input file");
  args.add_string("matrix", "", "dense adjacency-matrix input file");
  args.add_string("workload", "", "built-in workload name");
  args.add_int("paper", 0, "paper experiment instance (1|2|3)");
  args.add_flag("list-workloads", "print available workload names and exit");
  args.add_string("algorithm", "gp", "partitioning algorithm");
  args.add_int("k", 4, "number of parts (FPGAs)");
  args.add_int("rmax", 0, "per-FPGA resource budget (0 = unlimited)");
  args.add_int("bmax", 0, "per-link bandwidth budget (0 = unlimited)");
  args.add_int("seed", 1, "PRNG seed");
  args.add_string("portfolio", "",
                  "engine mode: comma-separated algorithms to race "
                  "('default' = gp,metislike,annealing,tabu)");
  args.add_int("time-budget-ms", 0,
               "engine mode: per-job wall-clock budget (0 = unlimited)");
  args.add_int("jobs", 1,
               "engine mode: batch N jobs with seeds seed..seed+N-1");
  args.add_int("threads-per-job", 1,
               "chunks of GP's label-propagation scan in a direct run "
               "(0 = auto); changes speed only, never the answer");
  args.add_string("delta", "",
                  "replay an edit script against the input network "
                  "(incremental repartitioning per commit)");
  args.add_flag("diff",
                "emit the edit script turning positional OLD into NEW "
                "(METIS files), consumable by --delta");
  args.add_string("similarity", "off",
                  "engine mode: similarity-aware admission (on|off) — "
                  "near-identical arrivals are diffed and warm-started");
  args.add_int("queue-cap", 0,
               "engine mode: bounded admission queue capacity "
               "(0 = unbounded); overflow is shed with a typed error");
  args.add_string("shed", "reject_new",
                  "engine mode: full-queue policy — reject_new | "
                  "drop_oldest | deadline_aware");
  args.add_string("faults", "",
                  "deterministic fault injection spec: "
                  "seed=U,rate=F,sites=member.run+... ('off' disarms)");
  args.add_string("out", "", "write partition vector (one part id per line)");
  args.add_string("dot", "", "write colour-clustered DOT file");
  args.add_flag("quiet", "suppress the human-readable report");
  args.add_flag("report", "print the per-part / hot-pair analysis table");
  args.add_string("trace", "",
                  "record a Chrome trace_event JSON timeline of the run "
                  "(admission decisions, member races, per-level multilevel "
                  "phases) to FILE; open in chrome://tracing or Perfetto");
  args.add_flag("metrics",
                "print the process metrics registry (engine counters and "
                "latency histograms) after the run");

  if (auto status = args.parse(argc, argv); !status.is_ok()) {
    std::fprintf(stderr, "ppnpart: %s\n", status.message().c_str());
    return 1;
  }
  if (args.help_requested()) {
    std::printf("%s", args.help_text().c_str());
    return 0;
  }
  if (args.flag("list-workloads")) {
    for (const std::string& name : ppn::workload_names())
      std::printf("%s\n", name.c_str());
    return 0;
  }

  // Tracing switches on before any work so admission spans from the very
  // first job land in the ring. Under PPN_TRACE_DISABLED nothing records
  // and the file written at exit is an empty (but valid) timeline.
  const std::string trace_path = args.get_string("trace");
  if (!trace_path.empty()) {
#ifdef PPN_TRACE_DISABLED
    std::fprintf(stderr,
                 "ppnpart: warning: tracing is compiled out "
                 "(PPNPART_TRACE_DISABLED); --trace will be empty\n");
#endif
    support::Tracer::global().set_enabled(true);
  }

  const std::string similarity_mode = args.get_string("similarity");
  if (similarity_mode != "on" && similarity_mode != "off")
    return fail("--similarity must be 'on' or 'off'");
  const bool similarity_on = similarity_mode == "on";

  // Overload protection + fault injection knobs, resolved before any work.
  const auto queue_cap =
      static_cast<std::size_t>(std::max<long long>(0, args.get_int("queue-cap")));
  const auto threads_per_job = static_cast<std::uint32_t>(
      std::max<long long>(0, args.get_int("threads-per-job")));
  auto shed_policy = engine::parse_shed_policy(args.get_string("shed"));
  if (!shed_policy.is_ok()) {
    std::fprintf(stderr, "ppnpart: --shed: %s\n",
                 shed_policy.message().c_str());
    return 1;
  }
  bool faults_armed = false;
  if (const std::string faults_spec = args.get_string("faults");
      !faults_spec.empty()) {
    auto plan = support::parse_fault_plan(faults_spec);
    if (!plan.is_ok()) {
      std::fprintf(stderr, "ppnpart: --faults: %s\n",
                   plan.message().c_str());
      return 1;
    }
    if (plan.value().site_mask != 0) {
      if (!support::faults_compiled_in())
        std::fprintf(stderr,
                     "ppnpart: warning: fault injection is compiled out "
                     "(PPNPART_FAULTS_DISABLED); --faults has no effect\n");
      support::FaultInjector::global().arm(plan.value());
      faults_armed = true;
    }
  }

  // ---- Diff mode: two positional graph files, no partitioning at all. ---
  if (args.flag("diff")) {
    if (args.positional().size() != 2)
      return fail("--diff requires two positional graph files: OLD NEW");
    return run_diff_mode(args.positional()[0], args.positional()[1],
                         args.get_string("out"));
  }

  // ---- Resolve the input to a graph (and a network when we have one). ---
  int sources = 0;
  for (const char* opt : {"graph", "matrix", "workload"})
    sources += args.get_string(opt).empty() ? 0 : 1;
  sources += args.get_int("paper") != 0 ? 1 : 0;
  if (sources != 1)
    return fail("exactly one of --graph/--matrix/--workload/--paper required");

  graph::Graph g;
  ppn::ProcessNetwork network;  // populated when the source is a PPN
  bool have_network = false;
  part::Constraints constraints;
  auto k = static_cast<part::PartId>(args.get_int("k"));

  if (!args.get_string("graph").empty()) {
    auto result = graph::read_metis_file(args.get_string("graph"));
    if (!result) {
      // to_string() keeps the code visible (UNAVAILABLE: missing file vs
      // INVALID_ARGUMENT: malformed contents want different user fixes).
      std::fprintf(stderr, "ppnpart: %s\n",
                   result.status().to_string().c_str());
      return 1;
    }
    g = std::move(result).value();
  } else if (!args.get_string("matrix").empty()) {
    std::ifstream in(args.get_string("matrix"));
    if (!in) return fail("cannot open --matrix file");
    auto result = graph::read_adjacency_matrix(in);
    if (!result) {
      std::fprintf(stderr, "ppnpart: %s\n",
                   result.status().to_string().c_str());
      return 1;
    }
    g = std::move(result).value();
  } else if (!args.get_string("workload").empty()) {
    try {
      network = ppn::make_workload(args.get_string("workload"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ppnpart: %s\n", e.what());
      return 1;
    }
    g = ppn::to_graph(network);
    have_network = true;
  } else {
    const int index = static_cast<int>(args.get_int("paper"));
    if (index < 1 || index > 3) return fail("--paper must be 1, 2 or 3");
    ppn::PaperInstance inst = ppn::paper_instance(index);
    network = std::move(inst.network);
    g = std::move(inst.graph);
    constraints = inst.constraints;  // defaults; --rmax/--bmax override
    k = inst.k;
    have_network = true;
  }

  if (args.get_int("k") != 4 || k <= 0)
    k = static_cast<part::PartId>(args.get_int("k"));
  if (k <= 0) return fail("--k must be positive");
  if (args.get_int("rmax") > 0) constraints.rmax = args.get_int("rmax");
  if (args.get_int("bmax") > 0) constraints.bmax = args.get_int("bmax");

  // ---- Run. --------------------------------------------------------------
  part::PartitionRequest request;
  request.k = k;
  request.constraints = constraints;
  request.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  request.threads = threads_per_job;

  const std::string algo_name = args.get_string("algorithm");
  const int num_jobs = std::max(1, static_cast<int>(args.get_int("jobs")));
  const bool engine_mode = !args.get_string("portfolio").empty() ||
                           args.get_int("time-budget-ms") > 0 || num_jobs > 1;
  part::PartitionResult result;
  try {
    if (!args.get_string("delta").empty()) {
      // ---- Delta replay: evolving network, incremental repartitioning. ---
      if (num_jobs > 1)
        return fail("--delta replays one evolving job; it cannot be "
                    "combined with --jobs");
      std::ifstream in(args.get_string("delta"));
      if (!in) return fail("cannot open --delta file");
      std::string spec = args.get_string("portfolio");
      if (spec.empty()) spec = algo_name;
      auto portfolio = engine::Portfolio::parse(spec);
      if (!portfolio.is_ok()) {
        std::fprintf(stderr, "ppnpart: %s\n", portfolio.message().c_str());
        return 1;
      }
      engine::EngineOptions eopts;
      eopts.portfolio = portfolio.value();
      eopts.time_budget_ms =
          static_cast<double>(args.get_int("time-budget-ms"));
      eopts.similarity.enabled = similarity_on;
      eopts.queue_capacity = queue_cap;
      eopts.shed_policy = shed_policy.value();
      engine::Engine eng(eopts);

      auto shared = std::make_shared<const graph::Graph>(std::move(g));
      auto initial = eng.run_one(shared, request);
      if (initial.winner.empty()) {
        std::fprintf(stderr, "ppnpart: every portfolio member failed\n");
        return 1;
      }
      part::PartitionResult current = initial.best;
      if (!args.flag("quiet")) {
        std::printf("portfolio : %s\n", eopts.portfolio.to_string().c_str());
        std::printf("initial   : winner=%s %s\n", initial.winner.c_str(),
                    part::describe(initial.best.metrics, constraints).c_str());
      }

      graph::GraphDelta delta(*shared);
      int step = 0;
      const auto commit = [&]() {
        if (delta.empty()) return;
        const std::size_t ops = delta.num_ops();
        const engine::RepartitionOutcome rep =
            eng.repartition(engine::Job{shared, request}, delta, current);
        shared = rep.graph;
        current = rep.outcome.best;
        if (!args.flag("quiet")) {
          std::printf(
              "delta %-3d : ops=%zu nodes=%u path=%s %s%s\n", step, ops,
              shared->num_nodes(),
              rep.incremental ? "incremental" : "fallback",
              part::describe(current.metrics, constraints).c_str(),
              rep.outcome.from_cache ? " [cache]" : "");
        }
        delta = graph::GraphDelta(*shared);
        ++step;
      };
      std::string line;
      while (std::getline(in, line)) {
        if (const auto hash = line.find('#'); hash != std::string::npos)
          line.resize(hash);
        // Strict tokenization: every operand must be a whole integer and
        // the arity must match exactly — a typo must fail the replay, not
        // silently substitute a default weight.
        std::istringstream ls(line);
        std::vector<std::string> tok;
        for (std::string t; ls >> t;) tok.push_back(std::move(t));
        if (tok.empty()) continue;  // blank line
        long long a = 0, b = 0, c = 0;
        const auto num = [&](std::size_t i, long long& out) {
          char* end = nullptr;
          out = std::strtoll(tok[i].c_str(), &end, 10);
          return end != tok[i].c_str() && *end == '\0';
        };
        const auto node = [](long long x) {
          return static_cast<graph::NodeId>(x);
        };
        const std::string& op = tok[0];
        if (op == "commit" && tok.size() == 1) {
          commit();
        } else if (op == "addnode" &&
                   (tok.size() == 1 || (tok.size() == 2 && num(1, a)))) {
          delta.add_node(tok.size() == 2 ? a : 1);
        } else if (op == "rmnode" && tok.size() == 2 && num(1, a)) {
          delta.remove_node(node(a));
        } else if (op == "nodew" && tok.size() == 3 && num(1, a) &&
                   num(2, b)) {
          delta.set_node_weight(node(a), b);
        } else if (op == "addedge" && tok.size() >= 3 && tok.size() <= 4 &&
                   num(1, a) && num(2, b) &&
                   (tok.size() == 3 || num(3, c))) {
          delta.add_edge(node(a), node(b), tok.size() == 4 ? c : 1);
        } else if (op == "rmedge" && tok.size() == 3 && num(1, a) &&
                   num(2, b)) {
          delta.remove_edge(node(a), node(b));
        } else if (op == "setedge" && tok.size() == 4 && num(1, a) &&
                   num(2, b) && num(3, c)) {
          delta.set_edge_weight(node(a), node(b), c);
        } else {
          std::fprintf(stderr, "ppnpart: bad --delta line: '%s'\n",
                       line.c_str());
          return 1;
        }
      }
      commit();  // trailing ops auto-commit

      const engine::EngineStats stats = eng.stats();
      std::printf(
          "engine deltas=%d incremental=%llu "
          "fallbacks=%llu repart_cache_hits=%llu ws_growths=%llu\n",
          step,
          static_cast<unsigned long long>(stats.repartitions_incremental),
          static_cast<unsigned long long>(stats.repartitions_fallback),
          static_cast<unsigned long long>(stats.repartition_cache_hits),
          static_cast<unsigned long long>(stats.repartition_ws_growths));
      result = std::move(current);
      g = *shared;             // final network for the report/outputs below
      have_network = false;    // node set may have changed; re-derive
    } else if (engine_mode) {
      // ---- Portfolio engine: race algorithms, batch seeds. --------------
      // No --portfolio but engine mode via --jobs/--time-budget-ms: honour
      // the requested --algorithm as a one-member portfolio instead of
      // silently substituting the default racing set.
      std::string spec = args.get_string("portfolio");
      if (spec.empty()) spec = algo_name;
      auto portfolio = engine::Portfolio::parse(spec);
      if (!portfolio.is_ok()) {
        std::fprintf(stderr, "ppnpart: %s\n", portfolio.message().c_str());
        return 1;
      }
      engine::EngineOptions eopts;
      eopts.portfolio = portfolio.value();
      eopts.time_budget_ms =
          static_cast<double>(args.get_int("time-budget-ms"));
      eopts.similarity.enabled = similarity_on;
      eopts.queue_capacity = queue_cap;
      eopts.shed_policy = shed_policy.value();
      engine::Engine eng(eopts);

      // One shared graph for the whole batch: N jobs hold one copy, the
      // engine fingerprints it once, and the coarsening cache shares the
      // multilevel hierarchy across every job and member.
      const auto shared_graph = std::make_shared<const graph::Graph>(g);
      std::vector<engine::Job> batch;
      std::vector<std::uint64_t> job_seeds;
      batch.reserve(num_jobs);
      job_seeds.reserve(num_jobs);
      for (int j = 0; j < num_jobs; ++j) {
        engine::Job job{shared_graph, request};
        job.request.seed = request.seed + static_cast<std::uint64_t>(j);
        job_seeds.push_back(job.request.seed);
        batch.push_back(std::move(job));
      }
      support::Timer batch_timer;
      const auto outcomes = eng.run_batch(std::move(batch));
      const double batch_seconds = batch_timer.seconds();

      // Best job across the batch; jobs without an answer (shed with a
      // typed error, or every member failed) must not be compared.
      std::size_t best_job = outcomes.size();
      for (std::size_t j = 0; j < outcomes.size(); ++j) {
        if (outcomes[j].winner.empty()) continue;
        if (best_job == outcomes.size() ||
            part::goodness_of(outcomes[j].best) <
                part::goodness_of(outcomes[best_job].best))
          best_job = j;
      }
      if (best_job == outcomes.size()) {
        // Branch on WHY: resource exhaustion asks for a retry with a larger
        // --queue-cap (or less load); an internal error does not.
        const support::StatusCode code = outcomes.empty()
                                             ? support::StatusCode::kInternal
                                             : outcomes[0].status.code();
        if (code == support::StatusCode::kResourceExhausted ||
            code == support::StatusCode::kDeadlineExceeded)
          std::fprintf(stderr,
                       "ppnpart: every job was shed (%s) — raise "
                       "--queue-cap or reduce --jobs\n",
                       support::to_string(code));
        else
          std::fprintf(stderr, "ppnpart: every portfolio member failed\n");
        return 1;
      }
      const engine::PortfolioOutcome& winner_out = outcomes[best_job];
      result = winner_out.best;

      if (!args.flag("quiet")) {
        std::printf("portfolio : %s\n", eopts.portfolio.to_string().c_str());
        for (std::size_t j = 0; j < outcomes.size(); ++j) {
          if (outcomes[j].winner.empty()) {
            // No answer: the typed status says why (shed queue, expired
            // deadline, every member failed).
            std::printf("job %-5zu : seed=%llu error=%s\n", j,
                        static_cast<unsigned long long>(job_seeds[j]),
                        outcomes[j].status.to_string().c_str());
            continue;
          }
          const char* rung_tag =
              outcomes[j].decision.rung ==
                      engine::AdmissionDecision::DegradeRung::kFull
                  ? ""
                  : " [degraded]";
          std::printf(
              "job %-5zu : seed=%llu winner=%s %s%s%s%s\n", j,
              static_cast<unsigned long long>(job_seeds[j]),
              outcomes[j].winner.c_str(),
              part::describe(outcomes[j].best.metrics, constraints).c_str(),
              outcomes[j].from_cache ? " [cache]" : "",
              outcomes[j].similarity ? " [similarity]" : "", rung_tag);
        }
      }
      const engine::EngineStats stats = eng.stats();
      // Admission counters: exact hits are cache_hits, near-hits are
      // similarity warm starts, declines are probes routed to the full
      // path; sim_deferred counts probe-time matches whose warm start was
      // handed straight to the pool, sim_parked counts near-twin arrivals
      // that coalesced behind an in-flight leader (disjoint; parked
      // followers' warm starts also run on the pool once the leader
      // lands). sim_* stay 0 under --similarity off.
      std::printf(
          "engine jobs=%zu seconds=%.4f throughput=%.2f "
          "cache_hits=%llu "
          "members_run=%llu members_skipped=%llu members_failed=%llu "
          "coalesced=%llu fingerprints=%llu coarsen_hits=%llu "
          "coarsen_builds=%llu sim_probes=%llu sim_near_hits=%llu "
          "sim_declines=%llu sim_deferred=%llu sim_parked=%llu "
          "rejected=%llu shed=%llu degraded=%llu\n",
          outcomes.size(), batch_seconds,
          batch_seconds > 0 ? outcomes.size() / batch_seconds : 0.0,
          static_cast<unsigned long long>(stats.cache.hits),
          static_cast<unsigned long long>(stats.members_run),
          static_cast<unsigned long long>(stats.members_skipped),
          static_cast<unsigned long long>(stats.members_failed),
          static_cast<unsigned long long>(stats.jobs_coalesced),
          static_cast<unsigned long long>(stats.graph_fingerprints_computed),
          static_cast<unsigned long long>(stats.coarsening.hits),
          static_cast<unsigned long long>(stats.coarsening.insertions),
          static_cast<unsigned long long>(stats.similarity.probes),
          static_cast<unsigned long long>(stats.similarity.near_hits),
          static_cast<unsigned long long>(stats.similarity.declines),
          static_cast<unsigned long long>(stats.similarity.deferred),
          static_cast<unsigned long long>(stats.similarity.parked),
          static_cast<unsigned long long>(stats.jobs_rejected),
          static_cast<unsigned long long>(stats.jobs_shed),
          static_cast<unsigned long long>(stats.jobs_degraded));
    } else if (algo_name == "exact") {
      part::ExactOptions exact_opts;
      const part::ExactResult exact =
          part::exact_min_cut(g, k, constraints, exact_opts);
      if (!exact.found) {
        std::fprintf(stderr, "ppnpart: exact search found no assignment\n");
        return 2;
      }
      result.partition = exact.partition;
      result.algorithm = "Exact";
      result.seconds = exact.seconds;
      result.finalize(g, constraints);
    } else {
      auto algo = part::make_partitioner(algo_name);
      if (!algo) return fail("unknown --algorithm");
      result = algo->run(g, request);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppnpart: %s\n", e.what());
    return 1;
  }

  // ---- Report. -------------------------------------------------------------
  if (!args.flag("quiet")) {
    std::printf("algorithm : %s\n", result.algorithm.c_str());
    std::printf("graph     : n=%u m=%llu\n", g.num_nodes(),
                static_cast<unsigned long long>(g.num_edges()));
    std::printf("request   : k=%d rmax=%s bmax=%s seed=%llu\n", k,
                constraints.rmax == part::Constraints::kUnlimited
                    ? "inf"
                    : std::to_string(constraints.rmax).c_str(),
                constraints.bmax == part::Constraints::kUnlimited
                    ? "inf"
                    : std::to_string(constraints.bmax).c_str(),
                static_cast<unsigned long long>(request.seed));
    std::printf("result    : %s\n",
                part::describe(result.metrics, constraints).c_str());
    std::printf("time      : %.4fs\n", result.seconds);
  }
  if (args.flag("report")) {
    std::printf("%s", part::analyze(g, result.partition, constraints)
                          .to_string()
                          .c_str());
  }
  std::printf(
      "summary cut=%lld max_load=%lld max_pairwise=%lld feasible=%d "
      "seconds=%.4f\n",
      static_cast<long long>(result.metrics.total_cut),
      static_cast<long long>(result.metrics.max_load),
      static_cast<long long>(result.metrics.max_pairwise_cut),
      result.feasible ? 1 : 0, result.seconds);

  // ---- Optional outputs. ---------------------------------------------------
  if (!args.get_string("out").empty()) {
    std::ofstream out(args.get_string("out"));
    if (!out) return fail("cannot open --out file");
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
      out << result.partition[u] << "\n";
  }
  if (!args.get_string("dot").empty()) {
    if (!have_network) network = ppn::from_graph(g, "input");
    const auto status = viz::write_partitioned_dot_file(
        args.get_string("dot"), network, result.partition);
    if (!status.is_ok()) {
      std::fprintf(stderr, "ppnpart: %s\n", status.message().c_str());
      return 1;
    }
  }

  // ---- Observability outputs. ----------------------------------------------
  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path);
    if (!trace_out) return fail("cannot open --trace file");
    support::Tracer& tracer = support::Tracer::global();
    tracer.write_chrome_trace(trace_out);
    std::fprintf(stderr,
                 "ppnpart: wrote %s (%llu events recorded, %llu lost to ring "
                 "wraparound)\n",
                 trace_path.c_str(),
                 static_cast<unsigned long long>(tracer.recorded()),
                 static_cast<unsigned long long>(tracer.overwritten()));
  }
  if (args.flag("metrics")) {
    std::printf("%s", support::MetricsRegistry::global()
                          .snapshot()
                          .to_string()
                          .c_str());
  }
  if (faults_armed) {
    // Per-site check/fire tallies, so a chaos run shows which seams the
    // seeded schedule actually hit (stderr: diagnostics, not results).
    const auto counts = support::FaultInjector::global().counts();
    for (std::size_t i = 0; i < counts.size(); ++i)
      std::fprintf(stderr, "ppnpart: faults %-14s checks=%llu fired=%llu\n",
                   support::to_string(static_cast<support::FaultSite>(i)),
                   static_cast<unsigned long long>(counts[i].checks),
                   static_cast<unsigned long long>(counts[i].fired));
  }
  return result.feasible || constraints.unconstrained() ? 0 : 2;
}
