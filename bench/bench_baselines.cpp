// Cross-algorithm comparison over the related-work families the paper
// surveys in Section II: local search (FM-based GP refinement, tabu),
// multilevel (GP, MetisLike) and the exact optimum where tractable.
//
// Two panels:
//   1. The paper's three 12-node instances — every algorithm, constraint
//      compliance and cut next to the exact constrained optimum.
//   2. A 200-node PN family (8 instances) — feasibility rate, mean cut and
//      mean runtime per algorithm, the statistical version of the paper's
//      "GP always complies, METIS does not" claim.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "partition/exact.hpp"
#include "partition/gp.hpp"
#include "partition/metislike.hpp"
#include "partition/tabu.hpp"
#include "ppn/paper_instances.hpp"

namespace {

using namespace ppnpart;

std::vector<std::unique_ptr<part::Partitioner>> make_algorithms() {
  std::vector<std::unique_ptr<part::Partitioner>> algos;
  algos.push_back(std::make_unique<part::GpPartitioner>());
  algos.push_back(std::make_unique<part::MetisLikePartitioner>());
  algos.push_back(std::make_unique<part::TabuPartitioner>());
  algos.push_back(std::make_unique<part::RandomPartitioner>());
  return algos;
}

void paper_instance_panel() {
  std::printf(
      "=== Panel 1: paper instances (K=4), all related-work families ===\n");
  for (int index = 1; index <= 3; ++index) {
    const ppn::PaperInstance inst = ppn::paper_instance(index);
    std::printf(
        "--- instance %d (n=%u m=%llu Bmax=%lld Rmax=%lld) ---\n", index,
        inst.graph.num_nodes(),
        static_cast<unsigned long long>(inst.graph.num_edges()),
        static_cast<long long>(inst.constraints.bmax),
        static_cast<long long>(inst.constraints.rmax));
    std::printf("%-10s %8s %8s %8s %10s %9s\n", "algorithm", "cut", "maxR",
                "maxB", "feasible", "time(s)");

    // Exact constrained optimum as the yardstick (12 nodes: tractable).
    part::ExactOptions exact_opts;
    exact_opts.time_limit_seconds = 30;
    const part::ExactResult exact = part::exact_min_cut(
        inst.graph, inst.k, inst.constraints, exact_opts);
    if (exact.found) {
      const part::PartitionMetrics m =
          part::compute_metrics(inst.graph, exact.partition);
      std::printf("%-10s %8lld %8lld %8lld %10s %9s\n", "Exact*",
                  static_cast<long long>(m.total_cut),
                  static_cast<long long>(m.max_load),
                  static_cast<long long>(m.max_pairwise_cut), "yes",
                  exact.optimal ? "(opt)" : "(cap)");
    }

    for (const auto& algo : make_algorithms()) {
      part::PartitionRequest request;
      request.k = inst.k;
      request.constraints = inst.constraints;
      request.seed = 2025 + static_cast<std::uint64_t>(index);
      const part::PartitionResult r = algo->run(inst.graph, request);
      std::printf("%-10s %8lld %8lld %8lld %10s %8.3fs\n",
                  algo->name().c_str(),
                  static_cast<long long>(r.metrics.total_cut),
                  static_cast<long long>(r.metrics.max_load),
                  static_cast<long long>(r.metrics.max_pairwise_cut),
                  r.feasible ? "yes" : "NO", r.seconds);
    }
  }
}

void family_panel() {
  std::printf(
      "\n=== Panel 2: 200-node PN family (8 instances, K=4, slack 1.08) "
      "===\n");
  std::printf("%-10s %10s %10s %12s %12s\n", "algorithm", "feas-rate",
              "mean-cut", "mean-maxB", "mean-time(s)");
  bench::InstanceFamily family;
  family.nodes = 200;
  family.k = 4;
  family.resource_slack = 1.08;
  family.bandwidth_slack = 1.08;

  for (const auto& algo : make_algorithms()) {
    bench::RunSummary summary;
    for (int i = 0; i < 8; ++i) {
      const auto inst = family.make(i);
      summary.add(algo->run(inst.graph, inst.request));
    }
    std::printf("%-10s %9.0f%% %10.1f %12.1f %11.3fs\n",
                algo->name().c_str(), 100.0 * summary.feasible_rate(),
                summary.mean_cut(), summary.max_bw_sum / summary.total,
                summary.mean_seconds());
  }
}

}  // namespace

int main() {
  paper_instance_panel();
  family_panel();
  return 0;
}
