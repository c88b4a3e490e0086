// Head-to-head on a user-supplied or generated process network: partition
// with GP, the METIS-like baseline and the random control, check the
// paper's two constraints, and simulate each mapping's sustained throughput
// on the target platform.
//
//   ./partition_and_simulate [--nodes 96] [--k 4] [--seed 3]
//   ./partition_and_simulate --metis-file app.graph --k 4 --rmax 800 --bmax 30

#include <cstdio>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mapping/mapper.hpp"
#include "partition/gp.hpp"
#include "partition/metislike.hpp"
#include "partition/partitioner.hpp"
#include "ppn/network.hpp"
#include "sim/simulator.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace ppnpart;

  support::ArgParser args(
      "compare partitioners on one process network, with simulation");
  args.add_int("nodes", 96, "generated PN size (ignored with --metis-file)");
  args.add_int("k", 4, "number of FPGAs");
  args.add_int("seed", 3, "generator / partitioner seed");
  args.add_string("metis-file", "", "load the graph from a METIS file");
  args.add_double("resource-slack", 1.2, "Rmax = slack * total/k");
  args.add_double("bandwidth-slack", 1.2,
                  "Bmax = slack * total-edge-weight / pairs / 2");
  if (auto status = args.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    return 1;
  }
  if (args.help_requested()) {
    std::printf("%s", args.help_text().c_str());
    return 0;
  }

  // --- Acquire the application graph. -----------------------------------
  graph::Graph g;
  if (const std::string& path = args.get_string("metis-file"); !path.empty()) {
    auto loaded = graph::read_metis_file(path);
    if (!loaded) {
      std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                   loaded.message().c_str());
      return 1;
    }
    g = std::move(loaded).value();
  } else {
    graph::ProcessNetworkParams params;
    params.num_nodes =
        static_cast<graph::NodeId>(args.get_int("nodes"));
    support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
    g = graph::random_process_network(params, rng);
  }
  const ppn::ProcessNetwork network = ppn::from_graph(g, "app");

  const auto k = static_cast<part::PartId>(args.get_int("k"));
  part::PartitionRequest request;
  request.k = k;
  request.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  request.constraints.rmax = std::max<graph::Weight>(
      static_cast<graph::Weight>(args.get_double("resource-slack") *
                                 static_cast<double>(g.total_node_weight()) /
                                 k),
      g.max_node_weight());
  request.constraints.bmax = std::max<graph::Weight>(
      1, static_cast<graph::Weight>(
             args.get_double("bandwidth-slack") *
             static_cast<double>(g.total_edge_weight()) /
             (k * (k - 1) / 2.0) / 2.0));

  std::printf("application: n=%u m=%llu total R=%lld | platform: K=%d "
              "Rmax=%lld Bmax=%lld\n\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              static_cast<long long>(g.total_node_weight()), k,
              static_cast<long long>(request.constraints.rmax),
              static_cast<long long>(request.constraints.bmax));

  const mapping::Platform platform = mapping::Platform::all_to_all(
      static_cast<std::uint32_t>(k), request.constraints.rmax,
      request.constraints.bmax);
  sim::SimOptions sim_options;
  sim_options.max_steps = 300'000;
  const double solo =
      sim::simulate_single_device(network, sim_options).sink_throughput;

  std::printf("%-10s %8s %6s %9s %9s %8s %11s %9s\n", "algorithm", "cut",
              "feas", "max-load", "max-bw", "time", "throughput", "vs-solo");

  auto contend = [&](part::Partitioner& algo) {
    const part::PartitionResult r = algo.run(g, request);
    const mapping::Mapping m = mapping::map_network(g, r.partition, platform);
    const sim::SimStats stats =
        sim::simulate(network, m, platform, sim_options);
    std::printf("%-10s %8lld %6s %9lld %9lld %7.3fs %11.4f %8.1f%%\n",
                algo.name().c_str(),
                static_cast<long long>(r.metrics.total_cut),
                r.feasible ? "yes" : "NO",
                static_cast<long long>(r.metrics.max_load),
                static_cast<long long>(r.metrics.max_pairwise_cut), r.seconds,
                stats.sink_throughput,
                solo > 0 ? 100.0 * stats.sink_throughput / solo : 0.0);
  };

  part::GpPartitioner gp;
  contend(gp);
  part::MetisLikePartitioner metis;
  contend(metis);
  part::RandomPartitioner random;
  contend(random);
  return 0;
}
