#include "partition/partitioner.hpp"

#include "partition/exact.hpp"
#include "partition/gp.hpp"
#include "partition/initial.hpp"
#include "partition/metislike.hpp"
#include "partition/tabu.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

namespace ppnpart::part {

void PartitionResult::finalize(const Graph& g, const Constraints& c) {
  metrics = compute_metrics(g, partition);
  violation = compute_violation(metrics, c);
  feasible = violation.feasible();
}

Goodness goodness_of(const PartitionResult& r) {
  return Goodness{r.violation.resource_excess, r.violation.bandwidth_excess,
                  r.metrics.total_cut};
}

PartitionResult RandomPartitioner::run(const Graph& g,
                                       const PartitionRequest& request) {
  support::Timer timer;
  PartitionResult result;
  result.algorithm = name();
  support::Rng rng(request.seed);
  result.partition = random_balanced_partition(g, request.k, rng);
  result.finalize(g, request.constraints);
  result.seconds = timer.seconds();
  return result;
}

std::vector<std::string> partitioner_names() {
  return {"gp", "metislike", "tabu", "exact", "random"};
}

std::unique_ptr<Partitioner> make_partitioner(const std::string& name) {
  if (name == "gp") return std::make_unique<GpPartitioner>();
  if (name == "metislike") return std::make_unique<MetisLikePartitioner>();
  if (name == "tabu") return std::make_unique<TabuPartitioner>();
  if (name == "exact") return std::make_unique<ExactPartitioner>();
  if (name == "random") return std::make_unique<RandomPartitioner>();
  return nullptr;
}

}  // namespace ppnpart::part
