#pragma once
// Initial partitioning (paper Section IV-B).
//
// greedy_grow_initial implements the paper's seeded-growth scheme on the
// coarsest graph:
//   1. take the heaviest unassigned node, open a partition with it, and
//      greedily absorb frontier neighbours (strongest connection first)
//      while the partition's load stays within the growth cap;
//   2. repeat for all K partitions;
//   3. place leftover nodes best-fit by free space (allowed to overflow Rmax
//      only when nothing fits — the paper's last-resort rule);
//   4. the whole procedure restarts from `restarts` random seed nodes (the
//      paper's default is 10) and the best goodness wins;
//   5. an FM repair pass then chases bandwidth/resource violations.

#include <cstdint>

#include "partition/partition.hpp"
#include "support/prng.hpp"

namespace ppnpart::part {

struct GreedyGrowOptions {
  std::uint32_t restarts = 10;  // paper default
  /// Run restarts on the global thread pool.
  bool parallel = true;
};

/// Produces a complete k-way partition of g honouring Rmax where possible.
/// Deterministic given (g, k, c, options, rng seed) regardless of threading.
Partition greedy_grow_initial(const Graph& g, PartId k, const Constraints& c,
                              const GreedyGrowOptions& options,
                              support::Rng& rng);

/// Shuffle nodes, then fill parts round-robin by lightest-load-first;
/// control baseline and fallback.
Partition random_balanced_partition(const Graph& g, PartId k,
                                    support::Rng& rng);

/// BFS region growing from a random seed until `fraction` of the total node
/// weight is absorbed; the rest is part 1. Used by recursive bisection.
Partition region_grow_bisection(const Graph& g, double fraction,
                                support::Rng& rng);

}  // namespace ppnpart::part
