#pragma once
// Tabu search — the paper's Section II-A singles it out as the local-search
// family that "eliminate[s] this restriction as far as possible, i.e. a
// node can be moved different times during one iteration" (unlike FM's
// one-move-per-pass lock). This module provides
//
//   * tabu_refine():  a constraint-aware tabu walk over single-node moves —
//     every iteration applies the best admissible move even when it worsens
//     the goodness, recently moved nodes are tabu for max(2, n/10 + k)
//     iterations, and a tabu move is still allowed when it beats the best
//     solution seen (the classic aspiration criterion);
//   * TabuPartitioner: greedy growth seeding followed by tabu_refine, usable
//     wherever the harness wants a standalone related-work baseline.
//
// Like GP, the walk optimizes the lexicographic goodness (violations first,
// cut second), so it honours Rmax/Bmax rather than only the global cut.

#include <cstdint>

#include "partition/partitioner.hpp"
#include "support/prng.hpp"

namespace ppnpart::part {

struct TabuOptions {
  /// Iterations ~ iterations_per_node * n (each applies exactly one move).
  std::uint32_t iterations_per_node = 24;
};

/// Runs the tabu walk in place; returns true if the goodness improved over
/// the initial partition. Partition must be complete. Each iteration
/// examines up to 64 candidate nodes sampled from the boundary, and the
/// walk stops after 512 iterations without improving the incumbent. A
/// fired `stop` token ends the walk at the next iteration, leaving the best
/// state visited.
bool tabu_refine(const Graph& g, Partition& p, const Constraints& c,
                 const TabuOptions& options, support::Rng& rng,
                 const support::StopToken* stop = nullptr);

class TabuPartitioner : public Partitioner {
 public:
  explicit TabuPartitioner(TabuOptions options = {});

  std::string name() const override { return "Tabu"; }
  PartitionResult run(const Graph& g, const PartitionRequest& request) override;

  const TabuOptions& options() const { return options_; }

 private:
  TabuOptions options_;
};

}  // namespace ppnpart::part
