#pragma once
// MetisLike — a from-scratch reimplementation of the baseline the paper
// compares against (METIS 5.1 multilevel k-way, default parameters).
//
// It fulfils METIS's behavioural contract and nothing more: minimize the
// global edge cut subject to a ~3% balance constraint on node weight. It is
// deliberately unaware of the paper's Rmax/Bmax constraints — that blindness
// is exactly what Tables I–III demonstrate.
//
// Pipeline (Karypis–Kumar SIAM'98 structure):
//   coarsen with heavy-edge matching  ->  recursive bisection of the
//   coarsest graph (BFS region growing + 2-way FM)  ->  uncoarsen with
//   greedy k-way boundary refinement under the balance cap.

#include <cstdint>

#include "partition/partitioner.hpp"

namespace ppnpart::part {

struct MetisLikeOptions {
  /// Allowed max-load factor over perfect balance (METIS ufactor 30 ≈ 1.03).
  double imbalance = 1.03;
  /// Coarsening stops at max(this, 20 * k) nodes; 0 keeps the default.
  NodeId coarsen_to = 0;
  /// Balance node *count* instead of node weight — how the paper's authors
  /// ran METIS (resources were tallied only after the fact; Tables I–III
  /// show METIS exceeding Rmax by ~11%, far beyond ufactor 30's 3%, which
  /// is only possible when vertex weights don't enter the balance).
  bool unit_vertex_balance = false;
};

class MetisLikePartitioner : public Partitioner {
 public:
  explicit MetisLikePartitioner(MetisLikeOptions options = {});

  std::string name() const override { return "MetisLike"; }
  PartitionResult run(const Graph& g, const PartitionRequest& request) override;

  const MetisLikeOptions& options() const { return options_; }

 private:
  MetisLikeOptions options_;
};

}  // namespace ppnpart::part
