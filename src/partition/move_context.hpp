#pragma once
// Incremental bookkeeping for node moves during refinement.
//
// MoveContext maintains, under single-node moves:
//   * conn(u, r): total weight of edges from u into part r,
//   * per-part loads and node counts,
//   * the k x k pairwise cut matrix and global cut,
//   * the aggregate resource/bandwidth constraint excesses,
//   * the boundary set (nodes with at least one cross-part edge), kept
//     incrementally: apply() marks the only nodes whose status can change
//     (the moved node and its neighbours), enumeration lazily drops stale
//     entries and reports ascending by node id — the same order the old
//     full rescan produced, so downstream seed shuffles are unchanged.
// A move costs O(degree(u) + k); evaluating a hypothetical move costs O(k);
// boundary enumeration costs O(b log b) in the boundary size instead of the
// former O(n * avg_degree) rescan.
// compute_metrics() (full recomputation) is the reference implementation the
// tests compare against.
//
// Bandwidth slack: the context also keeps pair_ub_, an upper bound on every
// pairwise cut (exact at reset(), raised by apply(), never lowered). A move
// of u changes any pairwise cut by at most incident(u), so while
// pair_ub_ + incident(u) <= bmax no move of u can change the bandwidth
// excess (which is then 0); evaluations skip their bandwidth terms exactly
// as they do when bmax is unlimited.
//
// A MoveContext is designed to be owned by a part::Workspace and re-armed
// with reset() across refinement levels: every internal buffer keeps its
// capacity, so steady-state resets allocate nothing. A reset costs
// O(n * k + m), so GP arms it once per level, in chunks of node ranges at
// threads > 1, and runs LP, FM and swap rounds on that one arm (their armed
// forms in refine.hpp and parallel.hpp). That changes no result: the state
// stays exact under apply(), and only pair_ub_, which gates fast paths, is
// looser than a fresh reset would make it. The evaluations (best_move,
// goodness_after, goodness_after_swap) and the accessors write nothing, so
// the LP scan and FM seeding read one context from several threads between
// moves; boundary_nodes() compacts its list and stays single-threaded.

#include <cstdint>
#include <optional>
#include <vector>

#include "partition/partition.hpp"
#include "support/alloc_stats.hpp"

namespace ppnpart::part {

class MoveContext {
 public:
  /// Empty context; arm with reset() before use (workspace pattern).
  MoveContext() = default;

  /// Partition must be complete. The context takes a reference: callers
  /// mutate the partition exclusively through apply().
  MoveContext(const Graph& g, Partition& p, const Constraints& c) {
    reset(g, p, c);
  }

  /// Re-arms the context on a (graph, partition, constraints) triple,
  /// reusing all internal buffer capacity. Same contract as the
  /// constructor. `chunks` (clamped to [1, n]) splits the O(n * k + m) fill
  /// into that many node ranges, run as tasks on the global thread pool
  /// (inline on a pool worker); the armed state is the same at every count.
  void reset(const Graph& g, Partition& p, const Constraints& c,
             std::uint32_t chunks = 1);

  /// Optional growth counter for the internal buffers (workspace hook).
  void set_alloc_stats(support::AllocStats* stats) { alloc_stats_ = stats; }

  const Graph& graph() const { return *graph_; }
  const Partition& partition() const { return *partition_; }
  const Constraints& constraints() const { return constraints_; }
  PartId k() const { return k_; }
  PartId part_of(NodeId u) const { return (*partition_)[u]; }

  Weight conn(NodeId u, PartId r) const {
    return conn_[static_cast<std::size_t>(u) * k_ + static_cast<std::size_t>(r)];
  }
  Weight load(PartId p) const { return loads_[static_cast<std::size_t>(p)]; }
  std::uint32_t part_size(PartId p) const {
    return counts_[static_cast<std::size_t>(p)];
  }
  Weight cut() const { return cut_; }
  const PairwiseCut& pairwise() const { return pairwise_; }

  Goodness goodness() const {
    return Goodness{resource_excess_, bandwidth_excess_, cut_};
  }

  /// Number of effective apply() calls since reset(). Any cached gain
  /// computed while this is unchanged is still exact.
  std::uint64_t apply_count() const { return apply_count_; }

  /// Number of reset() calls over the context's lifetime (observe-only).
  std::uint64_t reset_count() const { return reset_count_; }

  /// Goodness of the partition if u moved to part q (u's part unchanged is
  /// allowed and returns current goodness). O(k), or O(1) while
  /// pair_ub_ + incident(u) <= bmax (no bandwidth terms to evaluate).
  Goodness goodness_after(NodeId u, PartId q) const;

  /// Goodness of the partition if u and v exchanged parts (same part:
  /// current goodness). Closed-form integer arithmetic over loads, conn and
  /// the u-v edge weight: O(log degree(u) + k), or O(log degree(u)) while
  /// pair_ub_ + incident(u) + incident(v) <= bmax (bandwidth excess
  /// unchanged). Free of side effects.
  Goodness goodness_after_swap(NodeId u, NodeId v) const;

  /// Moves u to part q, updating all incremental state. O(degree(u) + k).
  void apply(NodeId u, PartId q);

  /// True iff u has at least one neighbour in another part. O(1).
  bool is_boundary(NodeId u) const {
    return conn(u, part_of(u)) < incident_[u];
  }

  /// Replaces `out` with the boundary nodes, ascending by id. Its growth
  /// counts as the workspace's, so a reused buffer allocates nothing.
  void boundary_nodes(std::vector<NodeId>& out) const;

  struct Candidate {
    PartId target = kUnassigned;
    Goodness after;
  };
  /// Best target part for u by resulting goodness; never empties u's part
  /// when `allow_emptying` is false. nullopt when no legal target exists.
  /// O(k * nz) for nz parts u connects to, or O(k) while
  /// pair_ub_ + incident(u) <= bmax. Writes nothing, so several threads may
  /// evaluate moves on one context while none applies one.
  std::optional<Candidate> best_move(NodeId u, bool allow_emptying = false) const;

 private:
  /// Adds u to the boundary superset unconditionally; enumeration filters
  /// non-boundary entries out anyway, so testing is_boundary here would
  /// just duplicate that work on the hot move path.
  void mark_boundary(NodeId u) const {
    if (!in_boundary_list_[u]) {
      in_boundary_list_[u] = 1;
      boundary_list_.push_back(u);
    }
  }

  /// True iff no move touching at most `reach` edge weight can change the
  /// bandwidth excess (see the bandwidth-slack note at the top).
  bool bandwidth_inert(Weight reach) const {
    return constraints_.bmax == Constraints::kUnlimited ||
           pair_ub_ + reach <= constraints_.bmax;
  }

  const Graph* graph_ = nullptr;
  Partition* partition_ = nullptr;
  Constraints constraints_;
  PartId k_ = 0;
  std::vector<Weight> conn_;       // n x k
  std::vector<Weight> loads_;      // k
  std::vector<std::uint32_t> counts_;  // k
  std::vector<Weight> incident_;   // n: total incident edge weight
  PairwiseCut pairwise_;
  Weight cut_ = 0;
  Weight resource_excess_ = 0;
  Weight bandwidth_excess_ = 0;
  Weight pair_ub_ = 0;  // >= every pairwise cut; exact at reset()
  std::uint64_t apply_count_ = 0;
  std::uint64_t reset_count_ = 0;
  /// Superset of the boundary (lazily compacted on enumeration).
  mutable std::vector<NodeId> boundary_list_;
  mutable std::vector<std::uint8_t> in_boundary_list_;
  /// reset()'s per-chunk partial sums: loads, counts, cut, pairwise cut.
  std::vector<Weight> partial_;
  support::AllocStats* alloc_stats_ = nullptr;
};

}  // namespace ppnpart::part
